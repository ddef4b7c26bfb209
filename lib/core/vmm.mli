(** The Virtual Machine Manager — the runtime heart of libxbgp (§2.1).

    The VMM owns the registered xBGP programs, the per-insertion-point
    ordered queues of attached bytecodes, and the execution machinery.
    At an insertion point the host calls {!run}; the VMM then

    - executes the first attached bytecode in manifest order, in its
      per-attachment eBPF VM (built at attach time and reused) whose
      memory holds a private ephemeral heap plus the program's persistent
      scratch region;
    - on the special [next()] helper, moves to the next attachment, and
      past the last one falls back to the host's native [default];
    - on a normal return, hands r0 back to the host;
    - on a fault (bad access, exhausted budget, helper misuse), logs,
      notifies the host and falls back to the native default.

    Ephemeral memory — every helper-returned structure and
    [ebpf_memalloc] allocation — is reclaimed wholesale after each run:
    the paper's automatic ephemeral reclamation. *)

exception Next
(** Raised by the [next()] helper; never escapes {!run}. *)

type t

type stats = {
  mutable runs : int;  (** bytecode executions started *)
  mutable native_fallbacks : int;  (** chains that ended in native code *)
  mutable faults : int;
  mutable next_calls : int;
  mutable insns : int;  (** total eBPF instructions retired *)
}

(** The structured record of a bytecode fault: where it happened
    (insertion point, program, bytecode, engine), best-effort location in
    the program ([fault_pc] and disassembly — exact for the interpreter,
    the faulting block's leader for [Block]), and the raw error
    message. *)
type fault = {
  fault_host : string;
  fault_point : Api.point;
  fault_program : string;
  fault_bytecode : string;
  fault_engine : Ebpf.Vm.engine;
  fault_pc : int option;
  fault_insn : string option;  (** disassembly of the faulting insn *)
  fault_msg : string;
  fault_init : bool;  (** faulted during {!run_init} *)
}

val create :
  ?heap_size:int ->
  ?budget:int ->
  ?engine:Ebpf.Vm.engine ->
  ?telemetry:Telemetry.t ->
  host:string ->
  unit ->
  t
(** [host] names the embedding implementation (for log messages);
    [heap_size] is the per-attachment ephemeral heap (default 64 KiB);
    [budget] the per-run instruction limit; [engine] selects the eBPF
    execution engine for every attached bytecode (default
    [Interpreted]); [telemetry] is the shared registry every run records
    into (default: a fresh disabled registry, so counters still count
    but nothing else is retained). *)

val stats : t -> stats
(** The live record: hold it, read updated fields. *)

val telemetry : t -> Telemetry.t
(** The registry this VMM records into. *)

val last_fault : t -> string option
(** Rendered description of the most recent bytecode fault, if any — for
    fault diagnosis in divergence reports. Equal to
    [Option.map render_fault (last_fault_record t)]. *)

val last_fault_record : t -> fault option

val render_fault : fault -> string
(** The legacy one-line rendering
    (["host: extension prog/bc at point faulted: msg"]). *)

val fault_detail : fault -> string
(** {!render_fault} plus engine, slot and disassembly when known — what
    fuzz divergence reports print. *)

(** What one bytecode may do, derived once from {!Ebpf.Verifier.facts}
    when its program is registered or replaced, and read by the chain
    {!summary} and by {!last_trace}. Argument
    ids and map indices are r1 at the call site, normalised to the 32
    bits every helper reads. *)
type facts = {
  helpers : int list;  (** every helper id called, in first-call order *)
  arg_reads : int list option;
      (** argument ids fetched through [h_get_arg]/[h_arg_len]; [None] =
          some call's r1 is unresolved (could read any argument) *)
  map_reads : int list option;
      (** map indices passed to [h_map_lookup]; [None] = unresolved.
          Consumers need the indices because a lookup on an LRU map
          refreshes recency (a write in disguise) while hash/array
          lookups are pure. *)
  map_writes : int list option;
      (** map indices passed to [h_map_update]/[h_map_delete]; [None] =
          unresolved. Anything but [Some []] makes the number of runs
          observable. *)
  effectful : bool;
      (** per-call observable effects beyond the return value and the
          route-attribute edits: a helper outside the batchable set (map
          writes, RIB injection, message-buffer writes, logging) or a
          program with persistent scratch *)
  attrs_mutated : bool;  (** may set, add or remove route attributes *)
  maps_written : string list;
      (** names of the declared maps it may write (all of them when
          [map_writes = None]) — the static half of provenance *)
}

val verify : Xprog.t -> (string * (facts, Ebpf.Verifier.error list) result) list
(** The verification {!register} and {!replace_program} apply, per
    bytecode: {!Ebpf.Verifier.check} against the program's helper
    whitelist, then the map checks — each map spec is bounds-checked, a
    map helper call is rejected when the program declares no maps, or
    when its resolved index is out of range (an unresolved index is
    left to the runtime check). *)

val register : t -> Xprog.t -> (unit, string) result
(** {!verify} every bytecode, keep each one's {!facts}, and instantiate
    the program's scratch. Maps are created at the program's first
    {!attach} and destroyed at its last {!detach}: their lifetime is the
    attachment's, surviving every dispatch in between. *)

val attach :
  t ->
  program:string ->
  bytecode:string ->
  point:Api.point ->
  order:int ->
  (unit, string) result
(** Attach a bytecode to an insertion point; [order] positions it in the
    point's execution queue. Builds the attachment's VM. *)

val detach : t -> program:string -> point:Api.point -> unit
(** Remove [program]'s attachments at [point]. When this was the
    program's last attachment at {e any} point, its maps are destroyed
    (entries dropped, telemetry entry gauges zeroed; the monotone map
    counters survive in the registry). *)

val replace_program : t -> Xprog.t -> (unit, string) result
(** Hot-swap a registered program with a new version — the rekey path.
    Attachments and their orders survive: every point where the program
    is attached gets fresh runtimes built from the new bytecodes and a
    fresh {!summary}, and the generation bump invalidates everything
    cached off the chains (update-group keys), so the very next dispatch
    runs the new code with no detached window. The new version
    must pass {!register}'s verification and still carry every bytecode
    name currently attached. Persistent scratch survives when its size
    is unchanged; map instances (and contents) survive when the map
    specs are unchanged, else they are recreated. *)

val attachments : t -> Api.point -> (string * string * int) list
(** [(program, bytecode, order)] per attachment, in execution order. *)

val has_attachment : t -> Api.point -> bool

val registered : t -> string list

(** What the chain attached at one point allows, derived from its
    bytecodes' {!facts} by the one function every {!attach}, {!detach}
    and {!replace_program} goes through, so reading it is an array
    load. An empty chain is vacuously prefix- and peer-blind. *)
type summary = {
  prefix_blind : bool;
      (** every bytecode provably computes the same result for every
          prefix of an UPDATE: it never fetches {!Api.arg_prefix}, all
          its argument reads are statically resolved, and it has no
          per-call observable effects (map writes, RIB injection,
          logging, persistent scratch). Map lookups are admitted only
          when each statically resolves to a non-LRU map — an LRU lookup
          refreshes recency, so the run count would change later
          eviction order. The hosts run an UPDATE's chain once and share
          the verdict, and any route-attribute edits, across the NLRI
          list. *)
  peer_blind : bool;
      (** every bytecode provably behaves the same towards every peer,
          so one run can stand in for a whole update group: no
          [h_get_peer_info], no map access of any kind (a per-peer-keyed
          read depends on which peer asks, and an LRU lookup is a write
          in disguise), no per-call observable effects. [h_write_buf] is
          admitted at [Bgp_encode_message] only, where one shared buffer
          per group is the intended semantics. *)
  signature : string;
      (** stable identity of the chain (program/bytecode\@order, in
          execution order); update-group keys embed it *)
}

val no_chain : summary
(** The summary of an empty chain: what a host without a VMM reads. *)

val summary : t -> Api.point -> summary

val generation : t -> int
(** Monotonic counter bumped with every chain {!summary} — lets a host
    revalidate chain-derived cached decisions (update-group keys) with
    one integer compare. *)

val map_writes : t -> int
(** Monotonic count of map updates and deletes attempted by bytecode at
    any point (init included). A host reusing one run's result across
    calls compares it to tell whether map state the run may have read
    can have changed in between. *)

val set_recorder : t -> Obs.Recorder.t option -> unit
(** Attach a flight recorder: bytecode faults, native fallbacks, LRU
    map evictions and inserts refused by a full map are recorded as
    structured events. [None] (the default) makes every hook one
    load-and-branch. *)

val recorder : t -> Obs.Recorder.t option

val last_trace : t -> Api.point -> Obs.Provenance.step list option
(** The dispatch {!run} just executed at [point], as provenance steps —
    one per bytecode that ran, in order, with its dynamic verdict
    ("accept" / "reject" / "next()" / "fault" / point-rendered return)
    and the static half of its {!facts} (may it mutate route
    attributes, which maps it may write). [None] when the last traced dispatch was
    at a different point or the chains changed since. Read it
    immediately after the dispatch: a nested dispatch (import ->
    [rib_add] -> export) overwrites the trace. While consecutive calls
    see the same point, generation and outcomes, they return the same
    physical list, so routes that ran alike share one. *)

val run :
  t ->
  Api.point ->
  ops:Host_intf.ops ->
  args:Host_intf.Args.t ->
  default:(unit -> int64) ->
  int64
(** Execute the chain attached to a point. [args] are the
    insertion-point arguments exposed through [get_arg] (ids from
    {!Api}) — hosts on the hot path reuse one {!Host_intf.Args.t} buffer
    across calls, one-shot callers build one with
    [Host_intf.Args.of_list]; [default] is the host's native
    implementation, used when nothing is attached, when the last
    bytecode calls [next()], or when a bytecode faults. A point with no
    attachments costs one array load before [default] runs. *)

val run_init : t -> ops:Host_intf.ops -> unit
(** Run every bytecode attached to [Bgp_init] once (manifest load time);
    faults are logged and initialization continues. *)

(** {1 Introspection} (tests, the CLI and the fuzz map-state oracle) *)

val map_size : t -> program:string -> int -> int option
(** Live entries of map [idx] of [program]; [Some 0] when the program
    is registered but its maps are not live (never attached, or fully
    detached); [None] on an unknown program or map index. *)

val map_stats : t -> program:string -> int -> Ebpf.Map.stats option
(** Operation counters of a live map ([None] when not live). *)

val map_dump : t -> program:string -> (string * (string * string) list) list option
(** Canonical contents of every live map of [program], in declaration
    order: [(map_name, sorted (key, value) entries)]. [None] when the
    program is unknown or its maps are not live. *)

val map_state : t -> (string * (string * (string * string) list) list) list
(** {!map_dump} for every program with live maps, sorted by program
    name — the cross-leg comparison unit of the fuzz map-state oracle.
    Programs whose maps are not live are omitted, so "never attached"
    and "attached then fully detached" compare equal. *)

val scratch : t -> program:string -> bytes option
