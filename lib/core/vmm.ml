(* The Virtual Machine Manager — the runtime heart of libxbgp (§2.1).

   The VMM owns the registered xBGP programs, the per-insertion-point
   ordered queues of attached bytecodes, and the execution machinery. At
   an insertion point the host calls [run]; the VMM then:

   - executes the first attached bytecode in manifest order, in a fresh
     eBPF VM whose memory holds a private ephemeral heap plus the
     program's persistent scratch region;
   - if the bytecode calls the special [next()] helper, moves on to the
     next attachment, and past the last one falls back to the host's
     native [default] function;
   - if the bytecode returns, hands its r0 back to the host;
   - if it faults (bad access, budget exhausted, helper misuse), logs the
     error, notifies the host and falls back to the native default.

   Ephemeral memory (every helper-returned structure, [ebpf_memalloc])
   lives in the per-run heap and is freed wholesale when the bytecode
   finishes — the paper's automatic ephemeral reclamation. *)

let src = Logs.Src.create "xbgp.vmm" ~doc:"xBGP virtual machine manager"

module Log = (val Logs.src_log src : Logs.LOG)

(* Raised by the next() helper; never escapes [run]. *)
exception Next

(* A live map plus its telemetry handles. Handles are interned by
   (name, labels) in the registry, so a program that is detached and
   re-attached gets a fresh [Ebpf.Map.t] (the paper's lifecycle: maps
   are created at attach, destroyed at detach) while its counters stay
   monotone — the chaos telemetry oracle depends on that. *)
type live_map = {
  map : Ebpf.Map.t;
  m_entries : Telemetry.Gauge.t;
  m_hits : Telemetry.Counter.t;
  m_misses : Telemetry.Counter.t;
  m_updates : Telemetry.Counter.t;
  m_deletes : Telemetry.Counter.t;
  m_evictions : Telemetry.Counter.t;
  m_rejected : Telemetry.Counter.t;
}

(* What one bytecode may do, derived once from the verifier's call sites
   when its program is registered or replaced. Argument ids and map
   indices are r1 normalised to the 32 bits every helper reads; [None] =
   some call site's r1 is unresolved (treat as "could be any"). *)
type facts = {
  helpers : int list;
  arg_reads : int list option;
  map_reads : int list option;
  map_writes : int list option;
  effectful : bool;
  attrs_mutated : bool;
  maps_written : string list;
}

type ext = {
  prog : Xprog.t;
  facts : (string * facts) list;  (** per bytecode name *)
  mutable maps : live_map array option;
      (** [Some] while the program is attached anywhere, indexed by map
          declaration; [None] before the first attach and after the last
          detach. *)
  scratch : bytes;  (** persistent across runs, shared by the program *)
}

(* Per-attachment execution state. A virtual machine is built once, when
   the bytecode is attached (§2: the VMM "attaches bytecode with an
   associated virtual machine to one specific insertion point"), and
   reused for every run: only the registers, the instruction budget and
   the ephemeral-heap cursor are reset. The [ops]/[args] fields carry the
   current operation's execution context into the helpers. *)
type runtime = {
  vm : Ebpf.Vm.t;
  heap : Ebpf.Memory.region;
  mutable heap_pos : int;
  mutable ops : Host_intf.ops;
  mutable args : Host_intf.Args.t;
}

(* Per-attachment telemetry handles, resolved once at attach time: the
   labels (host, point, program, bytecode, engine) are fixed for the
   attachment's whole lifetime, so the hot path pays only the store per
   event, never a registry lookup. *)
type probe = {
  span_tags : (string * string) list;
  p_runs : Telemetry.Counter.t;
  p_next : Telemetry.Counter.t;
  p_insns : Telemetry.Histogram.t;
  p_ns : Telemetry.Histogram.t;
  p_heap : Telemetry.Gauge.t;
}

type attachment = {
  ext : ext;
  bc_name : string;
  order : int;
  rt : runtime;
  probe : probe;
  facts : facts;
}

type stats = {
  mutable runs : int;  (** bytecode executions started *)
  mutable native_fallbacks : int;  (** chains that ended in native code *)
  mutable faults : int;
  mutable next_calls : int;
  mutable insns : int;  (** total eBPF instructions retired *)
}

type fault = {
  fault_host : string;
  fault_point : Api.point;
  fault_program : string;
  fault_bytecode : string;
  fault_engine : Ebpf.Vm.engine;
  fault_pc : int option;
  fault_insn : string option;
  fault_msg : string;
  fault_init : bool;
}

(* The legacy one-line rendering — [last_fault] consumers (fuzz
   reproducer logs, tests) rely on this exact shape. *)
let render_fault f =
  if f.fault_init then
    Printf.sprintf "%s: init of %s/%s faulted: %s" f.fault_host
      f.fault_program f.fault_bytecode f.fault_msg
  else
    Printf.sprintf "%s: extension %s/%s at %s faulted: %s" f.fault_host
      f.fault_program f.fault_bytecode
      (Api.point_name f.fault_point)
      f.fault_msg

let fault_detail f =
  let where =
    match (f.fault_pc, f.fault_insn) with
    | Some pc, Some insn -> Printf.sprintf " [%s, slot %d: %s]"
        (Ebpf.Vm.engine_name f.fault_engine) pc insn
    | Some pc, None ->
      Printf.sprintf " [%s, slot %d]"
        (Ebpf.Vm.engine_name f.fault_engine) pc
    | None, _ -> Printf.sprintf " [%s]" (Ebpf.Vm.engine_name f.fault_engine)
  in
  render_fault f ^ where

(* Last-dispatch trace: which bytecodes of the chain ran and what each
   returned, captured by [run] into preallocated arrays so the hot path
   pays two int stores per bytecode and nothing allocates. Hosts turn it
   into provenance steps via [last_trace] immediately after their
   dispatch wrapper returns — a nested dispatch (import -> rib_add ->
   export) overwrites it. *)
type trace = {
  mutable trace_point : int;  (** point index of the traced dispatch; -1 none *)
  mutable trace_gen : int;  (** [generation] at capture; stale -> no trace *)
  mutable trace_len : int;
  mutable trace_out : int array;  (** 0 = returned value, 1 = next(), 2 = fault *)
  mutable trace_val : int64;  (** r0 of the deciding bytecode *)
  mutable steps : Obs.Provenance.step list;
      (** the last [last_trace] result, returned again while the trace
          repeats, so routes whose import ran alike share one list *)
  mutable steps_point : int;  (** the trace [steps] was built from; -1 none *)
  mutable steps_gen : int;
  mutable steps_out : int array;  (** its [trace_out] prefix, [trace_len] long *)
  mutable steps_val : int64;
}

type summary = {
  prefix_blind : bool;
  peer_blind : bool;
  signature : string;
}

let no_chain = { prefix_blind = true; peer_blind = true; signature = "" }

type t = {
  host : string;
  extensions : (string, ext) Hashtbl.t;
  chains : attachment array array;
      (** indexed by [Api.point_index]; total over all points, so an
          unattached (or never-touched) point is an empty array and
          dispatch can never raise [Not_found] *)
  summaries : summary array;
      (** per point, what its chain allows; re-derived by [set_chain]
          whenever [chains] changes *)
  heap_size : int;
  budget : int;
  engine : Ebpf.Vm.engine;
  stats : stats;
  trace : trace;
  tele : Telemetry.t;
  fallbacks : Telemetry.Counter.t array;  (** indexed by [Api.point_index] *)
  mutable last_fault_record : fault option;
  mutable generation : int;
      (** bumped by [set_chain], so hosts caching decisions derived from
          the chains (update-group keys) can revalidate with one integer
          compare *)
  mutable map_writes : int;
      (** map updates and deletes attempted by bytecode, so hosts
          memoizing a run that reads maps can tell whether the state it
          read may have moved since *)
  mutable recorder : Obs.Recorder.t option;
      (** flight recorder for faults, native fallbacks and map
          evictions; [None] (the default) costs one load per event *)
}

let create ?(heap_size = 1 lsl 16) ?(budget = Ebpf.Vm.default_budget)
    ?(engine = Ebpf.Vm.Interpreted) ?telemetry ~host () =
  let tele =
    match telemetry with
    | Some t -> t
    | None -> Telemetry.create ~enabled:false ()
  in
  let fallbacks =
    Array.map
      (fun p ->
        Telemetry.counter tele
          ~help:"chains that ended in the host's native code"
          ~name:"xbgp_native_fallbacks_total"
          ~labels:[ ("host", host); ("point", Api.point_name p) ]
          ())
      (Array.of_list Api.all_points)
  in
  {
    host;
    extensions = Hashtbl.create 8;
    chains = Array.make Api.num_points [||];
    summaries = Array.make Api.num_points no_chain;
    heap_size;
    budget;
    engine;
    stats =
      { runs = 0; native_fallbacks = 0; faults = 0; next_calls = 0; insns = 0 };
    trace =
      {
        trace_point = -1;
        trace_gen = -1;
        trace_len = 0;
        trace_out = Array.make 8 0;
        trace_val = 0L;
        steps = [];
        steps_point = -1;
        steps_gen = -1;
        steps_out = [||];
        steps_val = 0L;
      };
    tele;
    fallbacks;
    last_fault_record = None;
    generation = 0;
    map_writes = 0;
    recorder = None;
  }

let stats t = t.stats
let generation t = t.generation
let map_writes t = t.map_writes
let telemetry t = t.tele
let last_fault_record t = t.last_fault_record
let last_fault t = Option.map render_fault t.last_fault_record
let set_recorder t r = t.recorder <- r
let recorder t = t.recorder

let emit_event t kind fields =
  match t.recorder with
  | None -> ()
  | Some r -> Obs.Recorder.record r kind fields

let u32_of v = Int64.to_int (Int64.logand v 0xFFFFFFFFL)

(* Helpers whose effect is confined to the run's return value, the
   ephemeral heap, or the shared route record (attribute edits are
   applied once and shared by the whole batch, exactly like the
   converted attribute view). Everything else — map writes, rib_add,
   write_buf, logging — makes the number of runs observable. *)
let batchable_helpers =
  [
    Api.h_next;
    Api.h_get_arg;
    Api.h_arg_len;
    Api.h_get_peer_info;
    Api.h_get_nexthop;
    Api.h_get_attr;
    Api.h_set_attr;
    Api.h_add_attr;
    Api.h_remove_attr;
    Api.h_get_xtra;
    Api.h_memalloc;
    Api.h_htonl;
    Api.h_htons;
    Api.h_map_lookup;
  ]

let add_new x seen = if List.mem x seen then seen else seen @ [ x ]

(* The distinct first arguments the calls of [ids] pass, in first-call
   order; [None] when any of those calls has an unresolved r1. *)
let first_args (sites : Ebpf.Verifier.facts) ids =
  List.fold_left
    (fun acc (c : Ebpf.Verifier.call_site) ->
      match (acc, c.r1) with
      | Some seen, Some v when List.mem c.helper ids ->
        Some (add_new (u32_of v) seen)
      | Some _, None when List.mem c.helper ids -> None
      | acc, _ -> acc)
    (Some []) sites

let derive (prog : Xprog.t) (sites : Ebpf.Verifier.facts) =
  let helpers =
    List.fold_left
      (fun seen (c : Ebpf.Verifier.call_site) -> add_new c.helper seen)
      [] sites
  in
  let map_writes = first_args sites [ Api.h_map_update; Api.h_map_delete ] in
  let map_names = List.map (fun s -> s.Ebpf.Map.name) prog.maps in
  {
    helpers;
    arg_reads = first_args sites [ Api.h_get_arg; Api.h_arg_len ];
    map_reads = first_args sites [ Api.h_map_lookup ];
    map_writes;
    (* persistent scratch makes the run count observable *)
    effectful =
      prog.scratch_size > 0
      || List.exists (fun h -> not (List.mem h batchable_helpers)) helpers;
    attrs_mutated =
      List.exists
        (fun h ->
          List.mem h [ Api.h_set_attr; Api.h_add_attr; Api.h_remove_attr ])
        helpers;
    maps_written =
      (match map_writes with
      | Some idxs -> List.filteri (fun i _ -> List.mem i idxs) map_names
      | None -> map_names (* unresolvable: any declared map *));
  }

(* Map access, which the verifier cannot judge: each spec is
   bounds-checked, a map helper call is rejected when the program
   declares no maps, or when its r1 is resolved and out of range. An
   unresolved index is left to the runtime check. *)
let map_errors (prog : Xprog.t) (sites : Ebpf.Verifier.facts) =
  let err slot fmt =
    Printf.ksprintf
      (fun message -> Some ({ slot; message } : Ebpf.Verifier.error))
      fmt
  in
  let nmaps = List.length prog.maps in
  let spec i spec =
    match Ebpf.Map.validate spec with
    | Ok () -> None
    | Error m -> err 0 "map %d: %s" i m
  in
  let site (c : Ebpf.Verifier.call_site) =
    let map_helpers = [ Api.h_map_lookup; Api.h_map_update; Api.h_map_delete ] in
    if not (List.mem c.helper map_helpers) then None
    else if nmaps = 0 then
      err c.slot "map helper %d called but the program declares no maps"
        c.helper
    else
      match Option.map u32_of c.r1 with
      | Some idx when idx >= nmaps ->
        err c.slot "map index %d out of range (program declares %d)" idx nmaps
      | _ -> None
  in
  List.filter_map Fun.id (List.mapi spec prog.maps @ List.map site sites)

let verify (prog : Xprog.t) =
  List.map
    (fun (name, code) ->
      ( name,
        match
          Ebpf.Verifier.check ?allowed_helpers:prog.allowed_helpers code
        with
        | Error es -> Error es
        | Ok sites -> (
          match map_errors prog sites with
          | [] -> Ok (derive prog sites)
          | es -> Error es) ))
    prog.bytecodes

(* [verify], reduced to the first rejected bytecode's rendering or every
   bytecode's facts *)
let verified (prog : Xprog.t) =
  let results = verify prog in
  match
    List.find_map
      (function name, Error es -> Some (name, es) | _, Ok _ -> None)
      results
  with
  | Some (name, es) ->
    Error
      (Fmt.str "verifier rejected %s/%s: %a" prog.name name
         Fmt.(list ~sep:semi Ebpf.Verifier.pp_error)
         es)
  | None -> Ok (List.map (fun (name, r) -> (name, Result.get_ok r)) results)

(** Register an xBGP program: verify every bytecode against the structural
    checks, the program's helper whitelist and its map declarations, then
    instantiate its persistent scratch. Maps are *not* created here — the
    VMM owns their lifecycle and brings them up at the first attach. *)
let register t (prog : Xprog.t) : (unit, string) result =
  if Hashtbl.mem t.extensions prog.name then
    Error (Printf.sprintf "program %S already registered" prog.name)
  else
    Result.map
      (fun facts ->
        Hashtbl.replace t.extensions prog.name
          {
            prog;
            facts;
            maps = None;
            scratch = Bytes.make prog.scratch_size '\x00';
          })
      (verified prog)

(* --- map lifecycle ---

   Maps come up when the program gains its first attachment and are torn
   down when it loses its last one (across *all* points — the bytecodes
   of one program share state, so the maps must survive as long as any
   of them can run). Contents do survive plain dispatches; only the
   attach/detach edges move state. *)

let map_probe t (ext : ext) (spec : Ebpf.Map.spec) : live_map =
  let labels =
    [ ("host", t.host); ("program", ext.prog.Xprog.name); ("map", spec.name) ]
  in
  let counter help name =
    Telemetry.counter t.tele ~help ~name ~labels ()
  in
  {
    map = Ebpf.Map.create spec;
    m_entries =
      Telemetry.gauge t.tele ~help:"live map entries" ~name:"xbgp_map_entries"
        ~labels ();
    m_hits = counter "map lookup hits" "xbgp_map_lookup_hits_total";
    m_misses = counter "map lookup misses" "xbgp_map_lookup_misses_total";
    m_updates = counter "map updates applied" "xbgp_map_updates_total";
    m_deletes = counter "map entries deleted" "xbgp_map_deletes_total";
    m_evictions = counter "LRU evictions" "xbgp_map_evictions_total";
    m_rejected =
      counter "inserts refused by a full map" "xbgp_map_rejected_inserts_total";
  }

let ensure_maps_live t (ext : ext) =
  match ext.maps with
  | Some _ -> ()
  | None ->
    ext.maps <- Some (Array.of_list (List.map (map_probe t ext) ext.prog.maps))

let destroy_maps (ext : ext) =
  (match ext.maps with
  | Some live -> Array.iter (fun lm -> Telemetry.Gauge.set lm.m_entries 0) live
  | None -> ());
  ext.maps <- None

(* --- bytecode execution --- *)

type exec_outcome = Value of int64 | Deferred | Faulted of string

let blob_of_bytes payload =
  let b = Bytes.create (Api.blob_header_size + Bytes.length payload) in
  Bytes.set_int32_le b 0 (Int32.of_int (Bytes.length payload));
  Bytes.blit payload 0 b Api.blob_header_size (Bytes.length payload);
  b

(* Wrap one helper with its call counter (always on, always exact) and,
   on the sampled ticks of an enabled registry, a latency histogram (the
   two clock reads are the expensive part). Handles are interned per
   (helper, host), so every attachment of the same VMM shares them. *)
let instrument_helper t (id, f) =
  let labels = [ ("helper", Api.helper_name id); ("host", t.host) ] in
  let calls =
    Telemetry.counter t.tele ~help:"helper invocations"
      ~name:"xbgp_helper_calls_total" ~labels ()
  in
  let lat =
    Telemetry.histogram t.tele ~help:"helper latency in nanoseconds"
      ~name:"xbgp_helper_ns" ~labels ()
  in
  ( id,
    fun vm a ->
      Telemetry.Counter.inc calls;
      if Telemetry.sample t.tele then begin
        let t0 = Telemetry.now_ns t.tele in
        let r = f vm a in
        Telemetry.Histogram.observe lat (Telemetry.now_ns t.tele - t0);
        r
      end
      else f vm a )

(* The per-attachment VM, heap and helper bindings. Helpers read the
   current operation's context through the runtime's mutable [ops]/[args]
   fields. The ephemeral heap is reclaimed wholesale after each run by
   resetting [heap_pos]; its *contents* are not scrubbed, which is safe
   because the region starts zeroed and belongs to one attachment of one
   program (its own earlier writes are all it can ever see). *)
let make_runtime t (ext : ext) (code : Ebpf.Insn.t list) : runtime =
  let mem = Ebpf.Memory.create () in
  let heap =
    Ebpf.Memory.add_region mem ~name:"heap" ~base:Api.heap_base ~writable:true
      (Bytes.make t.heap_size '\x00')
  in
  if Bytes.length ext.scratch > 0 then
    ignore
      (Ebpf.Memory.add_region mem ~name:"scratch" ~base:Api.scratch_base
         ~writable:true ext.scratch);
  (* Map-helper slots bind their live [Ebpf.Map] instances here, once:
     runtimes are only ever built for a program whose maps are already
     up ([attach] and [replace_program] call [ensure_maps_live] first),
     and a runtime dies with its attachment while the maps outlive it —
     so the per-call [ext.maps] match of earlier revisions bought
     nothing. A program with no maps binds the empty array. *)
  let live_maps = Option.value ext.maps ~default:[||] in
  let rec rt =
    lazy
      {
        vm =
          Ebpf.Vm.create ~budget:t.budget ~engine:t.engine ~mem
            ~helpers:(List.map (instrument_helper t) helpers)
            code;
        heap;
        heap_pos = 0;
        ops = Host_intf.null_ops;
        args = Host_intf.Args.empty;
      }
  and alloc_raw size =
    let r = Lazy.force rt in
    let aligned = (size + 7) land lnot 7 in
    if r.heap_pos + aligned > t.heap_size then
      raise (Ebpf.Vm.Error "extension heap exhausted");
    let addr = Int64.add Api.heap_base (Int64.of_int r.heap_pos) in
    r.heap_pos <- r.heap_pos + aligned;
    addr
  and alloc_bytes payload =
    let addr = alloc_raw (Bytes.length payload) in
    Ebpf.Memory.write_bytes mem addr payload;
    addr
  and ops () = (Lazy.force rt).ops
  and args () = (Lazy.force rt).args
  and read_mem vm addr len =
    Ebpf.Memory.read_bytes (Ebpf.Vm.memory vm) addr len
  and live_map idx =
    if idx < 0 || idx >= Array.length live_maps then
      raise (Ebpf.Vm.Error (Printf.sprintf "no map %d" idx))
    else live_maps.(idx)
  and helpers =
    [
      (Api.h_next, fun _ _ -> raise Next);
      ( Api.h_get_arg,
        fun _ a ->
          match Host_intf.Args.find (args ()) (u32_of a.(0)) with
          | Some payload -> alloc_bytes (blob_of_bytes payload)
          | None -> 0L );
      ( Api.h_arg_len,
        fun _ a ->
          match Host_intf.Args.find (args ()) (u32_of a.(0)) with
          | Some payload -> Int64.of_int (Bytes.length payload)
          | None -> -1L );
      ( Api.h_get_peer_info,
        fun _ _ ->
          match (ops ()).peer_info () with
          | Some pi -> alloc_bytes (Host_intf.peer_info_to_bytes pi)
          | None -> 0L );
      ( Api.h_get_nexthop,
        fun _ _ ->
          match (ops ()).nexthop () with
          | Some nh -> alloc_bytes (Host_intf.nexthop_to_bytes nh)
          | None -> 0L );
      ( Api.h_get_attr,
        fun _ a ->
          match (ops ()).get_attr (u32_of a.(0)) with
          | Some tlv -> alloc_bytes tlv
          | None -> 0L );
      ( Api.h_set_attr,
        fun vm a ->
          let header = read_mem vm a.(0) 4 in
          let len = Bytes.get_uint16_be header 2 in
          let tlv = read_mem vm a.(0) (4 + len) in
          if (ops ()).set_attr tlv then 0L else -1L );
      ( Api.h_add_attr,
        fun vm a ->
          let code = u32_of a.(0) land 0xff in
          let flags = u32_of a.(1) land 0xff in
          let len = u32_of a.(2) in
          if len > 0xffff then raise (Ebpf.Vm.Error "add_attr: length");
          let payload = read_mem vm a.(3) len in
          let tlv = Bytes.create (4 + len) in
          Bytes.set_uint8 tlv 0 flags;
          Bytes.set_uint8 tlv 1 code;
          Bytes.set_uint16_be tlv 2 len;
          Bytes.blit payload 0 tlv 4 len;
          if (ops ()).set_attr tlv then 0L else -1L );
      ( Api.h_remove_attr,
        fun _ a -> if (ops ()).remove_attr (u32_of a.(0)) then 0L else -1L );
      ( Api.h_get_xtra,
        fun vm a ->
          let key = Ebpf.Memory.read_cstring (Ebpf.Vm.memory vm) a.(0) in
          match (ops ()).get_xtra key with
          | Some payload -> alloc_bytes (blob_of_bytes payload)
          | None -> 0L );
      ( Api.h_write_buf,
        fun vm a ->
          let len = u32_of a.(1) in
          let data = read_mem vm a.(0) len in
          if (ops ()).write_buf data then Int64.of_int len else -1L );
      ( Api.h_memalloc,
        fun _ a ->
          let size = u32_of a.(0) in
          if size <= 0 then 0L else alloc_raw size );
      ( Api.h_print,
        fun vm a ->
          (ops ()).log (Ebpf.Memory.read_cstring (Ebpf.Vm.memory vm) a.(0));
          0L );
      (Api.h_htonl, fun _ a -> Int64.logand (Ebpf.Vm.bswap32 a.(0)) 0xFFFFFFFFL);
      (Api.h_htons, fun _ a -> Ebpf.Vm.bswap16 a.(0));
      (* Map helpers copy the key/value out of VM memory (immutable
         strings — a stored entry can never alias bytecode-visible
         memory) and a looked-up value into freshly allocated ephemeral
         heap, so the blob dies with the run while the entry lives with
         the map. Lookup returns the RAW value bytes, no blob header. *)
      ( Api.h_map_lookup,
        fun vm a ->
          let lm = live_map (u32_of a.(0)) in
          let ks = (Ebpf.Map.spec lm.map).Ebpf.Map.key_size in
          let key = Bytes.to_string (read_mem vm a.(1) ks) in
          match Ebpf.Map.lookup lm.map key with
          | Some value ->
            Telemetry.Counter.inc lm.m_hits;
            alloc_bytes (Bytes.of_string value)
          | None ->
            Telemetry.Counter.inc lm.m_misses;
            0L );
      ( Api.h_map_update,
        fun vm a ->
          let lm = live_map (u32_of a.(0)) in
          let spec = Ebpf.Map.spec lm.map in
          let key =
            Bytes.to_string (read_mem vm a.(1) spec.Ebpf.Map.key_size)
          in
          let value =
            Bytes.to_string (read_mem vm a.(2) spec.Ebpf.Map.value_size)
          in
          t.map_writes <- t.map_writes + 1;
          let s = Ebpf.Map.stats lm.map in
          let ev0 = s.Ebpf.Map.evictions and rej0 = s.Ebpf.Map.rejected in
          let ok = Ebpf.Map.update lm.map key value in
          let evicted = s.Ebpf.Map.evictions - ev0
          and rejected = s.Ebpf.Map.rejected - rej0 in
          let map_event kind counter n =
            Telemetry.Counter.add counter n;
            emit_event t kind
              [
                ("host", t.host);
                ("program", ext.prog.Xprog.name);
                ("map", spec.Ebpf.Map.name);
                ("n", string_of_int n);
              ]
          in
          if evicted > 0 then
            map_event Obs.Recorder.Map_evict lm.m_evictions evicted;
          (* a reached bound is never silent: bytecode often ignores the
             helper's error return (stock origin_validation's ROA load
             does), so the refusal is counted and recorded here *)
          if rejected > 0 then
            map_event Obs.Recorder.Map_full lm.m_rejected rejected;
          if ok then begin
            Telemetry.Counter.inc lm.m_updates;
            Telemetry.Gauge.set lm.m_entries (Ebpf.Map.length lm.map);
            0L
          end
          else -1L );
      ( Api.h_map_delete,
        fun vm a ->
          let lm = live_map (u32_of a.(0)) in
          let ks = (Ebpf.Map.spec lm.map).Ebpf.Map.key_size in
          let key = Bytes.to_string (read_mem vm a.(1) ks) in
          t.map_writes <- t.map_writes + 1;
          if Ebpf.Map.delete lm.map key then begin
            Telemetry.Counter.inc lm.m_deletes;
            Telemetry.Gauge.set lm.m_entries (Ebpf.Map.length lm.map);
            0L
          end
          else -1L );
      ( Api.h_rib_add,
        fun _ a ->
          if
            (ops ()).rib_add ~addr:(u32_of a.(0)) ~len:(u32_of a.(1))
              ~nexthop:(u32_of a.(2))
          then 0L
          else -1L );
      ( Api.h_log_int,
        fun vm a ->
          let label = Ebpf.Memory.read_cstring (Ebpf.Vm.memory vm) a.(0) in
          (ops ()).log (Printf.sprintf "%s=%Ld" label a.(1));
          0L );
    ]
  in
  Lazy.force rt

let outcome_name = function
  | Value _ -> "value"
  | Deferred -> "next"
  | Faulted _ -> "fault"

let exec_one t att ~(ops : Host_intf.ops) ~(args : Host_intf.Args.t) :
    exec_outcome =
  let rt = att.rt in
  let st = t.stats in
  rt.ops <- ops;
  rt.args <- args;
  rt.heap_pos <- 0;
  Ebpf.Vm.set_budget rt.vm t.budget;
  st.runs <- st.runs + 1;
  Telemetry.Counter.inc att.probe.p_runs;
  let enabled = Telemetry.enabled t.tele in
  (* [span_begin] applies the registry's 1-in-N sampling; a dummy span
     (id 0) means this run pays for neither clock reads nor the end-tag
     allocation. Counters and the instruction histogram stay exact. *)
  let span = Telemetry.span_begin t.tele ~tags:att.probe.span_tags "xbgp.run" in
  let sampled = span.Telemetry.Span.id <> 0 in
  let before = Ebpf.Vm.executed rt.vm in
  let t0_ns = if sampled then Telemetry.now_ns t.tele else 0 in
  let outcome =
    try Value (Ebpf.Vm.run rt.vm) with
    | Next ->
      st.next_calls <- st.next_calls + 1;
      Telemetry.Counter.inc att.probe.p_next;
      Deferred
    | Ebpf.Vm.Error msg | Ebpf.Memory.Fault msg -> Faulted msg
  in
  (* [Ebpf.Vm.executed] is cumulative over the reused VM's lifetime; the
     per-run figure is the delta *)
  let insns = Ebpf.Vm.executed rt.vm - before in
  st.insns <- st.insns + insns;
  if enabled then begin
    Telemetry.Histogram.observe att.probe.p_insns insns;
    Telemetry.Gauge.set att.probe.p_heap rt.heap_pos
  end;
  if sampled then begin
    Telemetry.Histogram.observe att.probe.p_ns
      (Telemetry.now_ns t.tele - t0_ns);
    Telemetry.span_end t.tele span
      ~tags:
        [
          ("outcome", outcome_name outcome);
          ("insns", string_of_int insns);
          ("budget_left", string_of_int (Ebpf.Vm.budget rt.vm));
          ("heap", string_of_int rt.heap_pos);
        ]
  end;
  rt.ops <- Host_intf.null_ops;
  rt.args <- Host_intf.Args.empty;
  outcome

(* Capture the structured fault record and bump the labeled fault
   counter. The disassembly is best effort: exact for the interpreter,
   the faulting block's leader for [Block]. *)
let record_fault t att point ~init msg =
  let vm = att.rt.vm in
  let pc = Ebpf.Vm.fault_pc vm in
  let insn =
    Option.bind pc (fun pc ->
        Option.map Ebpf.Disasm.insn_to_string (Ebpf.Vm.insn_at vm pc))
  in
  let f =
    {
      fault_host = t.host;
      fault_point = point;
      fault_program = att.ext.prog.name;
      fault_bytecode = att.bc_name;
      fault_engine = Ebpf.Vm.engine vm;
      fault_pc = pc;
      fault_insn = insn;
      fault_msg = msg;
      fault_init = init;
    }
  in
  t.last_fault_record <- Some f;
  Telemetry.Counter.inc
    (Telemetry.counter t.tele ~help:"bytecode faults"
       ~name:"xbgp_faults_total"
       ~labels:
         (att.probe.span_tags @ [ ("insn", Option.value ~default:"-" insn) ])
       ());
  emit_event t Obs.Recorder.Xprog_fault
    [
      ("host", t.host);
      ("point", Api.point_name point);
      ("program", att.ext.prog.name);
      ("bytecode", att.bc_name);
      ("msg", msg);
    ];
  f

let make_probe t (ext : ext) ~bytecode ~point =
  let labels =
    [
      ("host", t.host);
      ("point", Api.point_name point);
      ("program", ext.prog.name);
      ("bytecode", bytecode);
      ("engine", Ebpf.Vm.engine_name t.engine);
    ]
  in
  {
    span_tags = labels;
    p_runs =
      Telemetry.counter t.tele ~help:"bytecode executions started"
        ~name:"xbgp_runs_total" ~labels ();
    p_next =
      Telemetry.counter t.tele ~help:"next() deferrals"
        ~name:"xbgp_next_total" ~labels ();
    p_insns =
      Telemetry.histogram t.tele ~help:"instructions retired per run"
        ~name:"xbgp_run_insns" ~labels ();
    p_ns =
      Telemetry.histogram t.tele ~help:"wall time per run in nanoseconds"
        ~name:"xbgp_run_ns" ~labels ();
    p_heap =
      Telemetry.gauge t.tele
        ~help:"ephemeral-heap bytes used by the last run (max = high water)"
        ~name:"xbgp_heap_bytes" ~labels ();
  }

(* Whether [att] provably computes the same result for every prefix of
   an UPDATE: no effectful helpers or persistent scratch, every argument
   read statically resolved to an id other than the prefix, and no map
   access that makes the run count observable — writes are out entirely
   (they are also [effectful]), and every lookup must statically resolve
   to a non-LRU map, because an LRU lookup refreshes recency and thereby
   changes later eviction order. *)
let prefix_blind att =
  (not att.facts.effectful)
  && att.facts.map_writes = Some []
  && (match att.facts.map_reads with
     | None -> false
     | Some idxs ->
       List.for_all
         (fun i ->
           match List.nth_opt att.ext.prog.Xprog.maps i with
           | Some spec -> spec.Ebpf.Map.kind <> Ebpf.Map.Lru
           | None -> false)
         idxs)
  &&
  match att.facts.arg_reads with
  | None -> false
  | Some reads -> not (List.mem Api.arg_prefix reads)

(* Whether [att] provably behaves the same towards every peer: the chain
   is global (all peers run the same bytecodes), so the only ways a run
   can depend on — or reveal — the peer are reading peer state
   ([h_get_peer_info]) and per-call observable effects (maps, logs,
   rib_add, persistent scratch: one run per group instead of one per
   peer changes what they see). Route edits and the ephemeral heap are
   fine — the exported route is shared by the whole group, exactly like
   an NLRI batch shares them. [h_write_buf] is per-call observable too,
   but at the encode point ([write_buf]) one buffer per group is
   precisely the intended semantics.

   Map access of ANY kind — including lookups — rules grouping out: a
   per-peer-keyed map read necessarily depends on which peer is asking
   (the whole point of the key), and even a peer-blind LRU lookup
   refreshes recency, so one run per group would leave different state
   than one per peer. *)
let peer_blind ~write_buf att =
  att.ext.prog.Xprog.scratch_size = 0
  && List.for_all
       (fun id ->
         (write_buf && id = Api.h_write_buf)
         || id <> Api.h_get_peer_info
            && id <> Api.h_map_lookup
            && List.mem id batchable_helpers)
       att.facts.helpers

(* The one place a chain changes: install [atts] at [point] in execution
   order (so [run] reads a ready-sorted flat array, with no per-dispatch
   sorting or consing), re-derive the point's summary and bump
   [generation]. An empty chain is vacuously prefix- and peer-blind. *)
let set_chain t point atts =
  let idx = Api.point_index point in
  let chain = List.sort (fun a b -> Int.compare a.order b.order) atts in
  t.chains.(idx) <- Array.of_list chain;
  t.summaries.(idx) <-
    {
      prefix_blind = List.for_all prefix_blind chain;
      peer_blind =
        List.for_all
          (peer_blind ~write_buf:(point = Api.Bgp_encode_message))
          chain;
      signature =
        String.concat ";"
          (List.map
             (fun att ->
               Printf.sprintf "%s/%s@%d" att.ext.prog.Xprog.name att.bc_name
                 att.order)
             chain);
    };
  t.generation <- t.generation + 1

let summary t point = t.summaries.(Api.point_index point)

(** Attach one bytecode of a registered program to an insertion point;
    [order] positions it in the point's execution queue (§2.1: "the
    manifest defines in which order they are executed"). *)
let attach t ~program ~bytecode ~point ~order : (unit, string) result =
  match Hashtbl.find_opt t.extensions program with
  | None -> Error (Printf.sprintf "program %S not registered" program)
  | Some ext -> (
    match Xprog.bytecode ext.prog bytecode with
    | None ->
      Error (Printf.sprintf "program %S has no bytecode %S" program bytecode)
    | Some code ->
      (* maps come up with the program's first attachment *)
      ensure_maps_live t ext;
      let att =
        {
          ext;
          bc_name = bytecode;
          order;
          rt = make_runtime t ext code;
          probe = make_probe t ext ~bytecode ~point;
          facts = List.assoc bytecode ext.facts;
        }
      in
      set_chain t point
        (att :: Array.to_list t.chains.(Api.point_index point));
      Ok ())

let detach t ~program ~point =
  set_chain t point
    (List.filter
       (fun a -> a.ext.prog.name <> program)
       (Array.to_list t.chains.(Api.point_index point)));
  (* maps die with the program's last attachment — across all points,
     because every bytecode of the program shares them *)
  let still_attached =
    Array.exists
      (fun chain ->
        Array.exists (fun a -> a.ext.prog.name = program) chain)
      t.chains
  in
  if not still_attached then
    Option.iter destroy_maps (Hashtbl.find_opt t.extensions program)

(* [Api.point_index] maps to [all_points] order, so the inverse is an
   array index. *)
let point_of_index =
  let arr = Array.of_list Api.all_points in
  fun i -> arr.(i)

(** Hot-swap a registered program with a new version — the rekey path.
    Attachments and their orders survive: every point where the program
    is attached gets fresh runtimes built from the new bytecodes, and
    [set_chain] re-derives its summary and bumps the generation, which
    invalidates everything cached off the chains (update-group keys), so
    the very next dispatch runs the new code — there is no detached
    window in which dispatches would fall back to native. The new
    version must pass the same verification as [register] and must
    still carry every bytecode name currently attached. Persistent
    scratch survives when its size is unchanged; map instances (and
    their contents) survive when the map specs are unchanged, otherwise
    they are torn down and recreated. *)
let replace_program t (prog : Xprog.t) : (unit, string) result =
  match Hashtbl.find_opt t.extensions prog.name with
  | None -> Error (Printf.sprintf "program %S not registered" prog.name)
  | Some old -> (
    let missing = ref [] in
    Array.iter
      (fun chain ->
        Array.iter
          (fun att ->
            if
              att.ext.prog.Xprog.name = prog.name
              && Xprog.bytecode prog att.bc_name = None
            then missing := att.bc_name :: !missing)
          chain)
      t.chains;
    match !missing with
    | bc :: _ ->
      Error
        (Printf.sprintf
           "replace %S: attached bytecode %S missing from the new version"
           prog.name bc)
    | [] -> (
      match verified prog with
      | Error e -> Error e
      | Ok facts ->
        let scratch =
          if prog.scratch_size = Bytes.length old.scratch then old.scratch
          else Bytes.make prog.scratch_size '\x00'
        in
        let keep_maps = prog.maps = old.prog.Xprog.maps in
        if not keep_maps then destroy_maps old;
        let ext =
          {
            prog;
            facts;
            maps = (if keep_maps then old.maps else None);
            scratch;
          }
        in
        Hashtbl.replace t.extensions prog.name ext;
        let holds chain =
          Array.exists (fun a -> a.ext.prog.Xprog.name = prog.name) chain
        in
        if Array.exists holds t.chains then ensure_maps_live t ext;
        Array.iteri
          (fun idx chain ->
            if holds chain then begin
              let point = point_of_index idx in
              set_chain t point
                (List.map
                   (fun att ->
                     if att.ext.prog.Xprog.name <> prog.name then att
                     else
                       {
                         ext;
                         bc_name = att.bc_name;
                         order = att.order;
                         rt =
                           make_runtime t ext
                             (Option.get (Xprog.bytecode prog att.bc_name));
                         probe = make_probe t ext ~bytecode:att.bc_name ~point;
                         facts = List.assoc att.bc_name facts;
                       })
                   (Array.to_list chain))
            end)
          t.chains;
        Ok ()))

let attachments t point =
  List.map
    (fun a -> (a.ext.prog.name, a.bc_name, a.order))
    (Array.to_list t.chains.(Api.point_index point))

let has_attachment t point =
  Array.length t.chains.(Api.point_index point) > 0

let registered t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.extensions []

(** Execute the bytecode chain attached to [point].

    [args] are the insertion-point arguments exposed through [get_arg]
    (ids from [Api]); [default] is the host's native implementation of the
    operation, used when nothing is attached, when the last bytecode calls
    [next()], or when a bytecode faults. *)
let run t point ~(ops : Host_intf.ops)
    ~(args : Host_intf.Args.t) ~(default : unit -> int64) : int64 =
  let idx = Api.point_index point in
  let chain = t.chains.(idx) in
  let n = Array.length chain in
  if n = 0 then default ()
    (* the common case — no extension attached — costs one array load
       and a length test, with nothing allocated *)
  else begin
    let st = t.stats in
    let tr = t.trace in
    (* arm the last-dispatch trace (two stores per bytecode, no
       allocation; [last_trace] rebuilds the structured view on demand) *)
    if Array.length tr.trace_out < n then tr.trace_out <- Array.make n 0;
    tr.trace_point <- idx;
    tr.trace_gen <- t.generation;
    tr.trace_len <- 0;
    let i = ref 0 and decided = ref false and result = ref 0L in
    while (not !decided) && !i < n do
      let att = chain.(!i) in
      match exec_one t att ~ops ~args with
      | Value v ->
        result := v;
        decided := true;
        tr.trace_out.(!i) <- 0;
        tr.trace_val <- v;
        tr.trace_len <- !i + 1
      | Deferred ->
        tr.trace_out.(!i) <- 1;
        tr.trace_len <- !i + 1;
        incr i
      | Faulted msg ->
        st.faults <- st.faults + 1;
        let err =
          render_fault (record_fault t att point ~init:false msg)
        in
        Log.warn (fun m -> m "%s" err);
        ops.log err;
        tr.trace_out.(!i) <- 2;
        tr.trace_len <- !i + 1;
        (* a fault abandons the rest of the chain and falls back *)
        i := n
    done;
    if !decided then !result
    else begin
      st.native_fallbacks <- st.native_fallbacks + 1;
      Telemetry.Counter.inc t.fallbacks.(idx);
      emit_event t Obs.Recorder.Native_fallback
        [ ("host", t.host); ("point", Api.point_name point) ];
      default ()
    end
  end

(** Run every bytecode attached to [Bgp_init] once (manifest load time).
    Faults are logged; initialization continues with the next bytecode. *)
let run_init t ~ops =
  Array.iter
    (fun att ->
      match exec_one t att ~ops ~args:Host_intf.Args.empty with
      | Value _ | Deferred -> ()
      | Faulted msg ->
        t.stats.faults <- t.stats.faults + 1;
        let err =
          render_fault (record_fault t att Api.Bgp_init ~init:true msg)
        in
        ops.log err)
    t.chains.(Api.point_index Api.Bgp_init)

(* --- introspection used by tests and the CLI --- *)

(* Render the r0 of the deciding bytecode in the point's return
   convention — provenance wants "accept", not "ret=0". *)
let outcome_value_name point v =
  match point with
  | Api.Bgp_inbound_filter | Api.Bgp_outbound_filter ->
    if v = Api.filter_accept then "accept"
    else if v = Api.filter_reject then "reject"
    else Printf.sprintf "ret=%Ld" v
  | Api.Bgp_decision ->
    if v = Api.decision_tie then "tie"
    else if v = Api.decision_first then "first"
    else if v = Api.decision_second then "second"
    else Printf.sprintf "ret=%Ld" v
  | _ -> Printf.sprintf "ret=%Ld" v

(* The last dispatch at [point] as provenance steps: one per bytecode
   that actually ran, in execution order, static facts (may it mutate
   attributes? which maps can it write?) from the bytecode's facts
   derived at registration and the dynamic verdict from the trace [run]
   just captured.
   [None] when the last traced dispatch was at a different point or the
   chains changed since — callers must read it before dispatching
   anything else (a nested import -> rib_add -> export overwrites it). *)
let last_trace t point : Obs.Provenance.step list option =
  let idx = Api.point_index point in
  let tr = t.trace in
  if tr.trace_point <> idx || tr.trace_gen <> t.generation then None
  else begin
    let chain = t.chains.(idx) in
    let n = min tr.trace_len (Array.length chain) in
    let rec same i =
      i >= n || (tr.steps_out.(i) = tr.trace_out.(i) && same (i + 1))
    in
    if
      tr.steps_point = idx
      && tr.steps_gen = t.generation
      && Array.length tr.steps_out = n
      && Int64.equal tr.steps_val tr.trace_val
      && same 0
    then Some tr.steps
    else begin
      let steps = ref [] in
      for i = n - 1 downto 0 do
        let att = chain.(i) in
        let outcome =
          match tr.trace_out.(i) with
          | 0 -> outcome_value_name point tr.trace_val
          | 1 -> "next()"
          | _ -> "fault"
        in
        steps :=
          {
            Obs.Provenance.program = att.ext.prog.name;
            bytecode = att.bc_name;
            engine = Ebpf.Vm.engine_name t.engine;
            outcome;
            attrs_mutated = att.facts.attrs_mutated;
            maps_written = att.facts.maps_written;
          }
          :: !steps
      done;
      tr.steps <- !steps;
      tr.steps_point <- idx;
      tr.steps_gen <- t.generation;
      tr.steps_out <- Array.sub tr.trace_out 0 n;
      tr.steps_val <- tr.trace_val;
      Some !steps
    end
  end

let map_size t ~program idx =
  match Hashtbl.find_opt t.extensions program with
  | Some ext when idx >= 0 && idx < List.length ext.prog.Xprog.maps -> (
    match ext.maps with
    | Some live -> Some (Ebpf.Map.length live.(idx).map)
    | None -> Some 0 (* declared but not live: registered, unattached *))
  | _ -> None

let map_stats t ~program idx =
  match Hashtbl.find_opt t.extensions program with
  | Some { maps = Some live; _ } when idx >= 0 && idx < Array.length live ->
    Some (Ebpf.Map.stats live.(idx).map)
  | _ -> None

(* [(map name, canonical dump)] per declared map, in declaration order. *)
let live_dumps prog live =
  List.mapi
    (fun idx (s : Ebpf.Map.spec) ->
      (s.Ebpf.Map.name, Ebpf.Map.dump live.(idx).map))
    prog.Xprog.maps

(* Canonical dumps for the fuzz oracles: every live map of [program] (in
   declaration order) with its entries sorted by key bytes. *)
let map_dump t ~program =
  match Hashtbl.find_opt t.extensions program with
  | Some { maps = Some live; prog; _ } -> Some (live_dumps prog live)
  | _ -> None

(* The whole VMM's live map state, sorted by program name — the
   cross-leg comparison unit of the map-state oracle. Programs with no
   live maps are omitted, so a VMM that never attached a stateful
   program compares equal to one that attached and fully detached it. *)
let map_state t =
  Hashtbl.fold
    (fun name ext acc ->
      match ext.maps with
      | Some live when Array.length live > 0 ->
        (name, live_dumps ext.prog live) :: acc
      | _ -> acc)
    t.extensions []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let scratch t ~program =
  Option.map (fun e -> e.scratch) (Hashtbl.find_opt t.extensions program)
