(** The oracle's vocabulary and its per-input checks: the campaign's one
    finding type, the snapshot comparator every leg comparison uses, and
    the VM check run on each generated program.

    The VM check compares the block engine against the interpreter
    baseline: return value, final register file and the helper-call
    trace on success; fault-vs-value and the trace on faults; plus a
    full VMM round trip per engine whose result, fault/fallback counters
    and final map state must agree. The interpreter's helper trace must
    also agree with the verifier's call-site facts: every traced call is
    a call site, and where every site of that helper resolves r1, the
    traced r1 is one of them. *)

type cls = Convergence | Equivalence | Telemetry_oracle | Crash
(** Divergence classes; shrinking preserves the class, not just "some
    finding". [Equivalence] covers legs, hosts and engines disagreeing;
    [Crash] an exception escaping a layer that promises not to raise. *)

type finding = { cls : cls; detail : string }

val cls_name : cls -> string
val cls_of_name : string -> cls option
val pp_finding : Format.formatter -> finding -> unit

val finding : cls -> ('a, Format.formatter, unit, finding) format4 -> 'a
(** [finding cls fmt ...] builds a finding from a format string. *)

val classes_of : finding list -> cls list
(** Distinct classes present, sorted. *)

val normalize :
  (Bgp.Prefix.t * Bgp.Attr.t list) list ->
  (Bgp.Prefix.t * Bgp.Attr.t list) list
(** Drop Unknown attributes and sort each attribute list canonically —
    the neutral form compared across hosts (exposed for tests). *)

val diff_snapshots :
  what:string ->
  l0:string ->
  l1:string ->
  (Bgp.Prefix.t * Bgp.Attr.t list) list ->
  (Bgp.Prefix.t * Bgp.Attr.t list) list ->
  string option
(** First difference between two normalized, prefix-sorted snapshots,
    naming the sides [l0] and [l1] (knob legs, or export modes in
    tests). *)

val render_map_state :
  (string * (string * (string * string) list) list) list -> string
(** Canonical textual fingerprint of [Vmm.map_state]: keys and values
    hex-encoded, entries in the map's canonical (sorted) dump order —
    the unit of comparison for the map-state oracle. *)

val check_prog : perturb:bool -> int -> Ebpf.Insn.t list -> finding list
(** [check_prog ~perturb i prog] runs the VM check on program [i] of a
    case. A verifier rejection is a pass. [perturb] adds one to the block
    engine's return value — the self-test knob proving the engine
    oracle fires. *)
