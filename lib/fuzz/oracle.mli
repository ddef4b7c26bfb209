(** The differential oracle: runs one generated case and reports every
    way the two hosts (or the two eBPF execution engines — interpreter
    and block-compiled) disagreed about xBGP-visible state, plus every
    exception that escaped a layer that promises not to raise.

    For VM scenarios the block engine is compared against the
    interpreter baseline: return value, final register file and the
    helper-call trace on success; fault-vs-value and the trace on
    faults; plus a full VMM round trip per engine whose result,
    fault/fallback counters and final map state must agree. The
    interpreter's helper trace must also agree with the verifier's
    call-site facts: every traced call is a call site, and where every
    site of that helper resolves r1, the traced r1 is one of them.

    An empty finding list is the verdict "equivalent and crash-free". *)

type kind =
  | Divergence  (** the hosts / engines disagreed on visible state *)
  | Crash  (** an exception escaped the VM, VMM, verifier or a daemon *)

type finding = { kind : kind; detail : string }

val kind_name : kind -> string
val pp_finding : Format.formatter -> finding -> unit

val run : ?perturb:bool -> Gen.case -> finding list
(** Execute the case's scenario. [perturb] artificially corrupts the
    BIRD-side snapshot (or, for VM scenarios, the block-compiled
    engine's result) — the knob used to prove the oracle/shrink/replay
    pipeline fires end to end. *)

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
    naming the sides [l0] and [l1] ("frr"/"bird" for the host
    differential, knob legs for the chaos campaign). *)

val render_map_state :
  (string * (string * (string * string) list) list) list -> string
(** Canonical textual fingerprint of [Vmm.map_state]: keys and values
    hex-encoded, entries in the map's canonical (sorted) dump order —
    the unit of comparison for the map-state oracle, shared with the
    chaos harness. *)
