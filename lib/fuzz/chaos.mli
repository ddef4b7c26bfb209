(** The config-space chaos campaign: run each {!Config_gen} case — same
    topology, route feed and fault schedule — once per knob-grid leg,
    and demand per-phase convergence, route-for-route equivalence across
    the grid, and telemetry invariants (monotone counters, no leaked
    in-flight pipe bytes, update groups re-merged after churn). *)

type cls = Convergence | Equivalence | Telemetry_oracle | Crash
(** Divergence classes; shrinking preserves the class, not just "some
    finding". *)

type finding = { cls : cls; detail : string }

val cls_name : cls -> string
val cls_of_name : string -> cls option
val pp_finding : Format.formatter -> finding -> unit
val classes_of : finding list -> cls list
(** Distinct classes present, sorted. *)

type phase = {
  label : string;
  dur_us : int;  (** simulated time from phase start to quiescence *)
  locs : (string * (Bgp.Prefix.t * Bgp.Attr.t list) list) list;
  ribs : (Bgp.Prefix.t * Bgp.Attr.t list) list array;
  reach : bool list;
  maps : string;
      (** star: DUT VMM map-state fingerprint ([Oracle.render_map_state]);
          compared leg-against-leg like the routing snapshots *)
  frames : string list array;
      (** star: each sink's raw UPDATE frames so far, oldest first;
          compared byte for byte between legs that agree on host and
          batching *)
}

type leg = {
  knobs : Config_gen.knobs;
  phases : phase list;  (** oldest first *)
  leg_findings : finding list;
  tail : string list;
      (** flight-recorder tail of the leg — attached to failing reports
          as context, never compared between legs *)
}

val phase_budget_us : int
(** Simulated-time convergence budget per phase (60 s). *)

val run_leg : Config_gen.case -> Config_gen.knobs -> leg
(** Run one case under one knob leg. *)

val run_case :
  ?perturb:bool ->
  Config_gen.case ->
  finding list * (string * int) list
(** Run every leg of the case's grid and compare legs 1.. against leg 0.
    Returns all findings plus leg 0's per-phase [(label, simulated us)]
    convergence samples. [perturb] corrupts leg 0's final snapshot (a
    route, the map fingerprint, one UPDATE frame) — the self-test knob
    proving the oracle and shrink/replay pipeline fire. *)

val shrink_case :
  perturb:bool ->
  Config_gen.case ->
  classes:cls list ->
  Config_gen.case * int list * int list
(** Jointly ddmin the fault schedule and route table
    ({!Shrink.minimize_multi}) while at least one finding of a class in
    [classes] survives. Returns (minimized case, kept fault indices,
    kept route indices). *)

type failure = {
  case : Config_gen.case;  (** minimized *)
  findings : finding list;  (** findings of the minimized case *)
  classes : cls list;  (** divergence classes of the ORIGINAL case *)
  repro : Replay.Chaos.t;
  repro_path : string option;  (** written when the campaign got [out] *)
}

type summary = {
  cases : int;
  topologies : (string * int) list;  (** histogram, generation order *)
  failures : failure list;
  convergence : (string * int) list;
      (** every case's leg-0 [(phase label, simulated us)] samples — the
          raw material for [bench chaos]'s distributions *)
}

val campaign :
  ?out:string ->
  ?perturb:bool ->
  ?log:(string -> unit) ->
  seed:int ->
  cases:int ->
  unit ->
  summary
(** Run cases [0..cases-1] of [seed]; each failing case is shrunk
    (class-preserving) and, when [out] is given, saved as a
    [Replay.Chaos] reproducer under it. *)

val replay :
  Replay.Chaos.t ->
  (Config_gen.case * finding list * bool, string) result
(** Regenerate, restrict and re-run a recorded case. The [bool] is
    "reproduced": some finding matches a recorded class (or no classes
    were recorded and any verdict counts). *)

val pp_summary : Format.formatter -> summary -> unit
