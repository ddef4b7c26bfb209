(** The fuzz campaign: run each {!Config_gen} case — same topology,
    route feed, fault schedule and hostile frames — once per knob-grid
    leg, and demand per-phase convergence, route-for-route equivalence
    across the grid (leg 1 crosses the host: the FRR-vs-BIRD
    differential), telemetry invariants (monotone counters, no leaked
    in-flight pipe bytes, update groups re-merged after churn), and the
    VM check ({!Oracle.check_prog}) on each of the case's programs. *)

type cls = Oracle.cls = Convergence | Equivalence | Telemetry_oracle | Crash
type finding = Oracle.finding = { cls : cls; detail : string }

type phase = {
  label : string;
  dur_us : int;  (** simulated time from phase start to quiescence *)
  locs : (string * (Bgp.Prefix.t * Bgp.Attr.t list) list) list;
  ribs : (Bgp.Prefix.t * Bgp.Attr.t list) list array;
  reach : bool list;
      (** fabric: ToR-pair reachability; star: per-sink session up *)
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
    Also runs {!Oracle.check_prog} on every program of the case.
    Returns all findings plus leg 0's per-phase [(label, simulated us)]
    convergence samples. [perturb] corrupts leg 0's snapshots (the
    table-loading phase's head route and first UPDATE frame, the hostile
    phase's session states, the last map fingerprint) and the block
    engine's results — the self-test knob proving the oracle and
    shrink/replay pipeline fire for every kind of case. *)

val shrink_case :
  perturb:bool ->
  Config_gen.case ->
  classes:cls list ->
  Config_gen.case * (string * int list) list
(** Jointly ddmin the case's named lists ({!Shrink.minimize_multi})
    while at least one finding of a class in [classes] survives.
    Returns the minimized case and the kept indices per list. *)

type failure = {
  case : Config_gen.case;  (** minimized *)
  findings : finding list;  (** findings of the minimized case *)
  classes : cls list;  (** divergence classes of the ORIGINAL case *)
  repro : Replay.t;
  repro_path : (string, string) result option;
      (** with [out]: the written file, or why it could not be written *)
}

type summary = {
  cases : int;
  kinds : (string * int) list;
      (** {!Config_gen.kinds} histogram, first-seen order *)
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
    (class-preserving) and, when [out] is given, saved as a {!Replay}
    reproducer under it. A reproducer that cannot be written is
    reported in its failure; the campaign goes on. *)

val replay :
  Replay.t ->
  (Config_gen.case * finding list * bool, string) result
(** Regenerate, restrict and re-run a recorded case. The [bool] is
    "reproduced": some finding matches a recorded class (or no classes
    were recorded and any verdict counts). *)

val pp_summary : Format.formatter -> summary -> unit
