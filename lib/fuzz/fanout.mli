(** The multi-peer fan-out oracle ([xbgp-fuzz --fanout]).

    Executes the same deterministic star-topology scenario twice —
    update groups on, update groups off — and requires, for every spoke
    peer, a byte-identical UPDATE frame stream, an identical derived
    adj-RIB-in, an identical DUT Loc-RIB and an identical DUT VMM
    map-state fingerprint. Cases sweep both hosts, peer counts,
    extensions (none / group-invariant / peer-dependent forcing the
    solo fallback / the map-carrying flap-damping chain) and churn
    (session bounce, split-horizon feeding from a spoke, a withdrawal
    racing another spoke's re-advertisement of the same prefixes,
    mid-run chain detach forcing a live regroup). *)

type churn = No_churn | Bounce | Sink_feed | Rechain | Wd_race

val churn_name : churn -> string

type case = {
  seed : int;
  index : int;
  host : Scenario.Testbed.host;
  npeers : int;
  extension : string option;  (** registry manifest name *)
  churn : churn;
  routes : Dataset.Ris_gen.route list;
}

val case : seed:int -> index:int -> case
(** Deterministically generate the case for one campaign slot. *)

val pp_case : Format.formatter -> case -> unit

type obs = {
  frames : string list array;  (** per sink, raw UPDATE frames in order *)
  ribs : (Bgp.Prefix.t * Bgp.Attr.t list) list array;
  loc : (Bgp.Prefix.t * Bgp.Attr.t list) list;
  groups : int;
  maps : string;  (** DUT VMM map-state fingerprint ([Oracle.render_map_state]) *)
  tail : string list;
      (** DUT flight-recorder tail — attached to divergence reports as
          context, never compared between legs *)
}

val run_leg : case -> grouped:bool -> obs
(** Execute one export mode of the case and snapshot everything the
    oracle compares (exposed for tests). *)

val run_case : ?perturb:bool -> case -> string list
(** Run both export modes and compare; returns divergence descriptions
    (empty = equivalent). [perturb] corrupts one grouped-side frame and
    the map fingerprint so the oracle provably fires (self-test mode). *)

type summary = {
  cases : int;
  failures : (case * string list) list;  (** failing cases only *)
}

val pp_summary : Format.formatter -> summary -> unit

val campaign :
  ?perturb:bool ->
  ?log:(string -> unit) ->
  seed:int ->
  cases:int ->
  unit ->
  summary
