(** Seeded generation of fuzz cases: random points in the shipped
    configuration matrix (host x engine x telemetry x extension chain x
    topology), each with a seeded fault
    schedule, mutated wire frames for one star sink to send, and raw eBPF
    programs for the engine check.

    A case is a pure function of (master seed, case index): the campaign
    loop, the shrinker and the replay machinery all regenerate the same
    case from those two integers and restrict its named lists
    ({!lists}) to kept indices. *)

type knobs = {
  host : Scenario.Testbed.host;
  engine : Ebpf.Vm.engine;
  telemetry : bool;  (** histograms and spans (counters always count) *)
  span_sampling : int;  (** 1-in-N span sampling, 1 = everything *)
  split : bool;
      (** star: the sinks send one UPDATE per prefix — the import
          oracle's metamorphic leg, not a daemon setting *)
}

type topology =
  | Star of { npeers : int }  (** DUT hub + scripted sinks, hold 3 s *)
  | Fabric of { fconfig : Scenario.Fabric.config; with_transit : bool }
      (** the Fig. 5 data-center fabric, hold 9 s *)

type feed =
  | Dut_originate  (** the DUT originates the table (export-side chaos) *)
  | Sink_announce  (** sink 0 announces it (full pipeline chaos) *)

type fault =
  | Flap of int  (** star: sink link down past the hold timer, restore *)
  | Mid_transfer_fail of int
      (** star: inject fresh routes, fail the link with frames in
          flight, restore after the hold timer *)
  | Roa_swap  (** swap the ROA table (set_xtra + rerun_init), re-feed *)
  | Detach_attach of string
      (** hot-detach one chain program, push a route through the
          shortened chain, re-attach per its manifest *)
  | Fabric_fail of int  (** fabric: fail link [i], settle, repair *)
  | Fabric_double_fail of int * int  (** fabric: two overlapping fails *)
  | Sink_feed of int
      (** star: sink [j] announces routes into the hub (a split-horizon
          source member of its own group), then withdraws half *)
  | Wd_race of int
      (** star: sink [j]'s withdrawal and sink [j+1]'s re-advertisement
          of the same prefixes land in one unsettled window *)
  | Detach of string
      (** star: detach an outbound program for good, with no export
          refresh — the live regroup path *)

type case = {
  seed : int;
  index : int;
  grid : knobs list;  (** equivalence legs; leg 0 is the case's point *)
  topology : topology;
  feed : feed;
  chain : string list;  (** registry manifest names, load order *)
  limit : int option;  (** prefix_limit threshold, when in the chain *)
  rate : int option;  (** rate_limit window, when in the chain *)
  faults : fault list;
  routes : Dataset.Ris_gen.route list;
  roas : Rpki.Roa.t list;  (** initial ROA table *)
  roas2 : Rpki.Roa.t list;  (** the table Roa_swap installs *)
  hostile : int;  (** star: the sink that sends [frames] *)
  frames : bytes list;
      (** star: mutated wire frames the [hostile] sink sends raw after the
          fault schedule *)
  guided : bool;  (** [progs] are verifier-shaped rather than soup *)
  progs : Ebpf.Insn.t list list;  (** raw programs for the engine check *)
}

val case : seed:int -> index:int -> case
(** Deterministic: the same (seed, index) always yields the same case —
    knobs, grid, chain, fault schedule, routes and ROA tables. The
    map-carrying chain programs (flap_damping, rate_limit) and a star
    case's export-side fault ({!Sink_feed}, {!Wd_race}, {!Detach}) are
    drawn from independently seeded streams appended after every other
    field, as are the programs, the hostile frames and the
    route-reflector variant (iBGP route-reflector-client sinks with
    route_reflector appended to the chain), and a star grid's last leg
    (leg 0 with the sinks' UPDATEs split per prefix, absent when the
    chain holds rate_limit) draws nothing, so cases generated before
    they existed keep their knobs, chain prefix, routes and faults. The
    draws of retired knobs are kept and discarded for the same reason. *)

val feed_prefix : int -> Bgp.Prefix.t
(** [198.18.k.0/24]: the prefixes a star sink announces in the
    {!Sink_feed} and {!Wd_race} faults. When the chain holds
    origin_validation, both ROA tables end with exact ROAs making feed
    prefix 1 valid from sink 0 only and feed prefix 3 invalid, so one
    such UPDATE carries valid, invalid and not-found routes. *)

val lists : string list
(** The names of a case's shrinkable lists: faults, routes, frames,
    progs. *)

val indices : case -> (string * int list) list
(** Every index of each named list. *)

val restrict : (string * int list) list -> case -> case
(** Keep only the listed indices of each named list (shrinking, replay);
    an absent name keeps that list whole. *)

val kinds : case -> string list
(** What the case exercises: its topology name, then [rr_ibgp],
    [hostile_peer] and [vm_soup] / [vm_guided] when it carries them —
    the campaign histogram's keys. *)

val host_name : Scenario.Testbed.host -> string
val feed_name : feed -> string
val fault_name : fault -> string
val topology_name : topology -> string
val pp_knobs : Format.formatter -> knobs -> unit
val pp_case : Format.formatter -> case -> unit
