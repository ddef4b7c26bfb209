(** A uniform handle over the two daemons, for harness code (tests,
    examples, benchmarks) that instantiates either host. Both are
    {!Pipeline.Make} over different representations; their types stay
    distinct, hence the sum type. *)

type t = Frr of Frrouting.Bgpd.t | Bird of Bird.Bgpd.t
type host = [ `Frr | `Bird ]

type router = {
  host : host;
  name : string;
  router_id : int;  (** also the local (next-hop-self) address *)
  local_as : int;
  hold_time : int;
  native_rr : bool;  (** RFC 4456 reflection in native code *)
  native_ov_roas : Rpki.Roa.t list option;
      (** native origin validation, through the host's own ROA store *)
  igp_metric : (int -> int) option;  (** IGP cost towards a next hop *)
  xtras : (string * bytes) list;  (** configuration extras for [get_xtra] *)
  vmm : Xbgp.Vmm.t option;  (** loaded extensions; None = native only *)
}
(** A daemon's configuration, the same for both hosts ({!Pipeline.S.config}
    plus the host and the VMM). *)

val create :
  ?telemetry:Telemetry.t -> sched:Netsim.Sched.t -> router ->
  Pipeline.peer_conf list -> t
(** Build the daemon on [router.host]; the one place either host's
    [Bgpd.create] is called. *)

val frr : t -> Frrouting.Bgpd.t
(** The FRR-like daemon underneath, for harness code that reads its
    native route records. @raise Invalid_argument on a BIRD-like one. *)

val name : t -> string
val start : t -> unit
val originate : t -> Bgp.Prefix.t -> Bgp.Attr.t list -> unit
val withdraw_local : t -> Bgp.Prefix.t -> unit
val loc_count : t -> int
val peer_established : t -> int -> bool

val best_attrs : t -> Bgp.Prefix.t -> Bgp.Attr.t list option
(** Attributes of the best route in the shared codec type — how the
    equivalence tests compare hosts. *)

val has_route : t -> Bgp.Prefix.t -> bool

val loc_snapshot : t -> (Bgp.Prefix.t * Bgp.Attr.t list) list
(** Whole-Loc-RIB snapshot in the neutral codec form, sorted by prefix. *)

val best_sources : t -> (Bgp.Prefix.t * int) list
(** The peer index each best route came from ([-1] = locally
    originated), sorted by prefix like {!loc_snapshot}. *)

val best_path : t -> Bgp.Prefix.t -> int list option
(** Flattened AS path of the best route. *)

val best_communities : t -> Bgp.Prefix.t -> int list option
val updates_rx : t -> int
val import_rejected : t -> int
val set_log : t -> (string -> unit) -> unit

val restart_sessions : t -> unit
(** Re-open any session that has fallen back to Idle. *)

val set_xtra : t -> string -> bytes -> unit
(** Replace one named configuration extra at runtime (e.g. an updated
    ROA table); pair with {!rerun_init} for init-time extension state. *)

val rerun_init : t -> unit
(** Re-run the extension init bytecodes against the current xtras. *)

val stats : t -> Telemetry.daemon_stats
(** Point-in-time daemon counters (updates/routes/rejections). *)

val refresh_exports : t -> unit
(** Re-evaluate export policy for every best route. *)

val group_count : t -> int
(** Active update groups (0 until a peer syncs). *)

val vmm : t -> Xbgp.Vmm.t option

val provenance : t -> Bgp.Prefix.t -> Obs.Provenance.t option
(** Provenance of the prefix's current best route, falling back to the
    last reject/withdraw record once no candidate is left. *)

val provenance_candidates : t -> Bgp.Prefix.t -> Obs.Provenance.t list
val provenance_snapshot : t -> (Bgp.Prefix.t * Obs.Provenance.t) list

val set_recorder : t -> Obs.Recorder.t option -> unit
(** Attach a flight recorder to the daemon (routes), its VMM (faults,
    fallbacks, map evictions), its session FSMs (transitions) and its
    update-group engine (split/merge/rekey). *)

val recorder : t -> Obs.Recorder.t option
val set_collector : t -> Obs.Bmp.collector option -> unit
val collector : t -> Obs.Bmp.collector option

val group_details : t -> (string * int list) list
(** Update-group partition [(key, member indices)] in creation order. *)
