(** The Fig. 5 data-center fabric as live daemons.

    Three configurations matter for §3.3: [`Plain] (distinct ASNs, no
    protection), [`Same_as] (the duplicate-ASN trick: valleys blocked by
    loop prevention, fabric partitions under double failures), [`Xbgp]
    (distinct ASNs + the valley_free extension on every router). *)

type config = [ `Plain | `Same_as | `Xbgp ]

type t = {
  sched : Netsim.Sched.t;
  clos : Dataset.Clos.t;
  daemons : (string * Daemon.t) list;
  pipes : ((string * string) * (Netsim.Pipe.port * Netsim.Pipe.port)) list;
}

val build :
  ?host:Testbed.host ->
  ?with_transit:bool ->
  ?engine:Ebpf.Vm.engine ->
  ?telemetry:Telemetry.t ->
  config ->
  t
(** [engine] selects the eBPF execution engine for the valley_free VMMs
    (only meaningful under [`Xbgp]); [telemetry] is shared by every
    daemon and pipe (default: a fresh disabled registry). *)

val daemon : t -> string -> Daemon.t
(** @raise Not_found for an unknown router name. *)

val attach_recorder : t -> Obs.Recorder.t -> unit
(** Attach one flight recorder to {e every} daemon in the fabric —
    events carry the daemon name, and the shared simulated clock keeps
    the stream totally ordered. *)

val attach_collector : t -> string -> Obs.Bmp.collector -> unit
(** Attach a BMP-style passive collector to the named router, mirroring
    its received UPDATEs and session edges.
    @raise Not_found for an unknown router name. *)

val start : t -> unit
(** Start every daemon; every router originates its prefix. *)

val settle : t -> int -> unit
(** Advance simulated time by that many seconds. *)

val fail_link : t -> string -> string -> unit
(** Fail a link; sessions notice through their hold timers.
    @raise Invalid_argument for an unknown link. *)

val repair_link : t -> string -> string -> unit
(** Bring a failed link back and re-open the sessions that died. *)

val reaches : t -> string -> string -> bool
(** Does the first router hold a route towards the second's prefix? *)

val path : t -> string -> string -> int list option
(** The AS path of that route. *)
