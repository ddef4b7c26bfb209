(** A deployment written as data: a list of nodes and a list of links.

    A node is a daemon of either host ({!Daemon.router}) or a scripted
    sink: a minimal peer built directly on {!Session.Fsm} that completes
    the handshake, keeps the session alive and records each UPDATE frame
    it receives, raw bytes included, in arrival order. A link is one pipe
    between two nodes. {!create} wires any such list the same way;
    {!Testbed}, {!Star} and {!Fabric} are presets over it.

    {[
      let r i = Printf.sprintf "r%d" i in
      let topo =
        Topology.create
          (List.init 4 (fun i ->
               Topology.router ~host:`Bird ~name:(r i)
                 ~router_id:(Bgp.Prefix.addr_of_quad (10, 0, 0, i + 1))
                 ~local_as:(65001 + i) ()))
          (List.init 4 (fun i -> Topology.link (r i) (r ((i + 1) mod 4))))
      in
      assert (Topology.establish topo)
    ]} *)

type node

val router :
  ?host:Daemon.host ->
  ?hold_time:int ->
  ?native_rr:bool ->
  ?native_ov_roas:Rpki.Roa.t list ->
  ?igp_metric:(int -> int) ->
  ?xtras:(string * bytes) list ->
  ?vmm:Xbgp.Vmm.t ->
  name:string ->
  router_id:int ->
  local_as:int ->
  unit ->
  node
(** A daemon ({!Daemon.router}); defaults as {!Pipeline.S.config}: FRR-like
    host, 90-s hold time, no native reflection or validation, no VMM. *)

val sink :
  ?hold_time:int ->
  ?record_frames:bool ->
  ?track_rib:bool ->
  name:string ->
  asn:int ->
  addr:int ->
  unit ->
  node
(** A scripted peer with exactly one link. [record_frames] / [track_rib]
    (default true) keep each received frame and the derived adj-RIB-in;
    switch them off to keep full-table runs lean. *)

type link

val link : ?name:string -> ?a_client:bool -> ?b_client:bool -> string -> string -> link
(** [link a b] joins the nodes named [a] and [b] with one pipe (named
    [name], default ["a-b"]). [b_client] makes [b] a route-reflector
    client of [a]'s daemon, [a_client] the converse. *)

type sink = {
  sidx : int;  (** position among the sinks, in node order *)
  fsm : Session.Fsm.t;
  port : Netsim.Pipe.port;  (** sink-side port *)
  frames : bytes list ref;  (** received UPDATE frames, newest first *)
  adv_seen : int ref;  (** NLRI entries received, cumulative *)
  wd_seen : int ref;  (** withdrawn entries received, cumulative *)
  rib : (Bgp.Prefix.t, Bgp.Attr.t list) Hashtbl.t;
      (** derived adj-RIB-in (reset on session close) *)
}

type t = {
  sched : Netsim.Sched.t;
  daemons : (string * Daemon.t) list;  (** in node order *)
  sinks : sink array;  (** in node order *)
  pipes : ((string * string) * (Netsim.Pipe.port * Netsim.Pipe.port)) list;
      (** in link order: the two node names, then their ports *)
}

val registry : Telemetry.t option -> Telemetry.t
(** The given registry, or a fresh disabled one: what {!create} uses, for
    presets that build VMMs on it first. *)

val create : ?telemetry:Telemetry.t -> node list -> link list -> t
(** Reset the FRR intern table (fresh-process semantics), make the
    scheduler, point [telemetry]'s trace clock at it, create the pipes in
    link order, then the nodes in node order. A daemon's sessions are
    numbered in link order; each names its peer after the node at the
    other end and takes that node's AS and router id. Every daemon and
    pipe shares [telemetry] (default: {!registry}).
    @raise Invalid_argument if a link names an unknown node or a sink
    does not have exactly one link. *)

val daemon : t -> string -> Daemon.t
(** @raise Not_found for an unknown daemon name. *)

val start : t -> unit
(** Start every daemon, then open every sink session, in node order. *)

val all_established : t -> bool
(** Every session is Established at both ends. *)

val establish : t -> bool
(** {!start}, then {!run_until} {!all_established}; false if the
    sessions are not all up within the default timeout. *)

val run_for : t -> int -> unit
(** Run the simulation for that many microseconds of simulated time. *)

val run_until : ?timeout_us:int -> t -> (unit -> bool) -> bool
(** Run until the predicate holds; false if [timeout_us] (default 120 s)
    of simulated time passes first. The event queue never drains while
    keepalive timers are armed, so every run is time-bounded. *)

val attach_recorder : t -> Obs.Recorder.t -> unit
(** Attach one flight recorder to every daemon (daemon, VMM, session
    FSMs, update-group engine), clocked by the simulated scheduler so
    event timestamps are reproducible; events carry the daemon name. *)

val attach_collector : t -> string -> Obs.Bmp.collector -> unit
(** Attach a BMP-style passive collector to the named daemon, mirroring
    its received UPDATEs and session edges.
    @raise Not_found for an unknown daemon name. *)

val set_link_up : t -> string -> string -> bool -> unit
(** Fail or repair the link between two nodes (both directions); sessions
    notice a failure through their hold timers.
    @raise Invalid_argument for an unknown link. *)

val restart : t -> unit
(** Re-open every session that has fallen back to Idle, on daemons and
    sinks (e.g. after a failed link is repaired). *)
