(* A deployment written as data: a list of nodes and a list of links.

   A node is a daemon of either host or a scripted sink; a link is one
   pipe between two nodes, each end optionally a route-reflector client
   of the other. [create] is the one place that wires a deployment:
   {!Testbed}, {!Star} and {!Fabric} are node/link lists over it, and
   tests or examples write their own. *)

type sink = {
  sidx : int;
  fsm : Session.Fsm.t;
  port : Netsim.Pipe.port;
  frames : bytes list ref;
  adv_seen : int ref;
  wd_seen : int ref;
  rib : (Bgp.Prefix.t, Bgp.Attr.t list) Hashtbl.t;
}

type sink_node = {
  sname : string;
  sas : int;
  saddr : int;
  shold_time : int;
  record_frames : bool;
  track_rib : bool;
}

type node = Router of Daemon.router | Sink of sink_node

let router ?(host = `Frr) ?(hold_time = 90) ?(native_rr = false)
    ?native_ov_roas ?igp_metric ?(xtras = []) ?vmm ~name ~router_id ~local_as
    () =
  Router
    { host; name; router_id; local_as; hold_time; native_rr; native_ov_roas;
      igp_metric; xtras; vmm }

let sink ?(hold_time = 90) ?(record_frames = true) ?(track_rib = true) ~name
    ~asn ~addr () =
  Sink
    { sname = name; sas = asn; saddr = addr; shold_time = hold_time;
      record_frames; track_rib }

type link = {
  lname : string;
  a : string;
  b : string;
  a_client : bool;
  b_client : bool;
}

let link ?name ?(a_client = false) ?(b_client = false) a b =
  { lname = Option.value name ~default:(a ^ "-" ^ b); a; b; a_client; b_client }

type t = {
  sched : Netsim.Sched.t;
  daemons : (string * Daemon.t) list;
  sinks : sink array;
  pipes : ((string * string) * (Netsim.Pipe.port * Netsim.Pipe.port)) list;
}

let registry = function Some t -> t | None -> Telemetry.create ~enabled:false ()

let node_name = function Router r -> r.name | Sink s -> s.sname

(* A sink records every UPDATE it receives, at a cost set by its two
   switches, and derives its adj-RIB-in, reset when the session closes. *)
let make_sink ~telemetry sched sidx (s : sink_node) ~peer_as port =
  let frames = ref [] and adv_seen = ref 0 and wd_seen = ref 0 in
  let rib = Hashtbl.create 64 in
  let record_frames = s.record_frames and track_rib = s.track_rib in
  let on_update (u : Bgp.Message.update) ~raw =
    if record_frames then frames := Bytes.copy raw :: !frames;
    adv_seen := !adv_seen + List.length u.nlri;
    wd_seen := !wd_seen + List.length u.withdrawn;
    if track_rib then begin
      List.iter (Hashtbl.remove rib) u.withdrawn;
      List.iter (fun p -> Hashtbl.replace rib p u.attrs) u.nlri
    end
  in
  let fsm =
    Session.Fsm.create ~telemetry sched port
      { local_as = s.sas; local_id = s.saddr; peer_as; hold_time = s.shold_time }
      { on_update; on_established = ignore; on_close = (fun _ -> Hashtbl.reset rib) }
  in
  { sidx; fsm; port; frames; adv_seen; wd_seen; rib }

let create ?telemetry nodes links =
  (* fresh-process semantics: a new deployment means new daemons *)
  Frrouting.Attr_intern.reset_intern_table ();
  let sched = Netsim.Sched.create () in
  let telemetry = registry telemetry in
  (* the scheduler clock is the trace timebase: deterministic under
     simulation, so traces of the same scenario are identical *)
  Telemetry.set_clock_us telemetry (fun () -> Netsim.Sched.now sched);
  let wired =
    List.map (fun l -> (l, Netsim.Pipe.create ~telemetry ~name:l.lname sched)) links
  in
  let find name =
    match List.find_opt (fun n -> node_name n = name) nodes with
    | Some (Router r) -> (r.local_as, r.router_id)
    | Some (Sink s) -> (s.sas, s.saddr)
    | None -> invalid_arg ("Topology.create: no node " ^ name)
  in
  (* this node's sessions, in link order *)
  let peers_of name =
    List.concat_map
      (fun (l, (pa, pb)) ->
        let peer other rr_client port =
          let remote_as, remote_addr = find other in
          [ { Pipeline.pname = other; remote_as; remote_addr; rr_client; port } ]
        in
        if l.a = name then peer l.b l.b_client pa
        else if l.b = name then peer l.a l.a_client pb
        else [])
      wired
  in
  let daemons = ref [] and sinks = ref [] in
  List.iter
    (function
      | Router r ->
        daemons :=
          (r.name, Daemon.create ~telemetry ~sched r (peers_of r.name))
          :: !daemons
      | Sink s -> (
        match peers_of s.sname with
        | [ p ] ->
          let sink =
            make_sink ~telemetry sched (List.length !sinks) s
              ~peer_as:p.remote_as p.port
          in
          sinks := sink :: !sinks
        | _ -> invalid_arg ("Topology.create: a sink needs one link: " ^ s.sname)))
    nodes;
  let sinks = Array.of_list (List.rev !sinks) in
  let pipes = List.map (fun (l, ports) -> ((l.a, l.b), ports)) wired in
  { sched; daemons = List.rev !daemons; sinks; pipes }

let daemon t name = List.assoc name t.daemons

let start t =
  List.iter (fun (_, d) -> Daemon.start d) t.daemons;
  Array.iter (fun s -> Session.Fsm.start s.fsm) t.sinks

(* Both ends of every link: each daemon's sessions are numbered in link
   order, and a sink has its one. *)
let all_established t =
  Array.for_all (fun s -> Session.Fsm.is_established s.fsm) t.sinks
  && List.for_all
       (fun (name, d) ->
         let n =
           List.length
             (List.filter (fun ((a, b), _) -> a = name || b = name) t.pipes)
         in
         List.for_all (Daemon.peer_established d) (List.init n Fun.id))
       t.daemons

let run_for t us =
  ignore (Netsim.Sched.run ~until:(Netsim.Sched.now t.sched + us) t.sched)

(* The event queue never drains while sessions hold keepalive timers, so
   every run is bounded by simulated time. *)
let run_until ?(timeout_us = 120_000_000) t pred =
  let deadline = Netsim.Sched.now t.sched + timeout_us in
  let met = ref false in
  let stop () =
    if pred () then met := true;
    !met || Netsim.Sched.now t.sched >= deadline
  in
  ignore (Netsim.Sched.run_until t.sched stop);
  !met

let establish t =
  start t;
  run_until t (fun () -> all_established t)

(* One recorder for the whole deployment: events carry the daemon name,
   and the shared simulated clock keeps the stream totally ordered and
   reproducible. *)
let attach_recorder t rc =
  Obs.Recorder.set_clock rc (fun () -> Netsim.Sched.now t.sched);
  List.iter (fun (_, d) -> Daemon.set_recorder d (Some rc)) t.daemons

let attach_collector t name col = Daemon.set_collector (daemon t name) (Some col)

let set_link_up t a b up =
  match
    List.find_opt (fun (ends, _) -> ends = (a, b) || ends = (b, a)) t.pipes
  with
  | Some (_, (pa, _)) -> Netsim.Pipe.set_up pa up
  | None -> invalid_arg (Printf.sprintf "Topology.set_link_up: no link %s-%s" a b)

let restart t =
  List.iter (fun (_, d) -> Daemon.restart_sessions d) t.daemons;
  Array.iter
    (fun s ->
      if Session.Fsm.state s.fsm = Session.Fsm.Idle then Session.Fsm.start s.fsm)
    t.sinks
