(* Star topology: one DUT hub fanning a table out to N spoke peers.

   The fan-out counterpart of {!Testbed}'s three-router chain: the Device
   Under Test runs either host; every spoke is a minimal scripted "sink"
   built directly on {!Session.Fsm}, which completes the OPEN/KEEPALIVE
   handshake, emits keepalives, and records every UPDATE frame it
   receives — in arrival order, bytes included — so two runs of one
   scenario can be compared stream-for-stream. Sinks can also originate
   routes into the DUT, which makes one of them a split-horizon source
   member of its own update group. *)

type sink = {
  sidx : int;
  fsm : Session.Fsm.t;
  port : Netsim.Pipe.port;  (** sink-side port, for link failures *)
  frames : bytes list ref;  (** received UPDATE frames, newest first *)
  adv_seen : int ref;  (** NLRI entries received, cumulative *)
  wd_seen : int ref;  (** withdrawn entries received, cumulative *)
  rib : (Bgp.Prefix.t, Bgp.Attr.t list) Hashtbl.t;
      (** derived adj-RIB-in (reset on session close) *)
}

type t = {
  sched : Netsim.Sched.t;
  dut : Daemon.t;
  dut_vmm : Xbgp.Vmm.t option;
  telemetry : Telemetry.t;
  sinks : sink array;
  native_rr : bool;
  ibgp : bool;
  rr_client : int -> bool;
}

let addr = Bgp.Prefix.addr_of_quad
let dut_as = 65000
let dut_addr = addr (10, 0, 0, 1)
let spoke_as ~ibgp i = if ibgp then dut_as else 65101 + i

let create ?(host = `Frr) ?manifest ?(engine = Ebpf.Vm.Interpreted) ?telemetry
    ?vmm ?update_groups ?batch_updates ?(ibgp = false) ?(native_rr = false)
    ?(rr_client = fun _ -> false) ?(hold_time = 90) ?(record_frames = true)
    ?(track_rib = true) ?(xtras = []) ~npeers () : t =
  if npeers < 1 || npeers > 200 then invalid_arg "Star.create: npeers";
  Testbed.only_path ~fn:"Star.create" ~batch_updates ~update_groups;
  (* fresh-process semantics: a new star means new daemons *)
  Frrouting.Attr_intern.reset_intern_table ();
  let sched = Netsim.Sched.create () in
  let telemetry =
    match telemetry with
    | Some t -> t
    | None -> Telemetry.create ~enabled:false ()
  in
  Telemetry.set_clock_us telemetry (fun () -> Netsim.Sched.now sched);
  let sink_as = spoke_as ~ibgp in
  let sink_addr i = addr (10, 1, 0, 2 + i) in
  let links =
    Array.init npeers (fun i ->
        Netsim.Pipe.create ~telemetry ~name:(Printf.sprintf "S%d" i) sched)
  in
  let dut_vmm =
    match vmm with
    | Some _ -> vmm
    | None ->
      Option.map
        (fun m ->
          Xprogs.Registry.vmm_of_manifest ~engine ~telemetry ~host:"dut" m)
        manifest
  in
  let dut =
    match host with
    | `Frr ->
      Daemon.Frr
        (Frrouting.Bgpd.create ~telemetry ?vmm:dut_vmm ~sched
           (Frrouting.Bgpd.config ~name:"dut" ~router_id:dut_addr
              ~local_as:dut_as ~local_addr:dut_addr ~hold_time ~native_rr
              ~xtras ())
           (List.init npeers (fun i ->
                {
                  Frrouting.Bgpd.pname = Printf.sprintf "sink%d" i;
                  remote_as = sink_as i;
                  remote_addr = sink_addr i;
                  rr_client = rr_client i;
                  port = fst links.(i);
                })))
    | `Bird ->
      Daemon.Bird
        (Bird.Bgpd.create ~telemetry ?vmm:dut_vmm ~sched
           (Bird.Bgpd.config ~name:"dut" ~router_id:dut_addr
              ~local_as:dut_as ~local_addr:dut_addr ~hold_time ~native_rr
              ~xtras ())
           (List.init npeers (fun i ->
                {
                  Bird.Bgpd.pname = Printf.sprintf "sink%d" i;
                  remote_as = sink_as i;
                  remote_addr = sink_addr i;
                  rr_client = rr_client i;
                  port = fst links.(i);
                })))
  in
  let sinks =
    Array.init npeers (fun i ->
        let port = snd links.(i) in
        let frames = ref [] and adv_seen = ref 0 and wd_seen = ref 0 in
        let rib = Hashtbl.create 64 in
        let on_update (u : Bgp.Message.update) ~raw =
          if record_frames then frames := Bytes.copy raw :: !frames;
          adv_seen := !adv_seen + List.length u.nlri;
          wd_seen := !wd_seen + List.length u.withdrawn;
          if track_rib then begin
            List.iter (Hashtbl.remove rib) u.withdrawn;
            List.iter (fun p -> Hashtbl.replace rib p u.attrs) u.nlri
          end
        in
        let cbs =
          {
            Session.Fsm.on_update;
            on_established = (fun () -> ());
            on_close = (fun _ -> Hashtbl.reset rib);
          }
        in
        let fsm =
          Session.Fsm.create ~telemetry sched port
            {
              local_as = sink_as i;
              local_id = sink_addr i;
              peer_as = dut_as;
              hold_time;
            }
            cbs
        in
        { sidx = i; fsm; port; frames; adv_seen; wd_seen; rib })
  in
  { sched; dut; dut_vmm; telemetry; sinks; native_rr; ibgp; rr_client }

let npeers t = Array.length t.sinks
let dut t = t.dut
let dut_vmm t = t.dut_vmm
let telemetry t = t.telemetry
let sched t = t.sched

let start t =
  Daemon.start t.dut;
  Array.iter (fun s -> Session.Fsm.start s.fsm) t.sinks

let all_established t =
  let ok = ref true in
  Array.iteri
    (fun i s ->
      if
        not
          (Session.Fsm.is_established s.fsm && Daemon.peer_established t.dut i)
      then ok := false)
    t.sinks;
  !ok

let establish t =
  start t;
  if not (Netsim.Sched.run_until t.sched (fun () -> all_established t)) then
    failwith "Star.establish: sessions did not come up"

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

let total_activity t =
  Array.fold_left (fun acc s -> acc + !(s.adv_seen) + !(s.wd_seen)) 0 t.sinks

(* Quiescence: flushes are scheduled at +0 and pipe latency is ~100 us,
   while keepalives tick at hold/3 *seconds* — so a 200 ms slice with no
   new routes at any sink means the routing system is settled. *)
let settle ?(slice_us = 200_000) ?(max_slices = 500) t =
  let rec go n last =
    if n > 0 then begin
      run_for t slice_us;
      let cur = total_activity t in
      if cur <> last then go (n - 1) cur
    end
  in
  go max_slices (total_activity t)

(* Observability attachments. The recorder clock is the simulated
   clock, so event timestamps are reproducible under Netsim.Sched. *)
let attach_recorder t rc =
  Obs.Recorder.set_clock rc (fun () -> Netsim.Sched.now t.sched);
  Daemon.set_recorder t.dut (Some rc)

let attach_collector t col = Daemon.set_collector t.dut (Some col)

let originate t prefix attrs = Daemon.originate t.dut prefix attrs
let withdraw_local t prefix = Daemon.withdraw_local t.dut prefix

let sink_announce t i ~attrs nlri =
  Session.Fsm.send_update t.sinks.(i).fsm
    { Bgp.Message.withdrawn = []; attrs; nlri }

let sink_withdraw t i prefixes =
  Session.Fsm.send_update t.sinks.(i).fsm
    { Bgp.Message.withdrawn = prefixes; attrs = []; nlri = [] }

let sink_send_raw t i frame = Netsim.Pipe.send t.sinks.(i).port frame
let sink_established t i = Session.Fsm.is_established t.sinks.(i).fsm

let sink_address t i =
  if i < 0 || i >= Array.length t.sinks then invalid_arg "Star.sink_address";
  addr (10, 1, 0, 2 + i)

let sink_as t = spoke_as ~ibgp:t.ibgp
let dut_as _ = dut_as
let dut_address _ = dut_addr
let native_rr t = t.native_rr
let sink_rr_client t i = t.rr_client i
let sink_frames t i = List.rev !(t.sinks.(i).frames)
let sink_adv_seen t i = !(t.sinks.(i).adv_seen)
let sink_rib_size t i = Hashtbl.length t.sinks.(i).rib

let sink_rib t i =
  Hashtbl.fold (fun p attrs acc -> (p, attrs) :: acc) t.sinks.(i).rib []
  |> List.sort (fun (a, _) (b, _) -> Bgp.Prefix.compare a b)

let set_link_up t i up = Netsim.Pipe.set_up t.sinks.(i).port up

let restart t =
  Daemon.restart_sessions t.dut;
  Array.iter
    (fun s ->
      if Session.Fsm.state s.fsm = Session.Fsm.Idle then
        Session.Fsm.start s.fsm)
    t.sinks

