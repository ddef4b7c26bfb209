(* Star topology: one DUT hub fanning a table out to N spoke peers.

   The fan-out counterpart of {!Testbed}'s three-router chain, as a
   {!Topology} preset: the Device Under Test runs either host; every
   spoke is a scripted {!Topology.sink}, which records every UPDATE frame
   it receives — in arrival order, bytes included — so two runs of one
   scenario can be compared stream-for-stream. Sinks can also originate
   routes into the DUT, which makes one of them a split-horizon source
   member of its own update group. *)

type t = {
  topo : Topology.t;
  sinks : Topology.sink array;  (** [topo.sinks], read on hot paths *)
  dut : Daemon.t;
  dut_vmm : Xbgp.Vmm.t option;
  telemetry : Telemetry.t;
  native_rr : bool;
  ibgp : bool;
  rr_client : int -> bool;
}

let addr = Bgp.Prefix.addr_of_quad
let dut_as = 65000
let dut_addr = addr (10, 0, 0, 1)
let spoke_as ~ibgp i = if ibgp then dut_as else 65101 + i
let sink_name i = Printf.sprintf "sink%d" i
let sink_addr i = addr (10, 1, 0, 2 + i)

let create ?(host = `Frr) ?manifest ?(engine = Ebpf.Vm.Interpreted) ?telemetry
    ?vmm ?update_groups ?batch_updates ?(ibgp = false) ?(native_rr = false)
    ?(rr_client = fun _ -> false) ?(hold_time = 90) ?(record_frames = true)
    ?(track_rib = true) ?(xtras = []) ~npeers () : t =
  if npeers < 1 || npeers > 200 then invalid_arg "Star.create: npeers";
  Testbed.only_path ~fn:"Star.create" ~batch_updates ~update_groups;
  let telemetry = Topology.registry telemetry in
  let dut_vmm =
    match vmm with
    | Some _ -> vmm
    | None ->
      Option.map
        (Xprogs.Registry.vmm_of_manifest ~engine ~telemetry ~host:"dut")
        manifest
  in
  let spokes = List.init npeers Fun.id in
  let topo =
    Topology.create ~telemetry
      (Topology.router ~host ?vmm:dut_vmm ~hold_time ~native_rr ~xtras
         ~name:"dut" ~router_id:dut_addr ~local_as:dut_as ()
      :: List.map
           (fun i ->
             Topology.sink ~hold_time ~record_frames ~track_rib
               ~name:(sink_name i) ~asn:(spoke_as ~ibgp i)
               ~addr:(sink_addr i) ())
           spokes)
      (List.map
         (fun i ->
           Topology.link ~name:(Printf.sprintf "S%d" i) ~b_client:(rr_client i)
             "dut" (sink_name i))
         spokes)
  in
  let dut = Topology.daemon topo "dut" in
  { topo; sinks = topo.sinks; dut; dut_vmm; telemetry; native_rr; ibgp; rr_client }

let npeers t = Array.length t.sinks
let dut t = t.dut
let dut_vmm t = t.dut_vmm
let telemetry t = t.telemetry
let sched t = t.topo.sched
let start t = Topology.start t.topo
let all_established t = Topology.all_established t.topo

let establish t =
  if not (Topology.establish t.topo) then
    failwith "Star.establish: sessions did not come up"

let run_for t us = Topology.run_for t.topo us
let run_until ?timeout_us t pred = Topology.run_until ?timeout_us t.topo pred

let total_activity t =
  Array.fold_left
    (fun acc (s : Topology.sink) -> acc + !(s.adv_seen) + !(s.wd_seen))
    0 t.sinks

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

let attach_recorder t rc = Topology.attach_recorder t.topo rc
let attach_collector t col = Topology.attach_collector t.topo "dut" col
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
  if i < 0 || i >= npeers t then invalid_arg "Star.sink_address";
  sink_addr i

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

let set_link_up t i up = Topology.set_link_up t.topo "dut" (sink_name i) up

let restart t = Topology.restart t.topo
