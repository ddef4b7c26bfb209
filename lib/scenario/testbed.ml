(* The three-router testbed of Fig. 3: upstream — DUT — downstream.

   As in the paper, the upstream and downstream routers always run the
   FRR-like daemon; the Device Under Test runs either host, natively or
   with extension bytecode loaded. Sessions on links L1/L2 are iBGP for
   the route-reflection experiment (§3.2) and eBGP for origin validation
   (§3.4). A {!Topology} preset: three routers, two links. *)

type host = Daemon.host

type mode = {
  host : host;
  ibgp : bool;
  manifest : Xbgp.Manifest.t option;  (** extension config for the DUT *)
  native_rr : bool;
  native_ov_roas : Rpki.Roa.t list option;
  xtras : (string * bytes) list;  (** DUT configuration extras *)
  hold_time : int;
  engine : Ebpf.Vm.engine;  (** eBPF engine for the DUT's extensions *)
  telemetry : Telemetry.t option;
      (** shared registry for the whole deployment; None = disabled *)
}

(* The daemons have one import path (batched NLRI) and one export path
   (update groups). The two labels that once chose a legacy lane stay
   only because the repository benchmark passes them as [true]; [false]
   named a lane that no longer exists. *)
let only_path ~fn ~batch_updates ~update_groups =
  let check label = function
    | Some false ->
      invalid_arg
        (Printf.sprintf "%s: ~%s:false (the legacy lane is gone)" fn label)
    | Some true | None -> ()
  in
  check "batch_updates" batch_updates;
  check "update_groups" update_groups

let mode ?(host = `Frr) ?(ibgp = true) ?manifest ?(native_rr = false)
    ?native_ov_roas ?(xtras = []) ?(hold_time = 90)
    ?(engine = Ebpf.Vm.Interpreted) ?telemetry ?batch_updates ?update_groups
    () =
  only_path ~fn:"Testbed.mode" ~batch_updates ~update_groups;
  {
    host;
    ibgp;
    manifest;
    native_rr;
    native_ov_roas;
    xtras;
    hold_time;
    engine;
    telemetry;
  }

type t = {
  topo : Topology.t;
  sched : Netsim.Sched.t;
  upstream : Frrouting.Bgpd.t;
  dut : Daemon.t;
  downstream : Frrouting.Bgpd.t;
  dut_vmm : Xbgp.Vmm.t option;
  telemetry : Telemetry.t;
}

let addr = Bgp.Prefix.addr_of_quad

let create (m : mode) : t =
  let telemetry = Topology.registry m.telemetry in
  let dut_vmm =
    Option.map
      (Xprogs.Registry.vmm_of_manifest ~engine:m.engine ~telemetry ~host:"dut")
      m.manifest
  in
  (* under iBGP the two neighbours share the DUT's AS *)
  let neighbour_as asn = if m.ibgp then 65000 else asn in
  let router = Topology.router ~hold_time:m.hold_time in
  let topo =
    Topology.create ~telemetry
      [
        router ~name:"upstream" ~router_id:(addr (10, 0, 0, 1))
          ~local_as:(neighbour_as 65001) ();
        router ~name:"downstream" ~router_id:(addr (10, 0, 0, 3))
          ~local_as:(neighbour_as 65002) ();
        router ~host:m.host ?vmm:dut_vmm ~native_rr:m.native_rr
          ?native_ov_roas:m.native_ov_roas ~xtras:m.xtras ~name:"dut"
          ~router_id:(addr (10, 0, 0, 2)) ~local_as:65000 ();
      ]
      [
        Topology.link ~name:"L1" "upstream" "dut";
        Topology.link ~name:"L2" ~b_client:true "dut" "downstream";
      ]
  in
  let daemon = Topology.daemon topo in
  {
    topo;
    sched = topo.sched;
    upstream = Daemon.frr (daemon "upstream");
    dut = daemon "dut";
    downstream = Daemon.frr (daemon "downstream");
    dut_vmm;
    telemetry;
  }

(** Bring all three sessions up, starting upstream, DUT, downstream in
    that order. @raise Failure if they do not establish. *)
let establish t =
  Frrouting.Bgpd.start t.upstream;
  Daemon.start t.dut;
  Frrouting.Bgpd.start t.downstream;
  let up () =
    Frrouting.Bgpd.peer_established t.upstream 0
    && Frrouting.Bgpd.peer_established t.downstream 0
  in
  if not (Topology.run_until t.topo up) then
    failwith "Testbed.establish: sessions did not come up"

(** Feed the RIS table into the upstream router (§3.2: "the upstream
    router is first fed with IPv4 BGP routes"). *)
let feed t (routes : Dataset.Ris_gen.route list) =
  List.iter
    (fun (r : Dataset.Ris_gen.route) ->
      Frrouting.Bgpd.originate t.upstream r.prefix r.attrs)
    routes

(** Run the simulation until the downstream router holds [expect] routes
    ("the delay between the announcement of the first prefix ... and the
    reception of the last prefix ... on the downstream router").
    Returns false if {!Topology.run_until}'s simulated-time bound passes
    first. *)
let run_until_downstream_has t expect =
  Topology.run_until t.topo (fun () ->
      Frrouting.Bgpd.loc_count t.downstream >= expect)

let downstream_count t = Frrouting.Bgpd.loc_count t.downstream
