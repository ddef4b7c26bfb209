(* §3.1 / Listing 1: filtering routes based on IGP costs.

     dune exec examples/igp_cost_filter.exe

   The ISP of the paper: a worldwide backbone where the transatlantic
   links carry an IGP metric of 1000 to discourage their use. Frankfurt
   announces to a European peer only the routes whose BGP next hop is
   reachable at a reasonable IGP cost. When the two UK–Europe links fail,
   London is suddenly 2000+ IGP units away (via Amsterdam and New York),
   and the export filter — Listing 1, attached to BGP_OUTBOUND_FILTER —
   withdraws the London-learned routes from the peer, which plain
   BGP-community tagging cannot do. *)

open Scenario

let addr = Bgp.Prefix.addr_of_quad

(* IGP node ids *)
let london = 1
and amsterdam = 2
and frankfurt = 3
and newyork = 4

let build_igp () =
  let topo = Igp.Topology.create () in
  Igp.Topology.add_link topo london amsterdam 10;
  (* UK–Europe link 1 *)
  Igp.Topology.add_link topo london frankfurt 12;
  (* UK–Europe link 2 *)
  Igp.Topology.add_link topo amsterdam frankfurt 5;
  Igp.Topology.add_link topo london newyork 1000;
  (* transatlantic *)
  Igp.Topology.add_link topo amsterdam newyork 1000;
  (* transatlantic *)
  topo

let () =
  let igp = build_igp () in
  let london_addr = addr (10, 2, 0, 1) in
  let frankfurt_addr = addr (10, 2, 0, 3) in
  let peer_addr = addr (10, 2, 0, 9) in
  (* Frankfurt's IGP metric towards a BGP next hop *)
  let node_of_addr a = if a = london_addr then Some london else None in
  let igp_metric nh =
    match node_of_addr nh with
    | Some node ->
      Option.value ~default:Xbgp.Api.igp_unreachable
        (Igp.Spf.cost igp ~src:frankfurt ~dst:node)
    | None -> 0
  in
  (* the deployment as a node/link list; London originates the routes
     it learned locally (iBGP to Frankfurt), Frankfurt runs Listing 1 *)
  let vmm = Xprogs.Registry.vmm_of_manifest ~host:"frankfurt" Xprogs.Igp_filter.manifest in
  let topo =
    Topology.create
      [
        Topology.router ~name:"london" ~router_id:london_addr ~local_as:65010 ();
        Topology.router ~vmm ~igp_metric
          ~xtras:[ ("igp_max_metric", Xprogs.Util.encode_u32 1000) ]
          ~name:"frankfurt" ~router_id:frankfurt_addr ~local_as:65010 ();
        (* the European eBGP peer *)
        Topology.router ~name:"peer" ~router_id:peer_addr ~local_as:64999 ();
      ]
      [ Topology.link "london" "frankfurt"; Topology.link "frankfurt" "peer" ]
  in
  let london_d = Topology.daemon topo "london" in
  let frankfurt_d = Topology.daemon topo "frankfurt" in
  Topology.start topo;
  Topology.run_for topo 10_000_000;

  (* London-learned route (next hop London via iBGP) *)
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  Daemon.originate london_d p
    [
      Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
      Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 64700 ] ]);
      Bgp.Attr.v (Bgp.Attr.Next_hop london_addr);
    ];
  Topology.run_for topo 10_000_000;
  let show label =
    let cost = igp_metric london_addr in
    let exported = Daemon.has_route (Topology.daemon topo "peer") p in
    Fmt.pr "%-28s IGP cost Frankfurt->London = %-6d exported to peer: %b@."
      label
      (if cost = Xbgp.Api.igp_unreachable then -1 else cost)
      exported
  in
  show "all links up:";

  (* the two UK-Europe links fail *)
  Igp.Topology.remove_link igp london amsterdam;
  Igp.Topology.remove_link igp london frankfurt;
  Daemon.refresh_exports frankfurt_d;
  Topology.run_for topo 10_000_000;
  show "after UK-Europe links fail:";

  (* links restored *)
  Igp.Topology.add_link igp london amsterdam 10;
  Igp.Topology.add_link igp london frankfurt 12;
  Daemon.refresh_exports frankfurt_d;
  Topology.run_for topo 10_000_000;
  show "after repair:"
