(* A composed edge-router policy, loaded from a manifest file the way an
   operator would ship it:

     dune exec examples/edge_policy.exe

   manifests/edge_router.manifest stacks three xBGP programs on one
   router: per-peer prefix limits and origin validation on import (in
   that order), and community scrubbing on export. The example feeds a
   mix of routes through an edge router and shows each program acting. *)

open Scenario

let addr = Bgp.Prefix.addr_of_quad

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let () =
  (* 1. parse the manifest file and resolve it against the registry *)
  let manifest_path = "manifests/edge_router.manifest" in
  let manifest =
    match Xbgp.Manifest.parse (read_file manifest_path) with
    | Ok m -> m
    | Error e -> failwith (manifest_path ^ ": " ^ e)
  in
  Fmt.pr "loaded %s: programs [%s]@." manifest_path
    (String.concat "; " manifest.programs);

  (* 2. the edge router's configuration extras *)
  let routes =
    Dataset.Ris_gen.generate
      { Dataset.Ris_gen.default_config with count = 40; disjoint = true }
  in
  let roas =
    Dataset.Ris_gen.roas_for ~seed:7 ~valid_pct:75 ~invalid_pct:13 routes
  in
  let vmm = Xbgp.Vmm.create ~host:"edge" () in
  (match Xbgp.Manifest.load vmm ~registry:Xprogs.Registry.find manifest with
  | Ok () -> ()
  | Error e -> failwith e);

  (* 3. a three-router chain, as a node/link list:
     feeder --eBGP-- edge --eBGP-- customer *)
  let topo =
    Topology.create
      [
        Topology.router ~name:"feeder" ~router_id:(addr (10, 5, 0, 1))
          ~local_as:64601 ();
        Topology.router ~vmm ~name:"edge" ~router_id:(addr (10, 5, 0, 2))
          ~local_as:65000
          ~xtras:
            [
              ("max_prefix", Xprogs.Util.encode_u32 25);
              ("roa_table", Xprogs.Util.encode_roa_table roas);
            ]
          ();
        Topology.router ~name:"customer" ~router_id:(addr (10, 5, 0, 3))
          ~local_as:64999 ();
      ]
      [ Topology.link "feeder" "edge"; Topology.link "edge" "customer" ]
  in
  let feeder = Topology.daemon topo "feeder" in
  let edge = Topology.daemon topo "edge" in
  let customer = Topology.daemon topo "customer" in
  Topology.start topo;
  Topology.run_for topo 2_000_000;

  (* 4. feed 40 routes, each additionally tagged with an internal
     community of the edge's AS (which must not leak to the customer) *)
  List.iter
    (fun (r : Dataset.Ris_gen.route) ->
      let internal_tag =
        Bgp.Attr.v (Bgp.Attr.Communities [ (65000 lsl 16) lor 666 ])
      in
      Daemon.originate feeder r.prefix (internal_tag :: r.attrs))
    routes;
  Topology.run_for topo 18_000_000;

  (* 5. observe all three programs *)
  Fmt.pr "feeder announced %d routes@." (List.length routes);
  Fmt.pr "edge accepted    %d routes (prefix_limit capped at 25)@."
    (Daemon.loc_count edge);
  Fmt.pr "customer holds   %d routes@." (Daemon.loc_count customer);
  let communities =
    List.concat_map
      (fun (p, _) ->
        Option.value ~default:[] (Daemon.best_communities customer p))
      (Daemon.loc_snapshot customer)
  in
  let tagged asn = List.length (List.filter (fun c -> c lsr 16 = asn) communities) in
  Fmt.pr "internal 65000:* communities leaked to the customer: %d@." (tagged 65000);
  Fmt.pr "origin-validation tags visible on the customer:      %d@."
    (tagged 65535);
  let stats = Xbgp.Vmm.stats vmm in
  Fmt.pr "vmm: %d runs, %d next() delegations, %d faults@." stats.runs
    stats.next_calls stats.faults
