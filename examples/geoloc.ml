(* The GeoLoc use case of §2 / Fig. 2, end to end.

     dune exec examples/geoloc.exe

   Two border routers of AS 65000 — one in Brussels, one in Sydney — each
   learn routes from an external peer, stamp them with a GeoLoc attribute
   (code 42) recording where they entered the network, and propagate them
   over iBGP to a core router in Paris. The core filters away routes
   learned too far away ("filtering away routes that are more than x
   kilometers away").

   This exercises all four GeoLoc bytecodes: the border stamps at
   BGP_INBOUND_FILTER, emits the unknown attribute at BGP_ENCODE_MESSAGE
   (the native encoder cannot), the core recovers it at
   BGP_RECEIVE_MESSAGE (the native parser drops it) and filters at
   BGP_INBOUND_FILTER. *)

open Scenario

let addr = Bgp.Prefix.addr_of_quad

let coords_of ~lat ~lon =
  Xprogs.Util.encode_coords
    ~lat:(Xprogs.Util.coord_of_degrees lat)
    ~lon:(Xprogs.Util.coord_of_degrees lon)

(* squared "coordinate distance" budget: ~30 degrees in the fixed-point
   encoding (1 unit = 1/1000 degree) *)
let max_dist2 =
  let d = 30_000 in
  Xprogs.Util.encode_u32 (d * d)

let geoloc_vmm host = Xprogs.Registry.vmm_of_manifest ~host Xprogs.Geoloc.manifest

let () =
  let mk_addr i = addr (10, 1, 0, i) in
  (* each external feeder originates one prefix *)
  let feeders =
    [
      ("feeder-brussels", 4, 64501, "203.0.113.0/24");
      ("feeder-sydney", 5, 64502, "198.51.100.0/24");
    ]
  in
  let border name i ~lat ~lon =
    Topology.router ~vmm:(geoloc_vmm name) ~name ~router_id:(mk_addr i)
      ~local_as:65000
      ~xtras:[ ("coords", coords_of ~lat ~lon) ]
      ()
  in
  (* feeder-brussels -- brussels -- core -- sydney -- feeder-sydney *)
  let topo =
    Topology.create
      (List.map
         (fun (name, i, asn, _) ->
           Topology.router ~name ~router_id:(mk_addr i) ~local_as:asn ())
         feeders
      @ [
          border "brussels" 2 ~lat:50.85 ~lon:4.35;
          border "sydney" 3 ~lat:(-33.87) ~lon:151.21;
          (* the Paris core: recovers GeoLoc from the wire and filters on it *)
          Topology.router ~vmm:(geoloc_vmm "core") ~name:"core"
            ~router_id:(mk_addr 1) ~local_as:65000
            ~xtras:
              [
                ("coords", coords_of ~lat:48.85 ~lon:2.35);
                ("geo_max_dist2", max_dist2);
              ]
            ();
        ])
      [
        Topology.link "feeder-brussels" "brussels";
        Topology.link "brussels" "core";
        Topology.link "feeder-sydney" "sydney";
        Topology.link "sydney" "core";
      ]
  in
  List.iter
    (fun (name, i, _, prefix) ->
      Daemon.originate (Topology.daemon topo name) (Bgp.Prefix.of_string prefix)
        [
          Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
          Bgp.Attr.v (Bgp.Attr.As_path []);
          Bgp.Attr.v (Bgp.Attr.Next_hop (mk_addr i));
        ])
    feeders;
  Topology.start topo;
  Topology.run_for topo 20_000_000;

  let decode_geoloc payload =
    let lat = Bgp.Attr.(get_u32 (Bytes.of_string payload) 0 8) in
    let lon = Bgp.Attr.(get_u32 (Bytes.of_string payload) 4 8) in
    ( (float_of_int lat /. 1000.) -. 500.,
      (float_of_int lon /. 1000.) -. 500. )
  in
  (* GeoLoc is an attribute only the FRR-like host's native record
     carries as an extra, so read that record *)
  let show name prefix =
    let d = Daemon.frr (Topology.daemon topo name) in
    match Frrouting.Bgpd.best_route d (Bgp.Prefix.of_string prefix) with
    | Some r -> (
      match List.find_opt (fun (c, _, _) -> c = 42) r.attrs.extra with
      | Some (_, _, payload) ->
        let lat, lon = decode_geoloc payload in
        Fmt.pr "%-10s %-18s GeoLoc = (%.2f, %.2f)@." name prefix lat lon
      | None -> Fmt.pr "%-10s %-18s no GeoLoc attribute@." name prefix)
    | None -> Fmt.pr "%-10s %-18s filtered (too far away)@." name prefix
  in
  print_endline "=== border routers stamp entry coordinates ===";
  show "brussels" "203.0.113.0/24";
  show "sydney" "198.51.100.0/24";
  print_endline "";
  print_endline
    "=== the Paris core recovers GeoLoc over iBGP and filters >30 degrees ===";
  show "core" "203.0.113.0/24";
  show "core" "198.51.100.0/24"
