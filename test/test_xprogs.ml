(* Unit tests for the use-case extension bytecodes, run through a bare
   VMM against scripted host operations — no daemons involved, so each
   bytecode's behaviour is pinned down in isolation. *)

let check = Alcotest.check
let check_bool = Alcotest.check Alcotest.bool
let check_i64 = Alcotest.check Alcotest.int64

let ok = function Ok () -> () | Error e -> Alcotest.fail e

let vmm_with prog point bytecode =
  let vmm = Xbgp.Vmm.create ~host:"test" () in
  ok (Xbgp.Vmm.register vmm prog);
  ok (Xbgp.Vmm.attach vmm ~program:prog.Xbgp.Xprog.name ~bytecode ~point ~order:0);
  vmm

let peer ?(peer_type = Xbgp.Api.ebgp_session) ?(peer_as = 65001)
    ?(rr_client = false) ?(cluster_id = 99) () =
  {
    Xbgp.Host_intf.peer_type;
    peer_as;
    peer_router_id = 0x0A000001;
    peer_addr = 0x0A000001;
    local_as = 65000;
    local_router_id = 0x0A000002;
    cluster_id;
    rr_client;
  }

let run vmm point ?(ops = Xbgp.Host_intf.null_ops) ?(args = []) default =
  Xbgp.Vmm.run vmm point ~ops
    ~args:(Xbgp.Host_intf.Args.of_list args)
    ~default:(fun () -> default)

(* scripted attribute store: get_attr/set_attr backed by a TLV list ref *)
let attr_store initial =
  let store = ref (List.map (fun a -> (Bgp.Attr.code a, Bgp.Attr.to_tlv a)) initial) in
  let ops =
    {
      Xbgp.Host_intf.null_ops with
      get_attr = (fun code -> List.assoc_opt code !store);
      set_attr =
        (fun tlv ->
          let code = Bytes.get_uint8 tlv 1 in
          store := (code, tlv) :: List.remove_assoc code !store;
          true);
      remove_attr =
        (fun code ->
          store := List.remove_assoc code !store;
          true);
    }
  in
  (ops, store)

let get_attr_of store code =
  Option.map Bgp.Attr.of_tlv (List.assoc_opt code !store)

(* --- igp_filter (Listing 1) --- *)

let igp_ops ~peer_type ~metric ~max =
  let base, _ = attr_store [] in
  {
    base with
    Xbgp.Host_intf.peer_info = (fun () -> Some (peer ~peer_type ()));
    nexthop = (fun () -> Some (0x0A000001, metric));
    get_xtra =
      (fun key ->
        if key = "igp_max_metric" then
          Option.map Xprogs.Util.encode_u32 max
        else None);
  }

let test_igp_filter () =
  let vmm () =
    vmm_with Xprogs.Igp_filter.program Xbgp.Api.Bgp_outbound_filter
      "export_igp"
  in
  (* metric above the limit on eBGP: reject *)
  check_i64 "high metric rejected" Xbgp.Api.filter_reject
    (run (vmm ()) Xbgp.Api.Bgp_outbound_filter
       ~ops:(igp_ops ~peer_type:Xbgp.Api.ebgp_session ~metric:2000 ~max:(Some 1000))
       0L);
  (* acceptable metric: defers to the native default *)
  check_i64 "low metric defers" 42L
    (run (vmm ()) Xbgp.Api.Bgp_outbound_filter
       ~ops:(igp_ops ~peer_type:Xbgp.Api.ebgp_session ~metric:500 ~max:(Some 1000))
       42L);
  (* boundary: metric = max is accepted (<=) *)
  check_i64 "boundary accepted" 42L
    (run (vmm ()) Xbgp.Api.Bgp_outbound_filter
       ~ops:(igp_ops ~peer_type:Xbgp.Api.ebgp_session ~metric:1000 ~max:(Some 1000))
       42L);
  (* iBGP sessions are never filtered *)
  check_i64 "iBGP defers" 42L
    (run (vmm ()) Xbgp.Api.Bgp_outbound_filter
       ~ops:(igp_ops ~peer_type:Xbgp.Api.ibgp_session ~metric:2000 ~max:(Some 1000))
       42L);
  (* missing configuration: defer *)
  check_i64 "no max configured defers" 42L
    (run (vmm ()) Xbgp.Api.Bgp_outbound_filter
       ~ops:(igp_ops ~peer_type:Xbgp.Api.ebgp_session ~metric:2000 ~max:None)
       42L)

(* --- route_reflector --- *)

let test_rr_import_loop_checks () =
  let vmm () =
    vmm_with Xprogs.Route_reflector.program Xbgp.Api.Bgp_inbound_filter
      "import"
  in
  let with_attrs attrs peer_type =
    let ops, _ = attr_store attrs in
    {
      ops with
      Xbgp.Host_intf.peer_info = (fun () -> Some (peer ~peer_type ()));
    }
  in
  (* our own router id as ORIGINATOR_ID: reject *)
  check_i64 "originator loop" Xbgp.Api.filter_reject
    (run (vmm ()) Xbgp.Api.Bgp_inbound_filter
       ~ops:
         (with_attrs
            [ Bgp.Attr.v (Bgp.Attr.Originator_id 0x0A000002) ]
            Xbgp.Api.ibgp_session)
       0L);
  (* our cluster id inside CLUSTER_LIST: reject *)
  check_i64 "cluster loop" Xbgp.Api.filter_reject
    (run (vmm ()) Xbgp.Api.Bgp_inbound_filter
       ~ops:
         (with_attrs
            [ Bgp.Attr.v (Bgp.Attr.Cluster_list [ 5; 99; 7 ]) ]
            Xbgp.Api.ibgp_session)
       0L);
  (* clean route defers to native *)
  check_i64 "clean route defers" 7L
    (run (vmm ()) Xbgp.Api.Bgp_inbound_filter
       ~ops:
         (with_attrs
            [ Bgp.Attr.v (Bgp.Attr.Cluster_list [ 5; 7 ]) ]
            Xbgp.Api.ibgp_session)
       7L);
  (* eBGP sessions are not reflection targets: defer *)
  check_i64 "ebgp defers" 7L
    (run (vmm ()) Xbgp.Api.Bgp_inbound_filter
       ~ops:
         (with_attrs
            [ Bgp.Attr.v (Bgp.Attr.Originator_id 0x0A000002) ]
            Xbgp.Api.ebgp_session)
       7L)

let source ?(peer_type = 2) ?(rr_client = false) ?(is_local = false) () =
  Xbgp.Host_intf.source_to_bytes
    {
      Xbgp.Host_intf.src_peer_type = peer_type;
      src_router_id = 0x0A000009;
      src_addr = 0x0A000009;
      src_rr_client = rr_client;
      src_is_local = is_local;
    }

let test_rr_export_reflection () =
  let vmm () =
    vmm_with Xprogs.Route_reflector.program Xbgp.Api.Bgp_outbound_filter
      "export"
  in
  (* iBGP-learned, target is a client: reflect with attributes *)
  let ops, store =
    attr_store [ Bgp.Attr.v (Bgp.Attr.Cluster_list [ 123 ]) ]
  in
  let ops =
    {
      ops with
      Xbgp.Host_intf.peer_info =
        (fun () ->
          Some (peer ~peer_type:Xbgp.Api.ibgp_session ~rr_client:true ()));
    }
  in
  check_i64 "reflected" Xbgp.Api.filter_accept
    (run (vmm ()) Xbgp.Api.Bgp_outbound_filter ~ops
       ~args:[ (Xbgp.Api.arg_source, source ()) ]
       1L);
  (match get_attr_of store Bgp.Attr.code_originator_id with
  | Some { value = Bgp.Attr.Originator_id oid; _ } ->
    check Alcotest.int "originator = source router id" 0x0A000009 oid
  | _ -> Alcotest.fail "no ORIGINATOR_ID set");
  (match get_attr_of store Bgp.Attr.code_cluster_list with
  | Some { value = Bgp.Attr.Cluster_list l; _ } ->
    check Alcotest.(list int) "cluster id prepended" [ 99; 123 ] l
  | _ -> Alcotest.fail "no CLUSTER_LIST");
  (* existing ORIGINATOR_ID is preserved *)
  let ops2, store2 =
    attr_store [ Bgp.Attr.v (Bgp.Attr.Originator_id 555) ]
  in
  let ops2 =
    {
      ops2 with
      Xbgp.Host_intf.peer_info =
        (fun () ->
          Some (peer ~peer_type:Xbgp.Api.ibgp_session ~rr_client:true ()));
    }
  in
  check_i64 "reflected (existing originator)" Xbgp.Api.filter_accept
    (run (vmm ()) Xbgp.Api.Bgp_outbound_filter ~ops:ops2
       ~args:[ (Xbgp.Api.arg_source, source ()) ]
       1L);
  (match get_attr_of store2 Bgp.Attr.code_originator_id with
  | Some { value = Bgp.Attr.Originator_id oid; _ } ->
    check Alcotest.int "originator untouched" 555 oid
  | _ -> Alcotest.fail "no ORIGINATOR_ID");
  (* non-client to non-client: reject *)
  let ops3, _ = attr_store [] in
  let ops3 =
    {
      ops3 with
      Xbgp.Host_intf.peer_info =
        (fun () ->
          Some (peer ~peer_type:Xbgp.Api.ibgp_session ~rr_client:false ()));
    }
  in
  check_i64 "non-client pair rejected" Xbgp.Api.filter_reject
    (run (vmm ()) Xbgp.Api.Bgp_outbound_filter ~ops:ops3
       ~args:[ (Xbgp.Api.arg_source, source ~rr_client:false ()) ]
       0L);
  (* locally originated routes defer to native *)
  check_i64 "local defers" 5L
    (run (vmm ()) Xbgp.Api.Bgp_outbound_filter ~ops:ops3
       ~args:[ (Xbgp.Api.arg_source, source ~peer_type:0 ~is_local:true ()) ]
       5L);
  (* eBGP-learned routes defer *)
  check_i64 "ebgp-learned defers" 5L
    (run (vmm ()) Xbgp.Api.Bgp_outbound_filter ~ops:ops3
       ~args:[ (Xbgp.Api.arg_source, source ~peer_type:1 ()) ]
       5L)

(* --- origin_validation --- *)

let ov_vmm roas =
  let vmm = Xbgp.Vmm.create ~host:"test" () in
  ok (Xbgp.Vmm.register vmm Xprogs.Origin_validation.program);
  ok
    (Xbgp.Vmm.attach vmm ~program:"origin_validation" ~bytecode:"init"
       ~point:Xbgp.Api.Bgp_init ~order:0);
  ok
    (Xbgp.Vmm.attach vmm ~program:"origin_validation" ~bytecode:"import"
       ~point:Xbgp.Api.Bgp_inbound_filter ~order:0);
  let ops =
    {
      Xbgp.Host_intf.null_ops with
      get_xtra =
        (fun key ->
          if key = "roa_table" then Some (Xprogs.Util.encode_roa_table roas)
          else None);
    }
  in
  Xbgp.Vmm.run_init vmm ~ops;
  vmm

let prefix_arg p =
  let b = Bytes.create 5 in
  Bytes.set_int32_be b 0 (Int32.of_int (Bgp.Prefix.addr p));
  Bytes.set_uint8 b 4 (Bgp.Prefix.len p);
  b

let test_ov_init_populates_map () =
  let roas =
    [
      Rpki.Roa.v (Bgp.Prefix.of_string "10.0.0.0/16") ~max_len:16 ~asn:1;
      Rpki.Roa.v (Bgp.Prefix.of_string "11.0.0.0/16") ~max_len:16 ~asn:2;
      Rpki.Roa.v (Bgp.Prefix.of_string "12.0.0.0/24") ~max_len:24 ~asn:3;
    ]
  in
  let vmm = ov_vmm roas in
  check
    Alcotest.(option int)
    "map holds all ROAs" (Some 3)
    (Xbgp.Vmm.map_size vmm ~program:"origin_validation" 0)

let ov_check vmm prefix_s path expected_tag =
  let ops, store =
    attr_store
      [
        Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq path ]);
        Bgp.Attr.v (Bgp.Attr.Communities [ 77 ]);
      ]
  in
  let verdict =
    run vmm Xbgp.Api.Bgp_inbound_filter ~ops
      ~args:[ (Xbgp.Api.arg_prefix, prefix_arg (Bgp.Prefix.of_string prefix_s)) ]
      (-1L)
  in
  check_i64 "accepted (tag, don't drop)" Xbgp.Api.filter_accept verdict;
  match get_attr_of store Bgp.Attr.code_communities with
  | Some { value = Bgp.Attr.Communities cs; _ } ->
    check_bool "pre-existing community kept" true (List.mem 77 cs);
    check_bool
      (Printf.sprintf "tag %x present in %s"
         expected_tag
         (String.concat "," (List.map string_of_int cs)))
      true (List.mem expected_tag cs)
  | _ -> Alcotest.fail "no communities"

let test_ov_verdicts () =
  let roas =
    [ Rpki.Roa.v (Bgp.Prefix.of_string "10.0.0.0/16") ~max_len:16 ~asn:650 ]
  in
  let vmm = ov_vmm roas in
  ov_check vmm "10.0.0.0/16" [ 1; 2; 650 ] 0xFFFF0001;
  (* valid *)
  ov_check vmm "10.0.0.0/16" [ 1; 2; 651 ] 0xFFFF0002;
  (* invalid *)
  ov_check vmm "99.0.0.0/16" [ 1; 2; 650 ] 0xFFFF0003
(* not found *)

(* --- valley_free --- *)

let vf_vmm pairs internal =
  let vmm = Xbgp.Vmm.create ~host:"test" () in
  ok (Xbgp.Vmm.register vmm Xprogs.Valley_free.program);
  ok
    (Xbgp.Vmm.attach vmm ~program:"valley_free" ~bytecode:"init"
       ~point:Xbgp.Api.Bgp_init ~order:0);
  ok
    (Xbgp.Vmm.attach vmm ~program:"valley_free" ~bytecode:"import"
       ~point:Xbgp.Api.Bgp_inbound_filter ~order:0);
  let ops =
    {
      Xbgp.Host_intf.null_ops with
      get_xtra =
        (fun key ->
          if key = "vf_pairs" then Some (Xprogs.Util.encode_as_pairs pairs)
          else if key = "vf_internal" then
            Some (Xprogs.Util.encode_asn_list internal)
          else None);
    }
  in
  Xbgp.Vmm.run_init vmm ~ops;
  vmm

(* fabric: 20 (child) under 10 (parent) under nothing; session under test
   is 20 -> 10 (upward) *)
let vf_run vmm ~peer_as ~local_as path =
  let ops, _ =
    attr_store [ Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq path ]) ]
  in
  let ops =
    {
      ops with
      Xbgp.Host_intf.peer_info =
        (fun () -> Some (peer ~peer_as ~peer_type:Xbgp.Api.ebgp_session ()));
      get_attr =
        (let base = ops.Xbgp.Host_intf.get_attr in
         fun code -> base code);
    }
  in
  (* local_as comes through peer_info.local_as: rebuild with override *)
  let ops =
    {
      ops with
      Xbgp.Host_intf.peer_info =
        (fun () ->
          Some
            {
              (peer ~peer_as ~peer_type:Xbgp.Api.ebgp_session ()) with
              local_as;
            });
    }
  in
  run vmm Xbgp.Api.Bgp_inbound_filter ~ops (-9L)

let test_valley_free () =
  let pairs = [ (20, 10); (21, 10); (30, 20) ] in
  (* 30 under 20 under 10 *)
  let vmm () = vf_vmm pairs [ 30 ] in
  (* upward session 20->10, path contains down-hop (21,10): valley *)
  check_i64 "valley rejected" Xbgp.Api.filter_reject
    (vf_run (vmm ()) ~peer_as:20 ~local_as:10 [ 21; 10; 20; 999 ]);
  (* upward session, clean ascent: defer to native *)
  check_i64 "clean ascent defers" (-9L)
    (vf_run (vmm ()) ~peer_as:20 ~local_as:10 [ 30; 999 ]);
  (* downward session (10 -> 20 as seen from 20): no check at all *)
  check_i64 "downward session unchecked" (-9L)
    (vf_run (vmm ()) ~peer_as:10 ~local_as:20 [ 21; 10; 20; 999 ]);
  (* internal origin exemption: valley allowed when origin AS is internal *)
  check_i64 "internal origin exempt" (-9L)
    (vf_run (vmm ()) ~peer_as:20 ~local_as:10 [ 21; 10; 20; 30 ])

(* --- geoloc --- *)

let test_geoloc_receive_recovers_attr () =
  let vmm =
    vmm_with Xprogs.Geoloc.program Xbgp.Api.Bgp_receive_message "receive"
  in
  (* a real UPDATE carrying attribute 42 among others *)
  let geoloc_payload = Xprogs.Util.encode_coords ~lat:123456 ~lon:654321 in
  let update =
    Bgp.Message.encode
      (Bgp.Message.Update
         {
           Bgp.Message.withdrawn = [ Bgp.Prefix.of_string "9.9.0.0/16" ];
           attrs =
             [
               Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
               Bgp.Attr.with_flags 0xC0
                 (Bgp.Attr.Unknown { code = 42; payload = geoloc_payload });
               Bgp.Attr.v (Bgp.Attr.Med 9);
             ];
           nlri = [ Bgp.Prefix.of_string "10.0.0.0/16" ];
         })
  in
  let body =
    Bytes.sub update Bgp.Message.header_size
      (Bytes.length update - Bgp.Message.header_size)
  in
  let ops, store = attr_store [] in
  let ops =
    { ops with Xbgp.Host_intf.peer_info = (fun () -> Some (peer ())) }
  in
  ignore
    (run vmm Xbgp.Api.Bgp_receive_message ~ops
       ~args:[ (Xbgp.Api.arg_update_payload, body) ]
       0L);
  match get_attr_of store 42 with
  | Some { value = Bgp.Attr.Unknown { payload; _ }; flags; _ } ->
    check_bool "payload recovered" true (Bytes.equal payload geoloc_payload);
    check Alcotest.int "flags recovered" 0xC0 flags
  | _ -> Alcotest.fail "attribute 42 not recovered from the wire"

let test_geoloc_import_stamps_and_filters () =
  let vmm () =
    vmm_with Xprogs.Geoloc.program Xbgp.Api.Bgp_inbound_filter "import"
  in
  let coords lat lon =
    Xprogs.Util.encode_coords
      ~lat:(Xprogs.Util.coord_of_degrees lat)
      ~lon:(Xprogs.Util.coord_of_degrees lon)
  in
  (* no GeoLoc on an eBGP session: stamp own coordinates *)
  let ops, store = attr_store [] in
  let ops =
    {
      ops with
      Xbgp.Host_intf.peer_info =
        (fun () -> Some (peer ~peer_type:Xbgp.Api.ebgp_session ()));
      get_xtra =
        (fun key -> if key = "coords" then Some (coords 50.0 4.0) else None);
    }
  in
  check_i64 "defers after stamping" 3L
    (run (vmm ()) Xbgp.Api.Bgp_inbound_filter ~ops 3L);
  check_bool "stamped" true (List.assoc_opt 42 !store <> None);
  (* far-away route rejected when geo_max_dist2 configured *)
  let far =
    Bgp.Attr.with_flags 0xC0
      (Bgp.Attr.Unknown { code = 42; payload = coords (-33.8) 151.2 })
  in
  let ops2, _ = attr_store [ far ] in
  let ops2 =
    {
      ops2 with
      Xbgp.Host_intf.peer_info =
        (fun () -> Some (peer ~peer_type:Xbgp.Api.ibgp_session ()));
      get_xtra =
        (fun key ->
          if key = "coords" then Some (coords 48.8 2.3)
          else if key = "geo_max_dist2" then
            Some (Xprogs.Util.encode_u32 (30_000 * 30_000))
          else None);
    }
  in
  check_i64 "far route rejected" Xbgp.Api.filter_reject
    (run (vmm ()) Xbgp.Api.Bgp_inbound_filter ~ops:ops2 0L);
  (* nearby route passes *)
  let near =
    Bgp.Attr.with_flags 0xC0
      (Bgp.Attr.Unknown { code = 42; payload = coords 50.8 4.3 })
  in
  let ops3, _ = attr_store [ near ] in
  let ops3 =
    {
      ops3 with
      Xbgp.Host_intf.peer_info =
        (fun () -> Some (peer ~peer_type:Xbgp.Api.ibgp_session ()));
      get_xtra = ops2.Xbgp.Host_intf.get_xtra;
    }
  in
  check_i64 "near route defers" 3L
    (run (vmm ()) Xbgp.Api.Bgp_inbound_filter ~ops:ops3 3L)

let test_geoloc_encode_writes_wire_attr () =
  let vmm =
    vmm_with Xprogs.Geoloc.program Xbgp.Api.Bgp_encode_message "encode"
  in
  let payload = Xprogs.Util.encode_coords ~lat:1 ~lon:2 in
  let attr =
    Bgp.Attr.with_flags 0xC0
      (Bgp.Attr.Unknown { code = 42; payload })
  in
  let written = Buffer.create 16 in
  let ops, _ = attr_store [ attr ] in
  let ops =
    {
      ops with
      Xbgp.Host_intf.peer_info =
        (fun () -> Some (peer ~peer_type:Xbgp.Api.ibgp_session ()));
      write_buf =
        (fun b ->
          Buffer.add_bytes written b;
          true);
    }
  in
  ignore (run vmm Xbgp.Api.Bgp_encode_message ~ops 0L);
  (* the written bytes must be a valid wire attribute equal to the TLV *)
  let bytes = Buffer.to_bytes written in
  check Alcotest.int "wire size = 3 + payload" 11 (Bytes.length bytes);
  let decoded, _ = Bgp.Attr.decode_from bytes 0 (Bytes.length bytes) in
  check_bool "wire attr parses back" true (Bgp.Attr.equal attr decoded)

let test_geoloc_export_strips_on_ebgp () =
  let vmm () =
    vmm_with Xprogs.Geoloc.program Xbgp.Api.Bgp_outbound_filter "export"
  in
  let attr =
    Bgp.Attr.with_flags 0xC0
      (Bgp.Attr.Unknown
         { code = 42; payload = Xprogs.Util.encode_coords ~lat:1 ~lon:2 })
  in
  let ops, store = attr_store [ attr ] in
  let ops =
    {
      ops with
      Xbgp.Host_intf.peer_info =
        (fun () -> Some (peer ~peer_type:Xbgp.Api.ebgp_session ()));
    }
  in
  check_i64 "defers" 3L (run (vmm ()) Xbgp.Api.Bgp_outbound_filter ~ops 3L);
  check_bool "stripped on eBGP" true (List.assoc_opt 42 !store = None);
  (* untouched on iBGP *)
  let ops2, store2 = attr_store [ attr ] in
  let ops2 =
    {
      ops2 with
      Xbgp.Host_intf.peer_info =
        (fun () -> Some (peer ~peer_type:Xbgp.Api.ibgp_session ()));
    }
  in
  check_i64 "defers on iBGP" 3L
    (run (vmm ()) Xbgp.Api.Bgp_outbound_filter ~ops:ops2 3L);
  check_bool "kept on iBGP" true (List.assoc_opt 42 !store2 <> None)


(* --- prefix_limit --- *)

let test_prefix_limit () =
  let vmm =
    vmm_with Xprogs.Prefix_limit.program Xbgp.Api.Bgp_inbound_filter "import"
  in
  let ops peer_addr =
    {
      Xbgp.Host_intf.null_ops with
      peer_info =
        (fun () ->
          Some { (peer ()) with Xbgp.Host_intf.peer_addr });
      get_xtra =
        (fun key ->
          if key = "max_prefix" then Some (Xprogs.Util.encode_u32 3)
          else None);
    }
  in
  (* three routes from peer 1 pass, the fourth is rejected *)
  for i = 1 to 3 do
    check_i64
      (Printf.sprintf "route %d accepted" i)
      9L
      (run vmm Xbgp.Api.Bgp_inbound_filter ~ops:(ops 1) 9L)
  done;
  check_i64 "fourth rejected" Xbgp.Api.filter_reject
    (run vmm Xbgp.Api.Bgp_inbound_filter ~ops:(ops 1) 9L);
  (* the counter is per peer: peer 2 still has budget *)
  check_i64 "other peer unaffected" 9L
    (run vmm Xbgp.Api.Bgp_inbound_filter ~ops:(ops 2) 9L);
  (* without a configured limit the filter defers *)
  let no_limit =
    {
      Xbgp.Host_intf.null_ops with
      peer_info = (fun () -> Some (peer ()));
    }
  in
  check_i64 "no limit configured" 9L
    (run vmm Xbgp.Api.Bgp_inbound_filter ~ops:no_limit 9L)

(* --- community_strip --- *)

let test_community_strip () =
  let vmm () =
    vmm_with Xprogs.Community_strip.program Xbgp.Api.Bgp_outbound_filter
      "export"
  in
  let local_tag v = (65000 lsl 16) lor v in
  let foreign_tag v = (64999 lsl 16) lor v in
  let run_with attrs peer_type =
    let ops, store = attr_store attrs in
    let ops =
      {
        ops with
        Xbgp.Host_intf.peer_info = (fun () -> Some (peer ~peer_type ()));
      }
    in
    let verdict = run (vmm ()) Xbgp.Api.Bgp_outbound_filter ~ops 5L in
    (verdict, get_attr_of store Bgp.Attr.code_communities)
  in
  (* mixed list: only our AS's tags are removed *)
  let verdict, comms =
    run_with
      [
        Bgp.Attr.v
          (Bgp.Attr.Communities
             [ local_tag 1; foreign_tag 2; local_tag 3; foreign_tag 4 ]);
      ]
      Xbgp.Api.ebgp_session
  in
  check_i64 "defers after rewrite" 5L verdict;
  (match comms with
  | Some { value = Bgp.Attr.Communities cs; _ } ->
    check Alcotest.(list int) "only foreign tags left"
      [ foreign_tag 2; foreign_tag 4 ]
      cs
  | _ -> Alcotest.fail "communities missing");
  (* all local: attribute removed entirely *)
  let _, comms =
    run_with
      [ Bgp.Attr.v (Bgp.Attr.Communities [ local_tag 1; local_tag 2 ]) ]
      Xbgp.Api.ebgp_session
  in
  check_bool "attribute dropped" true (comms = None);
  (* iBGP: untouched *)
  let _, comms =
    run_with
      [ Bgp.Attr.v (Bgp.Attr.Communities [ local_tag 1 ]) ]
      Xbgp.Api.ibgp_session
  in
  (match comms with
  | Some { value = Bgp.Attr.Communities cs; _ } ->
    check Alcotest.(list int) "iBGP untouched" [ local_tag 1 ] cs
  | _ -> Alcotest.fail "communities missing on iBGP")

(* --- med_compare (BGP_DECISION) --- *)

let candidate med =
  Xbgp.Host_intf.candidate_to_bytes
    {
      Xbgp.Host_intf.cd_local_pref = 100;
      cd_as_path_len = 2;
      cd_origin = 0;
      cd_med = med;
      cd_igp_metric = 0;
      cd_originator_id = 1;
      cd_peer_addr = 1;
      cd_is_ebgp = true;
    }

let test_med_compare () =
  let vmm =
    vmm_with Xprogs.Med_compare.program Xbgp.Api.Bgp_decision "compare"
  in
  let decide a b =
    run vmm Xbgp.Api.Bgp_decision
      ~args:
        [
          (Xbgp.Api.arg_candidate_a, candidate a);
          (Xbgp.Api.arg_candidate_b, candidate b);
        ]
      (-1L)
  in
  check_i64 "lower MED first" Xbgp.Api.decision_first (decide 5 10);
  check_i64 "lower MED second" Xbgp.Api.decision_second (decide 10 5);
  check_i64 "equal is a tie" Xbgp.Api.decision_tie (decide 7 7)


(* --- property: bytecode == OCaml reference model --- *)

(* The valley-free bytecode parses the AS_PATH wire payload and probes
   maps; the reference model works on structured lists. Equivalence
   fuzzes the byte-level walk. *)
let vf_reference ~pairs ~internal ~peer_as ~local_as path =
  let upward = List.mem (peer_as, local_as) pairs in
  if not upward then `Defer
  else
    let origin = match List.rev path with a :: _ -> a | [] -> 0 in
    if List.mem origin internal then `Defer
    else
      let rec adjacent = function
        | a :: (b :: _ as rest) ->
          if List.mem (a, b) pairs then true else adjacent rest
        | _ -> false
      in
      if adjacent path then `Reject else `Defer

let prop_valley_free_model =
  let gen =
    QCheck2.Gen.(
      let asn = int_range 1 12 in
      tup5
        (list_size (int_range 0 8) (pair asn asn)) (* pairs *)
        (list_size (int_range 0 3) asn) (* internal *)
        (pair asn asn) (* peer_as, local_as *)
        (list_size (int_range 0 6) asn) (* path *)
        unit)
  in
  QCheck2.Test.make ~count:300 ~name:"valley_free bytecode = model" gen
    (fun (pairs, internal, (peer_as, local_as), path, ()) ->
      let vmm = vf_vmm pairs internal in
      let got =
        if path = [] then `Skip
        else begin
          let ops, _ =
            attr_store [ Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq path ]) ]
          in
          let ops =
            {
              ops with
              Xbgp.Host_intf.peer_info =
                (fun () ->
                  Some
                    {
                      (peer ~peer_as ~peer_type:Xbgp.Api.ebgp_session ()) with
                      local_as;
                    });
            }
          in
          match run vmm Xbgp.Api.Bgp_inbound_filter ~ops (-9L) with
          | -9L -> `Defer
          | 1L -> `Reject
          | _ -> `Other
        end
      in
      got = `Skip
      || got = vf_reference ~pairs ~internal ~peer_as ~local_as path)

(* Same for origin validation (exact-match ROA domain). *)
let prop_ov_model =
  let gen =
    QCheck2.Gen.(
      let asn = int_range 1 9 in
      let prefix =
        map2
          (fun a len -> Bgp.Prefix.v (a lsl 24) len)
          (int_range 1 15) (int_range 8 24)
      in
      tup4
        (list_size (int_range 0 10) (pair prefix asn)) (* exact ROAs *)
        prefix (* route prefix *)
        (list_size (int_range 1 5) asn) (* path *)
        unit)
  in
  QCheck2.Test.make ~count:300 ~name:"origin_validation bytecode = model" gen
    (fun (roa_specs, prefix, path, ()) ->
      (* exact-coverage ROAs: last binding per prefix wins in the map *)
      let roas =
        List.map
          (fun (p, asn) ->
            Rpki.Roa.v p ~max_len:(Bgp.Prefix.len p) ~asn)
          roa_specs
      in
      let vmm = ov_vmm roas in
      let ops, store =
        attr_store [ Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq path ]) ]
      in
      let verdict =
        run vmm Xbgp.Api.Bgp_inbound_filter ~ops
          ~args:[ (Xbgp.Api.arg_prefix, prefix_arg prefix) ]
          (-1L)
      in
      if verdict <> Xbgp.Api.filter_accept then false
      else begin
        let origin = List.nth path (List.length path - 1) in
        (* the map keeps the most recently loaded ROA per prefix *)
        let expected =
          match
            List.fold_left
              (fun acc ((p, asn) : Bgp.Prefix.t * int) ->
                if Bgp.Prefix.equal p prefix then Some asn else acc)
              None roa_specs
          with
          | None -> 0xFFFF0003
          | Some asn when asn = origin -> 0xFFFF0001
          | Some _ -> 0xFFFF0002
        in
        match get_attr_of store Bgp.Attr.code_communities with
        | Some { value = Bgp.Attr.Communities cs; _ } ->
          List.mem expected cs
        | _ -> false
      end)

(* --- util encoders --- *)

(* --- flap_damping (RFC 2439, event-driven) --- *)

let le32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

(* minimal UPDATE body: the withdrawn-routes section plus an empty
   path-attribute section *)
let update_body_withdrawing prefixes =
  let w = Buffer.create 16 in
  List.iter
    (fun (addr, plen) ->
      Buffer.add_uint8 w plen;
      let nbytes = (plen + 7) / 8 in
      for i = 0 to nbytes - 1 do
        Buffer.add_uint8 w ((addr lsr (8 * (3 - i))) land 0xff)
      done)
    prefixes;
  let buf = Buffer.create 32 in
  Buffer.add_uint16_be buf (Buffer.length w);
  Buffer.add_buffer buf w;
  Buffer.add_uint16_be buf 0;
  Bytes.of_string (Buffer.contents buf)

let prefix_arg addr plen =
  let b = Bytes.create 5 in
  Bytes.set_int32_be b 0 (Int32.of_int addr);
  Bytes.set_uint8 b 4 plen;
  b

let test_flap_damping () =
  let tele = Telemetry.create ~enabled:true () in
  let vmm =
    Xprogs.Registry.vmm_of_manifest ~telemetry:tele ~host:"test"
      Xprogs.Flap_damping.manifest
  in
  let addr = 0x0A000000 and plen = 24 in
  let withdraw () =
    ignore
      (run vmm Xbgp.Api.Bgp_receive_message
         ~args:
           [
             ( Xbgp.Api.arg_update_payload,
               update_body_withdrawing [ (addr, plen) ] );
           ]
         0L)
  in
  let announce () =
    run vmm Xbgp.Api.Bgp_inbound_filter
      ~args:[ (Xbgp.Api.arg_prefix, prefix_arg addr plen) ]
      9L
  in
  (* no damping state: the filter defers *)
  check_i64 "clean prefix defers" 9L (announce ());
  (* three flaps (withdraw + re-announce) leave the prefix usable:
     penalties 1000/1750/2313 decay to 750/1313/1735 *)
  for i = 1 to 3 do
    withdraw ();
    check_i64 (Printf.sprintf "announce after flap %d accepted" i) 9L
      (announce ())
  done;
  (* the fourth flap reaches 2735, over the 2500 cut-off: suppressed
     for the next four announcements (2052/1539/1155/867)... *)
  withdraw ();
  for i = 1 to 4 do
    check_i64
      (Printf.sprintf "suppressed announcement %d rejected" i)
      Xbgp.Api.filter_reject (announce ())
  done;
  (* ...until the decayed penalty (651) crosses the 700 reuse bound *)
  check_i64 "prefix reused" 9L (announce ());
  check_i64 "and stays usable" 9L (announce ());
  (* a single damp entry holds the whole history *)
  (match Xbgp.Vmm.map_dump vmm ~program:"flap_damping" with
  | Some [ ("damp", [ (key, _) ]) ] ->
    check_bool "key is [addr BE][plen][pad3]" true
      (key = "\x0a\x00\x00\x00\x18\x00\x00\x00")
  | _ -> Alcotest.fail "unexpected damp-map dump");
  (* map activity is visible through the telemetry registry *)
  check_bool "map updates counted" true
    (Telemetry.counter_value tele ~name:"xbgp_map_updates_total"
       ~labels:
         [ ("host", "test"); ("program", "flap_damping"); ("map", "damp") ]
     > 0)

(* --- rate_limit (per-peer announcement windows) --- *)

let test_rate_limit () =
  let tele = Telemetry.create ~enabled:true () in
  let vmm =
    Xprogs.Registry.vmm_of_manifest ~telemetry:tele ~host:"test"
      Xprogs.Rate_limit.manifest
  in
  let ops peer_addr =
    {
      Xbgp.Host_intf.null_ops with
      peer_info = (fun () -> Some { (peer ()) with Xbgp.Host_intf.peer_addr });
      get_xtra =
        (fun key ->
          if key = "rate_limit" then Some (Xprogs.Util.encode_u32 2)
          else None);
    }
  in
  let new_update p = ignore (run vmm Xbgp.Api.Bgp_receive_message ~ops:(ops p) 0L) in
  let announce p = run vmm Xbgp.Api.Bgp_inbound_filter ~ops:(ops p) 9L in
  (* window of 2: the first two prefixes of the UPDATE pass, the rest drop *)
  new_update 1;
  check_i64 "prefix 1 accepted" 9L (announce 1);
  check_i64 "prefix 2 accepted" 9L (announce 1);
  check_i64 "prefix 3 dropped" Xbgp.Api.filter_reject (announce 1);
  check_i64 "prefix 4 dropped" Xbgp.Api.filter_reject (announce 1);
  (* the limit is per peer: peer 2 has its own window *)
  new_update 2;
  check_i64 "other peer unaffected" 9L (announce 2);
  (* a new UPDATE from peer 1 opens a fresh window, drops accumulate *)
  new_update 1;
  check_i64 "fresh window prefix 1" 9L (announce 1);
  check_i64 "fresh window prefix 2" 9L (announce 1);
  check_i64 "fresh window prefix 3 dropped" Xbgp.Api.filter_reject
    (announce 1);
  (* slot 1 ends with count=2 and 3 cumulative drops; slot 2 with 1/0 *)
  (match Xbgp.Vmm.map_dump vmm ~program:"rate_limit" with
  | Some [ ("win", entries) ] ->
    check
      Alcotest.(list (pair string string))
      "window slots"
      [ (le32 1, le32 2 ^ le32 3); (le32 2, le32 1 ^ le32 0) ]
      entries
  | _ -> Alcotest.fail "unexpected win-map dump");
  (* without a configured limit the filter defers *)
  let no_limit =
    {
      Xbgp.Host_intf.null_ops with
      peer_info = (fun () -> Some (peer ()));
    }
  in
  check_i64 "no limit configured" 9L
    (run vmm Xbgp.Api.Bgp_inbound_filter ~ops:no_limit 9L);
  check_bool "drops visible as map updates" true
    (Telemetry.counter_value tele ~name:"xbgp_map_updates_total"
       ~labels:[ ("host", "test"); ("program", "rate_limit"); ("map", "win") ]
     > 0)

let test_util_encoders () =
  let b = Xprogs.Util.encode_u32 0x01020304 in
  check Alcotest.int "u32 BE" 0x01
    (Bytes.get_uint8 b 0);
  let roas =
    [ Rpki.Roa.v (Bgp.Prefix.of_string "10.0.0.0/16") ~max_len:16 ~asn:7 ]
  in
  let t = Xprogs.Util.encode_roa_table roas in
  check Alcotest.int "roa entry size" 12 (Bytes.length t);
  check Alcotest.int "addr BE" 10 (Bytes.get_uint8 t 0);
  check Alcotest.int "len" 16 (Bytes.get_uint8 t 4);
  check Alcotest.int "asn" 7 (Int32.to_int (Bytes.get_int32_be t 8));
  let pairs = Xprogs.Util.encode_as_pairs [ (1, 2); (3, 4) ] in
  check Alcotest.int "pairs size" 16 (Bytes.length pairs);
  check_bool "coord fixed point positive" true
    (Xprogs.Util.coord_of_degrees (-33.87) > 0)

(* Each shipped manifest file but the composed edge router restates one
   program's registry manifest by hand: the two must parse equal. The
   directory is [../manifests] under [dune runtest] and [manifests] when
   the binary runs from the repository root. *)
let test_shipped_manifests () =
  let dir = List.find Sys.file_exists [ "../manifests"; "manifests" ] in
  let files =
    List.filter
      (fun f ->
        Filename.check_suffix f ".manifest" && f <> "edge_router.manifest")
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  check_bool "some shipped manifests" true (files <> []);
  List.iter
    (fun file ->
      let name = Filename.chop_suffix file ".manifest" in
      let text =
        In_channel.with_open_bin (Filename.concat dir file)
          In_channel.input_all
      in
      match (Xbgp.Manifest.parse text, Xprogs.Registry.find_manifest name) with
      | Error e, _ -> Alcotest.failf "%s: %s" file e
      | Ok _, None -> Alcotest.failf "%s: no registered program %s" file name
      | Ok m, Some want ->
        check_bool (file ^ " equals the registry manifest") true (m = want))
    files

let () =
  Alcotest.run "xprogs"
    [
      ( "manifests",
        [
          Alcotest.test_case "shipped files match the registry" `Quick
            test_shipped_manifests;
        ] );
      ("igp_filter", [ Alcotest.test_case "Listing 1" `Quick test_igp_filter ]);
      ( "route_reflector",
        [
          Alcotest.test_case "import loop checks" `Quick
            test_rr_import_loop_checks;
          Alcotest.test_case "export reflection" `Quick
            test_rr_export_reflection;
        ] );
      ( "origin_validation",
        [
          Alcotest.test_case "init populates map" `Quick
            test_ov_init_populates_map;
          Alcotest.test_case "verdicts + tagging" `Quick test_ov_verdicts;
        ] );
      ( "valley_free",
        [ Alcotest.test_case "pair detection" `Quick test_valley_free ] );
      ( "prefix_limit",
        [ Alcotest.test_case "stateful counting" `Quick test_prefix_limit ] );
      ( "community_strip",
        [ Alcotest.test_case "strips own tags" `Quick test_community_strip ] );
      ( "med_compare",
        [ Alcotest.test_case "decision verdicts" `Quick test_med_compare ] );
      ( "bytecode-vs-model",
        [
          Qc.to_alcotest prop_valley_free_model;
          Qc.to_alcotest prop_ov_model;
        ] );
      ( "geoloc",
        [
          Alcotest.test_case "receive recovers attr" `Quick
            test_geoloc_receive_recovers_attr;
          Alcotest.test_case "import stamps and filters" `Quick
            test_geoloc_import_stamps_and_filters;
          Alcotest.test_case "encode writes wire attr" `Quick
            test_geoloc_encode_writes_wire_attr;
          Alcotest.test_case "export strips on eBGP" `Quick
            test_geoloc_export_strips_on_ebgp;
        ] );
      ( "flap_damping",
        [
          Alcotest.test_case "suppress then reuse" `Quick test_flap_damping;
        ] );
      ( "rate_limit",
        [
          Alcotest.test_case "per-peer windows" `Quick test_rate_limit;
        ] );
      ("util", [ Alcotest.test_case "encoders" `Quick test_util_encoders ]);
    ]
