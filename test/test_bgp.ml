(* Tests for the RFC 4271 wire substrate: prefixes, path attributes and
   the message codec, with property tests on every round trip. *)

open Bgp

let check = Alcotest.check
let check_bool = Alcotest.check Alcotest.bool

(* --- prefixes --- *)

let test_prefix_string () =
  let p = Prefix.of_string "192.168.10.0/24" in
  check Alcotest.string "roundtrip" "192.168.10.0/24" (Prefix.to_string p);
  check Alcotest.int "length" 24 (Prefix.len p);
  (* host bits are cleared *)
  let q = Prefix.of_string "192.168.10.77/24" in
  check_bool "normalized" true (Prefix.equal p q);
  List.iter
    (fun s ->
      check_bool ("rejects " ^ s) true
        (match Prefix.of_string s with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ "192.168.1.0"; "1.2.3.4/33"; "1.2.3/24"; "a.b.c.d/8"; "1.2.3.256/24" ]

let test_prefix_relations () =
  let p8 = Prefix.of_string "10.0.0.0/8" in
  let p16 = Prefix.of_string "10.1.0.0/16" in
  let other = Prefix.of_string "11.0.0.0/8" in
  check_bool "subset" true (Prefix.subset p16 p8);
  check_bool "not subset up" false (Prefix.subset p8 p16);
  check_bool "disjoint" false (Prefix.subset p16 other);
  check_bool "mem" true
    (Prefix.mem (Prefix.addr_of_quad (10, 1, 2, 3)) p16);
  check_bool "not mem" false
    (Prefix.mem (Prefix.addr_of_quad (10, 2, 2, 3)) p16);
  check Alcotest.int "bit 0 of 128.0.0.0/1" 1
    (Prefix.bit (Prefix.of_string "128.0.0.0/1") 0)

let gen_prefix =
  QCheck2.Gen.(
    map2
      (fun addr len -> Prefix.v addr len)
      (int_range 0 0xFFFFFFFF) (int_range 0 32))

let prop_prefix_wire_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"prefix NLRI wire roundtrip" gen_prefix
    (fun p ->
      let buf = Bytes.create (Prefix.wire_size p) in
      let n = Prefix.encode_into buf 0 p in
      let q, n' = Prefix.decode_from buf 0 (Bytes.length buf) in
      n = n' && Prefix.equal p q)

let prop_prefix_string_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"prefix string roundtrip" gen_prefix
    (fun p -> Prefix.equal p (Prefix.of_string (Prefix.to_string p)))

(* provenance and [show] output print prefixes through both paths *)
let prop_prefix_to_string_is_pp =
  QCheck2.Test.make ~count:500 ~name:"prefix to_string = pp" gen_prefix
    (fun p -> Prefix.to_string p = Fmt.str "%a" Prefix.pp p)

(* --- attributes --- *)

let gen_asn = QCheck2.Gen.int_range 1 0xFFFFFFFF
let gen_u32 = QCheck2.Gen.int_range 0 0xFFFFFFFF

let gen_segment =
  QCheck2.Gen.(
    let asns = list_size (int_range 1 8) gen_asn in
    oneof
      [ map (fun l -> Attr.Seq l) asns; map (fun l -> Attr.Set l) asns ])

let gen_attr_value =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun o -> Attr.Origin o)
          (oneofl [ Attr.Igp; Attr.Egp; Attr.Incomplete ]);
        map (fun s -> Attr.As_path s) (list_size (int_range 0 3) gen_segment);
        map (fun a -> Attr.Next_hop a) gen_u32;
        map (fun m -> Attr.Med m) gen_u32;
        map (fun p -> Attr.Local_pref p) gen_u32;
        return Attr.Atomic_aggregate;
        map2 (fun a r -> Attr.Aggregator (a, r)) gen_asn gen_u32;
        map (fun cs -> Attr.Communities cs) (list_size (int_range 1 6) gen_u32);
        map (fun r -> Attr.Originator_id r) gen_u32;
        map (fun l -> Attr.Cluster_list l) (list_size (int_range 1 4) gen_u32);
        map
          (fun s -> Attr.Unknown { code = 42; payload = Bytes.of_string s })
          (string_size (int_range 0 64));
      ])

let gen_attr = QCheck2.Gen.map Attr.v gen_attr_value

let prop_attr_wire_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"attribute wire roundtrip" gen_attr
    (fun a ->
      let buf = Buffer.create 32 in
      Attr.encode_into_buffer buf a;
      let bytes = Buffer.to_bytes buf in
      let a', consumed = Attr.decode_from bytes 0 (Bytes.length bytes) in
      consumed = Bytes.length bytes && Attr.equal a a')

let prop_attr_tlv_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"attribute neutral TLV roundtrip"
    gen_attr (fun a -> Attr.equal a (Attr.of_tlv (Attr.to_tlv a)))

let test_attr_extended_length () =
  (* a payload > 255 bytes forces the extended-length flag *)
  let a =
    Attr.v (Attr.Unknown { code = 99; payload = Bytes.create 300 })
  in
  let buf = Buffer.create 512 in
  Attr.encode_into_buffer buf a;
  let bytes = Buffer.to_bytes buf in
  check_bool "extended flag set" true
    (Bytes.get_uint8 bytes 0 land Attr.flag_extended <> 0);
  let a', _ = Attr.decode_from bytes 0 (Bytes.length bytes) in
  check_bool "payload preserved" true
    (match a'.value with
    | Attr.Unknown { payload; _ } -> Bytes.length payload = 300
    | _ -> false)

let test_as_path_helpers () =
  let segs = [ Attr.Seq [ 1; 2 ]; Attr.Set [ 3; 4; 5 ]; Attr.Seq [ 6 ] ] in
  check Alcotest.int "length counts set as 1" 4 (Attr.as_path_length segs);
  check
    Alcotest.(list int)
    "asns flattened" [ 1; 2; 3; 4; 5; 6 ]
    (Attr.as_path_asns segs);
  check Alcotest.(option int) "first" (Some 1) (Attr.as_path_first segs);
  check Alcotest.(option int) "origin" (Some 6) (Attr.as_path_origin segs);
  check_bool "prepend extends leading seq" true
    (Attr.as_path_prepend 9 segs = Attr.Seq [ 9; 1; 2 ] :: List.tl segs);
  check_bool "prepend onto empty" true
    (Attr.as_path_prepend 9 [] = [ Attr.Seq [ 9 ] ])

let test_attr_malformed () =
  let raises f =
    match f () with exception Attr.Parse_error _ -> true | _ -> false
  in
  check_bool "truncated header" true
    (raises (fun () -> Attr.decode_from (Bytes.create 1) 0 1));
  check_bool "bad origin" true
    (raises (fun () ->
         Attr.decode_payload ~code:Attr.code_origin ~flags:0x40
           (Bytes.of_string "\x07")));
  check_bool "bad next-hop length" true
    (raises (fun () ->
         Attr.decode_payload ~code:Attr.code_next_hop ~flags:0x40
           (Bytes.of_string "\x01\x02")));
  check_bool "truncated AS_PATH segment" true
    (raises (fun () ->
         Attr.decode_payload ~code:Attr.code_as_path ~flags:0x40
           (Bytes.of_string "\x02\x05\x00\x00")))

(* --- messages --- *)

let gen_update =
  QCheck2.Gen.(
    let prefixes = list_size (int_range 0 20) gen_prefix in
    map3
      (fun withdrawn attrs nlri -> { Message.withdrawn; attrs; nlri })
      prefixes
      (list_size (int_range 0 6) gen_attr)
      prefixes)

let prop_update_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"UPDATE encode/decode roundtrip"
    gen_update (fun u ->
      match Message.decode (Message.encode (Message.Update u)) with
      | Message.Update u' ->
        List.for_all2 Prefix.equal u.withdrawn u'.withdrawn
        && List.for_all2 Attr.equal u.attrs u'.attrs
        && List.for_all2 Prefix.equal u.nlri u'.nlri
      | _ -> false
      | exception _ -> false)

let test_open_roundtrip () =
  let o =
    { Message.version = 4; my_as = 65001; hold_time = 90; bgp_id = 0x0A000001 }
  in
  match Message.decode (Message.encode (Message.Open o)) with
  | Message.Open o' -> check_bool "open fields" true (o = o')
  | _ -> Alcotest.fail "expected OPEN"

let test_open_as_trans () =
  (* 32-bit ASNs use AS_TRANS in the 16-bit OPEN field *)
  let o =
    { Message.version = 4; my_as = 200000; hold_time = 90; bgp_id = 1 }
  in
  match Message.decode (Message.encode (Message.Open o)) with
  | Message.Open o' ->
    check Alcotest.int "AS_TRANS" Message.as_trans o'.my_as
  | _ -> Alcotest.fail "expected OPEN"

let test_keepalive_notification () =
  check_bool "keepalive" true
    (Message.decode (Message.encode Message.Keepalive) = Message.Keepalive);
  let n = { Message.code = 6; subcode = 2; data = Bytes.of_string "bye" } in
  match Message.decode (Message.encode (Message.Notification n)) with
  | Message.Notification n' ->
    check_bool "notification" true
      (n'.code = 6 && n'.subcode = 2 && Bytes.to_string n'.data = "bye")
  | _ -> Alcotest.fail "expected NOTIFICATION"

let test_decode_errors () =
  let raises b =
    match Message.decode b with
    | exception Message.Parse_error _ -> true
    | _ -> false
  in
  check_bool "short buffer" true (raises (Bytes.create 10));
  let m = Message.encode Message.Keepalive in
  Bytes.set_uint8 m 3 0;
  check_bool "bad marker" true (raises m);
  let m = Message.encode Message.Keepalive in
  Bytes.set_uint16_be m 16 100;
  check_bool "length mismatch" true (raises m);
  let m = Message.encode Message.Keepalive in
  Bytes.set_uint8 m 18 9;
  check_bool "unknown type" true (raises m)

let test_deframe () =
  let m1 = Message.encode Message.Keepalive in
  let m2 =
    Message.encode
      (Message.Update { Message.update_empty with nlri = [ Prefix.of_string "10.0.0.0/8" ] })
  in
  let stream = Bytes.cat m1 m2 in
  (* whole stream: two frames, nothing left *)
  let frames, rest = Message.deframe stream in
  check Alcotest.int "two frames" 2 (List.length frames);
  check Alcotest.int "no leftover" 0 (Bytes.length rest);
  (* partial second message *)
  let partial = Bytes.sub stream 0 (Bytes.length m1 + 5) in
  let frames, rest = Message.deframe partial in
  check Alcotest.int "one frame" 1 (List.length frames);
  check Alcotest.int "leftover" 5 (Bytes.length rest);
  (* garbage length field *)
  let bad = Bytes.make 19 '\xff' in
  Bytes.set_uint16_be bad 16 5;
  check_bool "invalid length rejected" true
    (match Message.deframe bad with
    | exception Message.Parse_error _ -> true
    | _ -> false)


let test_message_size_limit () =
  (* a frame beyond 4096 bytes must be refused at encode time *)
  check_bool "oversized update rejected" true
    (match
       Message.encode_update_raw ~withdrawn:[]
         ~attr_bytes:(Bytes.create 5000) ~nlri:[]
     with
    | exception Message.Parse_error _ -> true
    | _ -> false);
  (* and the largest the daemons build (~4000 + small nlri) fits *)
  check_bool "4000-byte attrs accepted" true
    (match
       Message.encode_update_raw ~withdrawn:[]
         ~attr_bytes:(Bytes.create 4000)
         ~nlri:[ Prefix.of_string "10.0.0.0/8" ]
     with
    | _ -> true
    | exception Message.Parse_error _ -> false)

(* --- robustness: arbitrary bytes must fail cleanly --- *)

let gen_bytes =
  QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 128)))

let prop_decode_never_crashes =
  QCheck2.Test.make ~count:2000 ~name:"Message.decode total on garbage"
    gen_bytes (fun b ->
      match Message.decode b with
      | _ -> true
      | exception Message.Parse_error _ -> true
      | exception _ -> false)

let prop_deframe_never_crashes =
  QCheck2.Test.make ~count:2000 ~name:"Message.deframe total on garbage"
    gen_bytes (fun b ->
      match Message.deframe b with
      | _ -> true
      | exception Message.Parse_error _ -> true
      | exception _ -> false)

let prop_attr_decode_never_crashes =
  QCheck2.Test.make ~count:2000 ~name:"Attr.of_tlv total on garbage"
    gen_bytes (fun b ->
      match Attr.of_tlv b with
      | _ -> true
      | exception Attr.Parse_error _ -> true
      | exception _ -> false)

(* a valid frame with flipped bytes: decode may fail but never crashes,
   and re-encoding a successful decode is stable *)
let prop_mutated_update =
  QCheck2.Test.make ~count:1000 ~name:"mutated UPDATE fails cleanly"
    QCheck2.Gen.(triple gen_update (int_range 0 200) (int_range 0 255))
    (fun (u, pos, v) ->
      let b = Message.encode (Message.Update u) in
      let pos = pos mod Bytes.length b in
      Bytes.set_uint8 b pos v;
      match Message.decode b with
      | _ -> true
      | exception Message.Parse_error _ -> true
      | exception _ -> false)

(* every strict prefix of a valid frame must error — truncation can
   neither decode successfully nor raise anything but Parse_error *)
let prop_truncated_update =
  QCheck2.Test.make ~count:200 ~name:"truncated UPDATE always errors"
    gen_update (fun u ->
      let b = Message.encode (Message.Update u) in
      let ok = ref true in
      for len = 0 to Bytes.length b - 1 do
        match Message.decode (Bytes.sub b 0 len) with
        | _ -> ok := false
        | exception Message.Parse_error _ -> ()
        | exception _ -> ok := false
      done;
      !ok)

let prop_truncated_attr =
  QCheck2.Test.make ~count:500 ~name:"truncated attribute always errors"
    gen_attr (fun a ->
      let buf = Buffer.create 32 in
      Attr.encode_into_buffer buf a;
      let b = Buffer.to_bytes buf in
      let ok = ref true in
      for len = 0 to Bytes.length b - 1 do
        match Attr.decode_from (Bytes.sub b 0 len) 0 len with
        | _ -> ok := false
        | exception Attr.Parse_error _ -> ()
        | exception _ -> ok := false
      done;
      (* and truncating the neutral TLV errors too *)
      let tlv = Attr.to_tlv a in
      for len = 0 to Bytes.length tlv - 1 do
        match Attr.of_tlv (Bytes.sub tlv 0 len) with
        | _ -> ok := false
        | exception Attr.Parse_error _ -> ()
        | exception _ -> ok := false
      done;
      !ok)

let test_encode_update_raw_matches () =
  (* the raw builder must agree with the typed encoder *)
  let u =
    {
      Message.withdrawn = [ Prefix.of_string "10.2.0.0/16" ];
      attrs =
        [
          Attr.v (Attr.Origin Attr.Igp);
          Attr.v (Attr.As_path [ Attr.Seq [ 1; 2 ] ]);
          Attr.v (Attr.Next_hop 0x0A000001);
        ];
      nlri = [ Prefix.of_string "10.1.0.0/16"; Prefix.of_string "10.3.0.0/24" ];
    }
  in
  let typed = Message.encode (Message.Update u) in
  let ab = Buffer.create 64 in
  List.iter (Attr.encode_into_buffer ab) u.attrs;
  let raw =
    Message.encode_update_raw ~withdrawn:u.withdrawn
      ~attr_bytes:(Buffer.to_bytes ab) ~nlri:u.nlri
  in
  check_bool "byte-identical" true (Bytes.equal typed raw)

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "bgp"
    [
      ( "prefix",
        [
          Alcotest.test_case "string parsing" `Quick test_prefix_string;
          Alcotest.test_case "relations" `Quick test_prefix_relations;
          qc prop_prefix_wire_roundtrip;
          qc prop_prefix_string_roundtrip;
          qc prop_prefix_to_string_is_pp;
        ] );
      ( "attr",
        [
          Alcotest.test_case "extended length" `Quick
            test_attr_extended_length;
          Alcotest.test_case "as-path helpers" `Quick test_as_path_helpers;
          Alcotest.test_case "malformed payloads" `Quick test_attr_malformed;
          qc prop_attr_wire_roundtrip;
          qc prop_attr_tlv_roundtrip;
        ] );
      ( "message",
        [
          Alcotest.test_case "open" `Quick test_open_roundtrip;
          Alcotest.test_case "open AS_TRANS" `Quick test_open_as_trans;
          Alcotest.test_case "keepalive/notification" `Quick
            test_keepalive_notification;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "deframe" `Quick test_deframe;
          Alcotest.test_case "raw update builder" `Quick
            test_encode_update_raw_matches;
          Alcotest.test_case "size limit" `Quick test_message_size_limit;
          qc prop_update_roundtrip;
        ] );
      ( "robustness",
        [
          qc prop_decode_never_crashes;
          qc prop_deframe_never_crashes;
          qc prop_attr_decode_never_crashes;
          qc prop_mutated_update;
          qc prop_truncated_update;
          qc prop_truncated_attr;
        ] );
    ]
