(* Tests for the two daemon implementations: their attribute
   representations (interned records vs wire-form eattrs), their adapters
   to the neutral TLV, and daemon-level protocol behaviour. *)

let check = Alcotest.check
let check_bool = Alcotest.check Alcotest.bool

let sample_attrs =
  [
    Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Egp);
    Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 10; 20 ]; Bgp.Attr.Set [ 30 ] ]);
    Bgp.Attr.v (Bgp.Attr.Next_hop 0x0A000001);
    Bgp.Attr.v (Bgp.Attr.Med 5);
    Bgp.Attr.v (Bgp.Attr.Local_pref 200);
    Bgp.Attr.v (Bgp.Attr.Communities [ 0x10001; 0x10002 ]);
    Bgp.Attr.v (Bgp.Attr.Originator_id 7);
    Bgp.Attr.v (Bgp.Attr.Cluster_list [ 1; 2 ]);
  ]

(* --- FRR-like interned attributes --- *)

let test_intern_roundtrip () =
  let t = Frrouting.Attr_intern.of_attrs sample_attrs in
  let back = Frrouting.Attr_intern.to_attrs t in
  check_bool "all known attrs survive" true
    (List.for_all2 Bgp.Attr.equal sample_attrs back)

let test_intern_sharing () =
  Frrouting.Attr_intern.reset_intern_table ();
  let a = Frrouting.Attr_intern.of_attrs sample_attrs in
  let b = Frrouting.Attr_intern.of_attrs sample_attrs in
  check_bool "same attrs share one record" true (a == b);
  check Alcotest.int "one table entry" 1
    (Frrouting.Attr_intern.intern_table_size ())

(* The table holds records weakly: 1,000 distinct sets nothing references
   any more are reclaimed by a full major collection. *)
let test_intern_reclaims () =
  let module A = Frrouting.Attr_intern in
  let make () =
    ignore
      (Sys.opaque_identity
         (List.init 1000 (fun i ->
              A.of_attrs
                Bgp.Attr.
                  [
                    v (Origin Igp);
                    v (As_path [ Seq [ 65000 + i ] ]);
                    v (Next_hop 0x0A000001);
                  ])))
  in
  Gc.full_major ();
  let before = A.intern_table_size () in
  make ();
  check_bool "1000 sets interned" true (A.intern_table_size () >= before + 1000);
  Gc.full_major ();
  check_bool "dead sets reclaimed" true (A.intern_table_size () < before + 1000)

let test_intern_path_len_cached () =
  let t = Frrouting.Attr_intern.of_attrs sample_attrs in
  check Alcotest.int "seq(2) + set(1)" 3 t.as_path_len

let test_intern_tlv_adapter () =
  let t = Frrouting.Attr_intern.of_attrs sample_attrs in
  (* every attribute fetched through the adapter parses back identically *)
  List.iter
    (fun (a : Bgp.Attr.t) ->
      match Frrouting.Attr_intern.get_tlv t (Bgp.Attr.code a) with
      | Some tlv ->
        check_bool "tlv parses to same attr" true
          (Bgp.Attr.equal a (Bgp.Attr.of_tlv tlv))
      | None -> Alcotest.fail "attribute missing through adapter")
    sample_attrs;
  check_bool "absent attr is None" true
    (Frrouting.Attr_intern.get_tlv t Bgp.Attr.code_atomic_aggregate = None);
  (* set_tlv installs an unknown attribute in [extra] *)
  let geoloc =
    Bgp.Attr.with_flags 0xC0
      (Bgp.Attr.Unknown { code = 42; payload = Bytes.of_string "abcdefgh" })
  in
  let t' = Frrouting.Attr_intern.set_tlv t (Bgp.Attr.to_tlv geoloc) in
  check_bool "extra attr readable" true
    (Frrouting.Attr_intern.has_extra t' 42);
  (match Frrouting.Attr_intern.get_tlv t' 42 with
  | Some tlv ->
    check_bool "extra attr roundtrip" true
      (Bgp.Attr.equal geoloc (Bgp.Attr.of_tlv tlv))
  | None -> Alcotest.fail "extra missing");
  (* ... but the native encoder does not emit it *)
  check_bool "native encoder skips extras" true
    (List.for_all
       (fun (a : Bgp.Attr.t) -> Bgp.Attr.code a <> 42)
       (Frrouting.Attr_intern.to_attrs t'));
  let t'' = Frrouting.Attr_intern.remove t' 42 in
  check_bool "remove extra" false (Frrouting.Attr_intern.has_extra t'' 42)

(* --- BIRD-like eattrs --- *)

let test_eattr_roundtrip () =
  let t = Bird.Eattr.of_attrs sample_attrs in
  check_bool "all known attrs survive" true
    (List.for_all2 Bgp.Attr.equal sample_attrs (Bird.Eattr.to_attrs t))

let test_eattr_accessors () =
  let t = Bird.Eattr.of_attrs sample_attrs in
  check Alcotest.int "origin" 1 (Bird.Eattr.origin t);
  check Alcotest.int "next hop" 0x0A000001 (Bird.Eattr.next_hop t);
  check Alcotest.int "med" 5 (Bird.Eattr.med t);
  check Alcotest.int "local pref" 200 (Bird.Eattr.local_pref t);
  check Alcotest.int "originator" 7 (Bird.Eattr.originator_id t);
  check Alcotest.int "cluster len" 2 (Bird.Eattr.cluster_list_len t);
  check Alcotest.int "path len (set = 1)" 3 t.path_len;
  check Alcotest.(list int) "asns" [ 10; 20; 30 ] (Bird.Eattr.path_asns t);
  check Alcotest.int "neighbor as" 10 (Bird.Eattr.neighbor_as t);
  check Alcotest.(option int) "origin as" (Some 30) (Bird.Eattr.origin_as t);
  check_bool "contains" true (Bird.Eattr.contains_as t 20);
  check_bool "not contains" false (Bird.Eattr.contains_as t 99)

let test_eattr_wire_mutations () =
  let t = Bird.Eattr.of_attrs sample_attrs in
  let t = Bird.Eattr.prepend_as t 999 in
  check Alcotest.(list int) "prepended" [ 999; 10; 20; 30 ]
    (Bird.Eattr.path_asns t);
  check Alcotest.int "path len updated" 4 t.path_len;
  let t = Bird.Eattr.prepend_cluster t 77 in
  check Alcotest.int "cluster grew" 3 (Bird.Eattr.cluster_list_len t);
  let t = Bird.Eattr.append_community t 0xFFFF0001 in
  check_bool "community appended" true
    (List.exists
       (fun (a : Bgp.Attr.t) ->
         match a.value with
         | Bgp.Attr.Communities cs -> List.mem 0xFFFF0001 cs
         | _ -> false)
       (Bird.Eattr.to_attrs t));
  (* prepend extends the leading AS_SEQUENCE on the wire, not a new seg *)
  let t2 = Bird.Eattr.of_attrs [ Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 1 ] ]) ] in
  let t2 = Bird.Eattr.prepend_as t2 2 in
  (match Bird.Eattr.to_attrs t2 with
  | [ { value = Bgp.Attr.As_path [ Bgp.Attr.Seq [ 2; 1 ] ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected single extended sequence");
  (* prepend onto an empty path *)
  let t3 = Bird.Eattr.prepend_as Bird.Eattr.empty 5 in
  check Alcotest.(list int) "prepend to empty" [ 5 ] (Bird.Eattr.path_asns t3)

let test_eattr_tlv_adapter () =
  let t = Bird.Eattr.of_attrs sample_attrs in
  List.iter
    (fun (a : Bgp.Attr.t) ->
      match Bird.Eattr.get_tlv t (Bgp.Attr.code a) with
      | Some tlv ->
        check_bool "tlv parses back" true
          (Bgp.Attr.equal a (Bgp.Attr.of_tlv tlv))
      | None -> Alcotest.fail "missing through adapter")
    sample_attrs

(* the two representations agree through their adapters *)
let gen_attrs =
  QCheck2.Gen.(
    let asns = list_size (int_range 1 6) (int_range 1 70000) in
    map
      (fun (path, nh, med, comms) ->
        [
          Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
          Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq path ]);
          Bgp.Attr.v (Bgp.Attr.Next_hop nh);
          Bgp.Attr.v (Bgp.Attr.Med med);
          Bgp.Attr.v (Bgp.Attr.Communities comms);
        ])
      (tup4 asns (int_range 0 0xFFFFFFFF) (int_range 0 1000)
         (list_size (int_range 1 4) (int_range 0 0xFFFFFFFF))))

let prop_representations_agree =
  QCheck2.Test.make ~count:300
    ~name:"FRR and BIRD adapters expose identical TLVs" gen_attrs
    (fun attrs ->
      let frr = Frrouting.Attr_intern.of_attrs attrs in
      let bird = Bird.Eattr.of_attrs attrs in
      List.for_all
        (fun code ->
          let a = Frrouting.Attr_intern.get_tlv frr code in
          let b = Bird.Eattr.get_tlv bird code in
          match (a, b) with
          | None, None -> true
          | Some x, Some y -> Bytes.equal x y
          | _ -> false)
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 42 ])

(* --- the REPR boundary --- *)

(* Both daemons are [Pipeline.Make] over a host representation, so any
   behavioural difference between them has to come from a [REPR] step.
   Run every step through both representations on the same well-formed
   attributes and policy inputs; results must be identical, compared in
   the shared codec form or as plain values. *)

type observation =
  | Attrs of Bgp.Attr.t list
  | Int of int
  | Opt of int option
  | Bool of bool

type step_input = {
  attrs : Bgp.Attr.t list;
  router_id : int;
  cluster_id : int;
  tag : int;
  local_as : int;
  local_addr : int;
  strip_med : bool;
  next_hop_self : bool;
  probe_as : int;
}

module Steps (R : Pipeline.REPR) = struct
  let run i =
    let a = R.of_attrs i.attrs in
    let out b = Attrs (R.to_attrs b) in
    [
      ("of_attrs", out a);
      ( "reflection_loop",
        Bool
          (R.reflection_loop a ~router_id:i.router_id
             ~cluster_id:i.cluster_id) );
      ("ov_tag", out (R.ov_tag a i.tag));
      ( "reflect",
        out (R.reflect a ~originator_id:i.router_id ~cluster_id:i.cluster_id)
      );
      ( "canonicalize_ebgp",
        out
          (R.canonicalize_ebgp a ~local_as:i.local_as ~local_addr:i.local_addr
             ~strip_med:i.strip_med) );
      ( "canonicalize_ibgp",
        out
          (R.canonicalize_ibgp a ~next_hop_self:i.next_hop_self
             ~local_addr:i.local_addr) );
      ("local_pref", Int (R.local_pref a));
      ("as_path_len", Int (R.as_path_len a));
      ("origin", Int (R.origin a));
      ("med", Int (R.med a));
      ("neighbor_as", Int (R.neighbor_as a));
      ("originator_id", Int (R.originator_id a ~default:i.router_id));
      ("cluster_list_len", Int (R.cluster_list_len a));
      ("next_hop", Int (R.next_hop a));
      ("origin_as", Opt (R.origin_as a));
      ("contains_as", Bool (R.contains_as a i.probe_as));
    ]
end

module Frr_steps = Steps (Frrouting.Bgpd.Repr)
module Bird_steps = Steps (Bird.Bgpd.Repr)

(* Well-formed: the three mandatory attributes, optional known ones with
   their default flags, non-zero router and cluster ids. Small id and
   ASN ranges make the loop checks and [contains_as] hit often. *)
let gen_step_input =
  QCheck2.Gen.(
    let id = int_range 1 6 in
    let asn = int_range 1 12 in
    let opt g = option ~ratio:0.5 g in
    let* origin = oneofl Bgp.Attr.[ Igp; Egp; Incomplete ] in
    let* path =
      list_size (int_range 0 3)
        (let* asns = list_size (int_range 1 4) asn in
         oneofl [ Bgp.Attr.Seq asns; Bgp.Attr.Seq asns; Bgp.Attr.Set asns ])
    in
    let* nh = int_range 1 0xFFFFFFFF in
    let* med = opt (int_range 0 1000) in
    let* lp = opt (int_range 0 300) in
    let* atomic = bool in
    let* aggregator = opt (pair asn (int_range 1 0xFFFFFFFF)) in
    let* comms = opt (list_size (int_range 1 3) (int_range 0 0xFFFFFFFF)) in
    let* originator = opt id in
    let* clusters = opt (list_size (int_range 1 3) id) in
    let* router_id = id and* cluster_id = id in
    let* tag = int_range 0 0xFFFFFFFF in
    let* local_as = asn and* local_addr = int_range 1 0xFFFFFFFF in
    let* strip_med = bool and* next_hop_self = bool in
    let* probe_as = asn in
    let some v = Option.to_list (Option.map Bgp.Attr.v v) in
    let attrs =
      List.concat
        [
          [
            Bgp.Attr.v (Bgp.Attr.Origin origin);
            Bgp.Attr.v (Bgp.Attr.As_path path);
            Bgp.Attr.v (Bgp.Attr.Next_hop nh);
          ];
          some (Option.map (fun m -> Bgp.Attr.Med m) med);
          some (Option.map (fun l -> Bgp.Attr.Local_pref l) lp);
          (if atomic then [ Bgp.Attr.v Bgp.Attr.Atomic_aggregate ] else []);
          some
            (Option.map (fun (a, r) -> Bgp.Attr.Aggregator (a, r)) aggregator);
          some (Option.map (fun c -> Bgp.Attr.Communities c) comms);
          some (Option.map (fun o -> Bgp.Attr.Originator_id o) originator);
          some (Option.map (fun c -> Bgp.Attr.Cluster_list c) clusters);
        ]
    in
    return
      {
        attrs;
        router_id;
        cluster_id;
        tag;
        local_as;
        local_addr;
        strip_med;
        next_hop_self;
        probe_as;
      })

let prop_repr_steps_agree =
  QCheck2.Test.make ~count:500
    ~name:"every REPR step agrees across FRR and BIRD representations"
    ~print:(fun i ->
      Format.asprintf "%a" (Format.pp_print_list Bgp.Attr.pp) i.attrs)
    gen_step_input
    (fun i ->
      List.for_all2
        (fun (step, f) (_, b) ->
          f = b || QCheck2.Test.fail_reportf "step %s differs" step)
        (Frr_steps.run i) (Bird_steps.run i))

(* --- BIRD-like interning and the wire-copy encoder --- *)

(* Same observation of a set through either host's REPR: every code's
   TLV and the native encoding. *)
module Observe (R : Pipeline.REPR) = struct
  let codes = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 42; 255 ]

  let encode a =
    let buf = Buffer.create 64 in
    R.encode_known buf (R.group_key a) a;
    Buffer.contents buf

  let view a =
    (List.map (fun c -> Option.map Bytes.to_string (R.get_tlv a c)) codes, encode a)

  (* [None] when the host refuses the TLV *)
  let after_set attrs tlv = Option.map view (R.set_tlv (R.of_attrs attrs) tlv)
end

module Frr_obs = Observe (Frrouting.Bgpd.Repr)
module Bird_obs = Observe (Bird.Bgpd.Repr)

let raw_tlv ~flags ~code payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_uint8 b 0 flags;
  Bytes.set_uint8 b 1 code;
  Bytes.set_uint16_be b 2 len;
  Bytes.blit_string payload 0 b 4 len;
  b

let mandatory =
  Bgp.Attr.
    [ v (Origin Igp); v (As_path [ Seq [ 65001 ] ]); v (Next_hop 0x0A000001) ]

let originator_zero = raw_tlv ~flags:0x80 ~code:9 "\000\000\000\000"

let test_set_tlv_agreement () =
  let probes =
    [
      ("3-byte COMMUNITIES", raw_tlv ~flags:0xC0 ~code:8 "\001\002\003", false);
      ("COMMUNITIES flags 0x80", raw_tlv ~flags:0x80 ~code:8 "\001\002\003\004", true);
      ("empty COMMUNITIES", raw_tlv ~flags:0xC0 ~code:8 "", true);
      ("ORIGIN with the extended bit", raw_tlv ~flags:0x50 ~code:1 "\000", true);
      ("ORIGIN out of range", raw_tlv ~flags:0x40 ~code:1 "\007", false);
      ("AS_PATH cut in a segment", raw_tlv ~flags:0x40 ~code:2 "\002\002\000", false);
      ("unknown code, odd flags", raw_tlv ~flags:0x90 ~code:42 "geo", true);
      ("truncated TLV", Bytes.sub (raw_tlv ~flags:0x80 ~code:4 "\000\000\000\001") 0 6, false);
      ("ORIGINATOR_ID 0", originator_zero, true);
    ]
  in
  List.iter
    (fun (label, tlv, accepted) ->
      let f = Frr_obs.after_set mandatory tlv
      and b = Bird_obs.after_set mandatory tlv in
      check_bool (label ^ ": accepted") accepted (Option.is_some f);
      check_bool (label ^ ": both hosts agree") true (f = b))
    probes;
  (* the flags a COMMUNITIES TLV comes back with, through both hosts *)
  match
    Bird_obs.after_set mandatory
      (raw_tlv ~flags:0x80 ~code:8 "\001\002\003\004")
  with
  | Some (tlvs, _) ->
    check
      Alcotest.(option string)
      "default flags" (Some "\xC0\x08\x00\x04\001\002\003\004")
      (List.nth tlvs 8)
  | None -> Alcotest.fail "refused"

(* An ORIGINATOR_ID of 0 is present, not absent: reflection keeps it
   and the decision view reads it on both hosts. *)
let test_reflect_agreement () =
  let reflect (type a) (module R : Pipeline.REPR with type attrs = a) view =
    match R.set_tlv (R.of_attrs mandatory) originator_zero with
    | Some a ->
      ( view (R.reflect a ~originator_id:0x0A000009 ~cluster_id:7),
        R.originator_id a ~default:5,
        R.reflection_loop a ~router_id:0 ~cluster_id:7 )
    | None -> Alcotest.fail "refused"
  in
  let (((tlvs, _), oid, looped) as f) =
    reflect (module Frrouting.Bgpd.Repr) Frr_obs.view
  in
  check_bool "both hosts agree" true
    (f = reflect (module Bird.Bgpd.Repr) Bird_obs.view);
  check
    Alcotest.(option string)
    "ORIGINATOR_ID 0 kept" (Some "\x80\x09\x00\x04\000\000\000\000")
    (List.nth tlvs 9);
  check Alcotest.int "decision view" 0 oid;
  check_bool "router id 0 loops" true looped

(* Prepending onto a full AS_SEQUENCE (255 ASNs, the one-byte wire
   count) must start a new segment on both hosts. *)
let test_prepend_full_segment () =
  let path = List.init 255 (fun i -> 65000 + i) in
  let attrs =
    Bgp.Attr.
      [ v (Origin Igp); v (As_path [ Seq path ]); v (Next_hop 0x0A000001) ]
  in
  let canon (type a) (module R : Pipeline.REPR with type attrs = a) view =
    view
      (R.canonicalize_ebgp (R.of_attrs attrs) ~local_as:64512
         ~local_addr:0x0A000002 ~strip_med:false)
  in
  let ((tlvs, wire) as f) = canon (module Frrouting.Bgpd.Repr) Frr_obs.view in
  check_bool "both hosts agree" true
    (f = canon (module Bird.Bgpd.Repr) Bird_obs.view);
  let want = Bgp.Attr.As_path [ Seq [ 64512 ]; Seq path ] in
  (match List.nth tlvs 2 with
  | Some tlv ->
    check_bool "TLV decodes to two segments" true
      ((Bgp.Attr.of_tlv (Bytes.of_string tlv)).value = want)
  | None -> Alcotest.fail "no AS_PATH");
  let rec decode pos acc =
    if pos >= String.length wire then List.rev acc
    else
      let a, next =
        Bgp.Attr.decode_from (Bytes.of_string wire) pos (String.length wire)
      in
      decode next (a :: acc)
  in
  check_bool "wire encoding decodes to two segments" true
    (List.exists (fun (a : Bgp.Attr.t) -> a.value = want) (decode 0 []))

let test_of_attrs_agreement () =
  let lists =
    [
      ( "repeated code: last wins",
        mandatory
        @ Bgp.Attr.[ v (Communities [ 1 ]); v (Med 3); v (Communities [ 2 ]) ] );
      ("empty lists", mandatory @ Bgp.Attr.[ v (Communities []); v (Cluster_list []) ]);
      ( "unsorted",
        Bgp.Attr.[ v (Med 9); v (Next_hop 1); v (Origin Egp); v (As_path []) ] );
      ( "odd flags",
        mandatory @ [ Bgp.Attr.with_flags 0xF0 (Bgp.Attr.Communities [ 5 ]) ] );
    ]
  in
  List.iter
    (fun (label, attrs) ->
      check_bool label true
        (Frr_obs.view (Frrouting.Bgpd.Repr.of_attrs attrs)
        = Bird_obs.view (Bird.Bgpd.Repr.of_attrs attrs)))
    lists

let test_eattr_interning () =
  let a = Bird.Eattr.of_attrs sample_attrs in
  check_bool "equal attrs, one set" true (a == Bird.Eattr.of_attrs sample_attrs);
  (* the same eattrs reached by two edit paths *)
  let via_remove =
    Bird.Eattr.remove_code Bgp.Attr.code_med
      (Bird.Eattr.remove_code Bgp.Attr.code_local_pref a)
  and via_of_attrs =
    Bird.Eattr.of_attrs
      (List.filter
         (fun x ->
           let c = Bgp.Attr.code x in
           c <> Bgp.Attr.code_med && c <> Bgp.Attr.code_local_pref)
         sample_attrs)
  in
  check_bool "edit paths meet" true (via_remove == via_of_attrs);
  check_bool "absent code: same set" true
    (Bird.Eattr.remove_code Bgp.Attr.code_atomic_aggregate a == a);
  (* a set nothing references is reclaimed: the table holds it weakly *)
  let make () =
    ignore
      (Sys.opaque_identity
         (List.init 1000 (fun i ->
              Bird.Eattr.of_attrs (mandatory @ [ Bgp.Attr.v (Bgp.Attr.Med i) ]))))
  in
  Gc.full_major ();
  let before = Bird.Eattr.interned_count () in
  make ();
  check_bool "1000 sets interned" true
    (Bird.Eattr.interned_count () >= before + 1000);
  Gc.full_major ();
  check_bool "dead sets reclaimed" true
    (Bird.Eattr.interned_count () < before + 1000)

(* Random attribute lists (unsorted, repeated codes, empty lists, long
   paths) edited by random TLV sets and removals, malformed TLVs
   included. After every edit both hosts must accept the same TLVs and
   expose the same TLVs and native encoding; the BIRD-like wire-copy
   encoder must equal the codec's encoder over the decoded set; and the
   final set must be the very set rebuilt along another path. Removing
   ORIGIN, AS_PATH or NEXT_HOP leaves them in place on both hosts. *)
type edit = Set_tlv of bytes | Remove of int

let gen_value =
  QCheck2.Gen.(
    let u32 = int_range 0 0xFFFFFFFF in
    let asns = list_size (int_range 0 4) (int_range 1 70000) in
    oneof
      [
        map (fun o -> Bgp.Attr.Origin o) (oneofl Bgp.Attr.[ Igp; Egp; Incomplete ]);
        map
          (fun segs -> Bgp.Attr.As_path segs)
          (list_size (int_range 0 3)
             (oneof
                [
                  map (fun l -> Bgp.Attr.Seq l) asns;
                  map (fun l -> Bgp.Attr.Set l) asns;
                ]));
        (* over 255 payload bytes: the extended-length header *)
        map
          (fun l -> Bgp.Attr.As_path [ Bgp.Attr.Seq l ])
          (list_size (int_range 63 80) (int_range 1 70000));
        map (fun n -> Bgp.Attr.Next_hop n) u32;
        map (fun m -> Bgp.Attr.Med m) u32;
        map (fun l -> Bgp.Attr.Local_pref l) u32;
        return Bgp.Attr.Atomic_aggregate;
        map2 (fun a r -> Bgp.Attr.Aggregator (a, r)) u32 u32;
        map (fun c -> Bgp.Attr.Communities c) (list_size (int_range 0 4) u32);
        map (fun o -> Bgp.Attr.Originator_id o) u32;
        map (fun c -> Bgp.Attr.Cluster_list c) (list_size (int_range 0 3) u32);
      ])

let gen_edit =
  QCheck2.Gen.(
    let flags = int_range 0 255 in
    oneof
      [
        map2
          (fun f v -> Set_tlv (Bgp.Attr.to_tlv (Bgp.Attr.with_flags f v)))
          flags gen_value;
        (* unknown codes are stored as given *)
        map3
          (fun f code p -> Set_tlv (raw_tlv ~flags:f ~code p))
          flags (oneofl [ 0; 11; 42; 255 ])
          (string_size (int_range 0 6));
        (* a known code over random bytes: mostly malformed *)
        map3
          (fun f code p -> Set_tlv (raw_tlv ~flags:f ~code p))
          flags (int_range 1 10)
          (string_size (int_range 0 9));
        (* a header whose length overruns the TLV *)
        map2
          (fun code cut ->
            let t = raw_tlv ~flags:0x40 ~code "\000\000\000\001" in
            Set_tlv (Bytes.sub t 0 (min cut (Bytes.length t - 1))))
          (int_range 1 10) (int_range 0 7);
        map (fun c -> Remove c) (oneofl (42 :: List.init 11 Fun.id));
      ])

let gen_edit_case =
  QCheck2.Gen.(
    let* extra = list_size (int_range 0 5) gen_value in
    let* attrs =
      shuffle_l
        (mandatory @ List.map (fun v -> Bgp.Attr.with_flags 0 v) extra)
    in
    let* edits = list_size (int_range 0 8) gen_edit in
    return (List.map (fun (a : Bgp.Attr.t) -> Bgp.Attr.v a.value) attrs, edits))

let oracle_encode s =
  let buf = Buffer.create 64 in
  List.iter (Bgp.Attr.encode_into_buffer buf) (Bird.Eattr.to_attrs s);
  Buffer.contents buf

let prop_eattr_edits =
  QCheck2.Test.make ~count:500
    ~name:"edited sets: wire-copy encoding, host agreement, one set per eattrs"
    ~print:(fun (attrs, edits) ->
      Format.asprintf "%a | %d edits"
        (Format.pp_print_list Bgp.Attr.pp)
        attrs (List.length edits))
    gen_edit_case
    (fun (attrs, edits) ->
      let step (f, b) = function
        | Set_tlv tlv -> (
          match
            (Frrouting.Bgpd.Repr.set_tlv f tlv, Bird.Bgpd.Repr.set_tlv b tlv)
          with
          | Some f, Some b -> (f, b)
          | None, None -> (f, b)
          | _ -> QCheck2.Test.fail_report "hosts disagree on accepting a TLV")
        | Remove c -> (Frrouting.Bgpd.Repr.remove f c, Bird.Bgpd.Repr.remove b c)
      in
      let agree (f, b) =
        if Bird_obs.encode b <> oracle_encode b then
          QCheck2.Test.fail_report "wire copy differs from the codec";
        if Frr_obs.view f <> Bird_obs.view b then
          QCheck2.Test.fail_report "hosts expose different attributes"
      in
      let start =
        (Frrouting.Bgpd.Repr.of_attrs attrs, Bird.Bgpd.Repr.of_attrs attrs)
      in
      let _, final =
        List.fold_left
          (fun acc e ->
            let acc = step acc e in
            agree acc;
            acc)
          (agree start;
           start)
          edits
      in
      (* the same eattrs again: fresh payload strings, then TLVs applied
         highest code first to the empty set *)
      let copied =
        Bird.Eattr.edit Bird.Eattr.empty (fun _ ->
            List.map
              (fun (e : Bird.Eattr.t) ->
                { e with payload = Bytes.to_string (Bytes.of_string e.payload) })
              final.eattrs)
      and replayed =
        List.fold_left
          (fun s (e : Bird.Eattr.t) ->
            match Bird.Eattr.get_tlv final e.code with
            | Some tlv -> Bird.Eattr.set_tlv s tlv
            | None -> s)
          Bird.Eattr.empty (List.rev final.eattrs)
      in
      (copied == final && replayed == final)
      || QCheck2.Test.fail_report "equal eattrs, distinct sets")

(* --- daemon-level behaviour --- *)

let addr = Bgp.Prefix.addr_of_quad

let two_routers ?(as_a = 65001) ?(as_b = 65000) () =
  Frrouting.Attr_intern.reset_intern_table ();
  let sched = Netsim.Sched.create () in
  let a_addr = addr (10, 9, 0, 1) and b_addr = addr (10, 9, 0, 2) in
  let pa, pb = Netsim.Pipe.create sched in
  let mk name own own_as peer_as peer_addr port =
    Frrouting.Bgpd.create ~sched
      (Frrouting.Bgpd.config ~name ~router_id:own ~local_as:own_as
         ~local_addr:own ~hold_time:9 ())
      [
        {
          Frrouting.Bgpd.pname = "peer";
          remote_as = peer_as;
          remote_addr = peer_addr;
          rr_client = false;
          port;
        };
      ]
  in
  let da = mk "a" a_addr as_a as_b b_addr pa in
  let db = mk "b" b_addr as_b as_a a_addr pb in
  Frrouting.Bgpd.start da;
  Frrouting.Bgpd.start db;
  ignore (Netsim.Sched.run ~until:(2 * 1_000_000) sched);
  (sched, da, db, a_addr)

let basic_attrs nh =
  [
    Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
    Bgp.Attr.v (Bgp.Attr.As_path []);
    Bgp.Attr.v (Bgp.Attr.Next_hop nh);
  ]

let test_daemon_withdraw () =
  let sched, da, db, a_addr = two_routers () in
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  Frrouting.Bgpd.originate da p (basic_attrs a_addr);
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  check_bool "learned" true (Frrouting.Bgpd.best_route db p <> None);
  Frrouting.Bgpd.withdraw_local da p;
  ignore (Netsim.Sched.run ~until:(8 * 1_000_000) sched);
  check_bool "withdrawn" true (Frrouting.Bgpd.best_route db p = None);
  check Alcotest.int "withdrawal counted" 1
    (Frrouting.Bgpd.stats db).withdrawals_rx

let test_daemon_ebgp_loop_rejected () =
  let sched, da, db, a_addr = two_routers () in
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  (* path already contains B's AS: B must drop it *)
  Frrouting.Bgpd.originate da p
    [
      Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
      Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 65000 ] ]);
      Bgp.Attr.v (Bgp.Attr.Next_hop a_addr);
    ];
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  check_bool "loop rejected" true (Frrouting.Bgpd.best_route db p = None)

let test_daemon_update_packing () =
  (* routes sharing one attribute set travel in few packed UPDATEs *)
  let sched, da, db, a_addr = two_routers () in
  let attrs = basic_attrs a_addr in
  for i = 0 to 99 do
    Frrouting.Bgpd.originate da
      (Bgp.Prefix.v (addr (100, i, 0, 0)) 16)
      attrs
  done;
  ignore (Netsim.Sched.run ~until:(10 * 1_000_000) sched);
  check Alcotest.int "all learned" 100 (Frrouting.Bgpd.loc_count db);
  check_bool "packed into few updates" true
    ((Frrouting.Bgpd.stats da).updates_tx <= 3)

let test_daemon_session_loss_cleans_rib () =
  let sched, da, db, a_addr = two_routers () in
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  Frrouting.Bgpd.originate da p (basic_attrs a_addr);
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  check_bool "learned" true (Frrouting.Bgpd.best_route db p <> None);
  (* kill the link; the hold timer flushes the peer's routes *)
  let peer = Frrouting.Bgpd.peer da 0 in
  Netsim.Pipe.set_up peer.conf.port false;
  ignore (Netsim.Sched.run ~until:(40 * 1_000_000) sched);
  check_bool "session down" false (Frrouting.Bgpd.peer_established db 0);
  check_bool "routes flushed" true (Frrouting.Bgpd.best_route db p = None)

let test_daemon_decision_prefers_shorter_path () =
  (* B hears the same prefix from two eBGP neighbours with different
     path lengths and must pick the shorter *)
  Frrouting.Attr_intern.reset_intern_table ();
  let sched = Netsim.Sched.create () in
  let a1 = addr (10, 9, 1, 1)
  and a2 = addr (10, 9, 1, 2)
  and b = addr (10, 9, 1, 3) in
  let p1a, p1b = Netsim.Pipe.create sched in
  let p2a, p2b = Netsim.Pipe.create sched in
  let feeder name own own_as port =
    Frrouting.Bgpd.create ~sched
      (Frrouting.Bgpd.config ~name ~router_id:own ~local_as:own_as
         ~local_addr:own ())
      [
        {
          Frrouting.Bgpd.pname = "b";
          remote_as = 65000;
          remote_addr = b;
          rr_client = false;
          port;
        };
      ]
  in
  let d1 = feeder "f1" a1 65001 p1a in
  let d2 = feeder "f2" a2 65002 p2a in
  let db =
    Frrouting.Bgpd.create ~sched
      (Frrouting.Bgpd.config ~name:"b" ~router_id:b ~local_as:65000
         ~local_addr:b ())
      [
        {
          Frrouting.Bgpd.pname = "f1";
          remote_as = 65001;
          remote_addr = a1;
          rr_client = false;
          port = p1b;
        };
        {
          Frrouting.Bgpd.pname = "f2";
          remote_as = 65002;
          remote_addr = a2;
          rr_client = false;
          port = p2b;
        };
      ]
  in
  List.iter Frrouting.Bgpd.start [ d1; d2; db ];
  ignore (Netsim.Sched.run ~until:(2 * 1_000_000) sched);
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  Frrouting.Bgpd.originate d1 p
    [
      Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
      Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 300; 400 ] ]);
      Bgp.Attr.v (Bgp.Attr.Next_hop a1);
    ];
  Frrouting.Bgpd.originate d2 p
    [
      Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
      Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 300 ] ]);
      Bgp.Attr.v (Bgp.Attr.Next_hop a2);
    ];
  ignore (Netsim.Sched.run ~until:(10 * 1_000_000) sched);
  match Frrouting.Bgpd.best_route db p with
  | Some r ->
    check Alcotest.int "shorter path wins" 2 r.attrs.as_path_len;
    check Alcotest.int "via f2" 65002
      (Frrouting.Attr_intern.neighbor_as r.attrs)
  | None -> Alcotest.fail "no route"

let test_daemon_loop_implicit_withdrawal () =
  (* RFC 4271: a received route whose AS_PATH contains the receiver's
     own AS is unfeasible — an IMPLICIT WITHDRAWAL of any earlier route
     for the same NLRI from that peer, not a silent no-op. Chaos seed
     2026 case 88 caught the silent-drop variant leaving a stale
     adj-rib-in entry that path hunting then locked into a ghost
     cycle. *)
  let sched, da, db, a_addr = two_routers () in
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  Frrouting.Bgpd.originate da p (basic_attrs a_addr);
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  check_bool "learned" true (Frrouting.Bgpd.best_route db p <> None);
  (* A now re-advertises the same prefix over a path that already
     contains B's AS (A prepends 65001, so B receives [65001 65000]) *)
  Frrouting.Bgpd.originate da p
    [
      Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
      Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 65000 ] ]);
      Bgp.Attr.v (Bgp.Attr.Next_hop a_addr);
    ];
  ignore (Netsim.Sched.run ~until:(10 * 1_000_000) sched);
  check_bool "stale route implicitly withdrawn" true
    (Frrouting.Bgpd.best_route db p = None)

let test_daemon_wedged_handshake_recovers () =
  (* A session restarted while its pipe is still down loses its OPEN;
     without the FSM's connect retry (and the passive open answering a
     retry that lands in Idle) it would sit Open_sent until the hold
     timer closes it, then stay dead forever. *)
  let sched, da, db, a_addr = two_routers () in
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  Frrouting.Bgpd.originate da p (basic_attrs a_addr);
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  let port = (Frrouting.Bgpd.peer da 0).conf.port in
  Netsim.Pipe.set_up port false;
  ignore (Netsim.Sched.run ~until:(20 * 1_000_000) sched);
  check_bool "session torn down" false (Frrouting.Bgpd.peer_established da 0);
  (* restart into the still-down pipe: both OPENs are lost *)
  Frrouting.Bgpd.restart_sessions da;
  Frrouting.Bgpd.restart_sessions db;
  ignore (Netsim.Sched.run ~until:(22 * 1_000_000) sched);
  Netsim.Pipe.set_up port true;
  (* no further restart: recovery must come from the FSM itself, one
     hold interval after the lost OPENs *)
  ignore (Netsim.Sched.run ~until:(45 * 1_000_000) sched);
  check_bool "A re-established" true (Frrouting.Bgpd.peer_established da 0);
  check_bool "B re-established" true (Frrouting.Bgpd.peer_established db 0);
  check_bool "route re-learned" true (Frrouting.Bgpd.best_route db p <> None)


(* churn property: after a random sequence of announcements and
   withdrawals, the receiving daemon converges to exactly the set of
   routes still originated by the sender *)
let prop_churn_convergence =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (pair (int_range 0 9) bool (* prefix idx, announce/withdraw *)))
  in
  QCheck2.Test.make ~count:25 ~name:"daemon converges under churn" gen
    (fun ops ->
      let sched, da, db, a_addr = two_routers () in
      let prefixes =
        Array.init 10 (fun i -> Bgp.Prefix.v (addr (100, i, 0, 0)) 16)
      in
      let live = Hashtbl.create 16 in
      List.iter
        (fun (i, announce) ->
          if announce then begin
            Frrouting.Bgpd.originate da prefixes.(i) (basic_attrs a_addr);
            Hashtbl.replace live i ()
          end
          else begin
            Frrouting.Bgpd.withdraw_local da prefixes.(i);
            Hashtbl.remove live i
          end;
          (* interleave a little simulated time *)
          ignore
            (Netsim.Sched.run
               ~until:(Netsim.Sched.now sched + 200_000)
               sched))
        ops;
      ignore
        (Netsim.Sched.run ~until:(Netsim.Sched.now sched + 5_000_000) sched);
      Frrouting.Bgpd.loc_count db = Hashtbl.length live
      && Array.for_all
           (fun i ->
             Hashtbl.mem live i
             = (Frrouting.Bgpd.best_route db prefixes.(i) <> None))
           (Array.init 10 (fun i -> i)))

(* the BIRD daemon passes the same protocol checks *)
let test_bird_daemon_basics () =
  let sched = Netsim.Sched.create () in
  let a_addr = addr (10, 9, 2, 1) and b_addr = addr (10, 9, 2, 2) in
  let pa, pb = Netsim.Pipe.create sched in
  let da =
    Bird.Bgpd.create ~sched
      (Bird.Bgpd.config ~name:"a" ~router_id:a_addr ~local_as:65001
         ~local_addr:a_addr ~hold_time:9 ())
      [
        {
          Bird.Bgpd.pname = "b";
          remote_as = 65000;
          remote_addr = b_addr;
          rr_client = false;
          port = pa;
        };
      ]
  in
  let db =
    Bird.Bgpd.create ~sched
      (Bird.Bgpd.config ~name:"b" ~router_id:b_addr ~local_as:65000
         ~local_addr:b_addr ~hold_time:9 ())
      [
        {
          Bird.Bgpd.pname = "a";
          remote_as = 65001;
          remote_addr = a_addr;
          rr_client = false;
          port = pb;
        };
      ]
  in
  Bird.Bgpd.start da;
  Bird.Bgpd.start db;
  ignore (Netsim.Sched.run ~until:(2 * 1_000_000) sched);
  let p = Bgp.Prefix.of_string "203.0.113.0/24" in
  Bird.Bgpd.originate da p (basic_attrs a_addr);
  ignore (Netsim.Sched.run ~until:(5 * 1_000_000) sched);
  (match Bird.Bgpd.best_route db p with
  | Some r ->
    check Alcotest.(list int) "path prepended" [ 65001 ]
      (Bird.Eattr.path_asns r.attrs)
  | None -> Alcotest.fail "no route");
  Bird.Bgpd.withdraw_local da p;
  ignore (Netsim.Sched.run ~until:(8 * 1_000_000) sched);
  check_bool "withdrawn" true (Bird.Bgpd.best_route db p = None)

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "hosts"
    [
      ( "frr-attrs",
        [
          Alcotest.test_case "roundtrip" `Quick test_intern_roundtrip;
          Alcotest.test_case "hash-consing" `Quick test_intern_sharing;
          Alcotest.test_case "cached path length" `Quick
            test_intern_path_len_cached;
          Alcotest.test_case "TLV adapter" `Quick test_intern_tlv_adapter;
          Alcotest.test_case "weak table" `Quick test_intern_reclaims;
        ] );
      ( "bird-attrs",
        [
          Alcotest.test_case "roundtrip" `Quick test_eattr_roundtrip;
          Alcotest.test_case "accessors" `Quick test_eattr_accessors;
          Alcotest.test_case "wire mutations" `Quick test_eattr_wire_mutations;
          Alcotest.test_case "TLV adapter" `Quick test_eattr_tlv_adapter;
          qc prop_representations_agree;
          Alcotest.test_case "interning" `Quick test_eattr_interning;
        ] );
      ("repr-steps", [ qc prop_repr_steps_agree ]);
      ( "agreement",
        [
          Alcotest.test_case "set_tlv" `Quick test_set_tlv_agreement;
          Alcotest.test_case "of_attrs" `Quick test_of_attrs_agreement;
          Alcotest.test_case "reflect: ORIGINATOR_ID 0" `Quick
            test_reflect_agreement;
          Alcotest.test_case "prepend onto a full AS_SEQUENCE" `Quick
            test_prepend_full_segment;
          qc prop_eattr_edits;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "withdraw propagation" `Quick
            test_daemon_withdraw;
          Alcotest.test_case "eBGP loop rejection" `Quick
            test_daemon_ebgp_loop_rejected;
          Alcotest.test_case "update packing" `Quick test_daemon_update_packing;
          Alcotest.test_case "session loss cleans RIBs" `Quick
            test_daemon_session_loss_cleans_rib;
          Alcotest.test_case "decision: shorter path" `Quick
            test_daemon_decision_prefers_shorter_path;
          Alcotest.test_case "loop is implicit withdrawal" `Quick
            test_daemon_loop_implicit_withdrawal;
          Alcotest.test_case "wedged handshake recovers" `Quick
            test_daemon_wedged_handshake_recovers;
          Alcotest.test_case "BIRD daemon basics" `Quick
            test_bird_daemon_basics;
          qc prop_churn_convergence;
        ] );
    ]
