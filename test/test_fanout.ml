(* Update-group export engine tests: RFC 4271 4096-byte framing at the
   codec boundary, the engine's event semantics (split horizon, late
   joiners, rekey split/merge) with their churn telemetry, a model-based
   property checking the grouped event streams against a naive per-peer
   model, and the star-level property, checked through chaos cases, that
   grouped and per-peer export are externally indistinguishable on both
   hosts. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- RFC 4271 §4: split_update_raw framing boundaries --- *)

(* distinct /32s: 5 wire bytes each, so frame arithmetic is exact *)
let pfx i = Bgp.Prefix.v (0x0100_0000 + i) 32

(* raw path-attribute bytes of exactly [n] total wire bytes: one unknown
   optional-transitive attribute (short or extended length form) *)
let attr_pad n =
  if n < 3 then invalid_arg "attr_pad";
  let b = Bytes.create n in
  if n <= 258 then begin
    Bytes.set_uint8 b 0 0xC0;
    Bytes.set_uint8 b 1 200;
    Bytes.set_uint8 b 2 (n - 3)
  end
  else begin
    Bytes.set_uint8 b 0 0xD0;
    (* extended length *)
    Bytes.set_uint8 b 1 200;
    Bytes.set_uint16_be b 2 (n - 4)
  end;
  b

let decode_all frames =
  List.map
    (fun f ->
      match Bgp.Message.decode f with
      | Bgp.Message.Update u -> u
      | _ -> Alcotest.fail "split frame is not an UPDATE")
    frames

let test_split_exact_fit () =
  (* 19 header + 2 wd-len + 2 attr-len + 3 attrs + 814 * 5 = 4096 *)
  let nlri = List.init 814 pfx in
  let frames =
    Bgp.Message.split_update_raw ~withdrawn:[] ~attr_bytes:(attr_pad 3) ~nlri
  in
  check_int "one frame" 1 (List.length frames);
  check_int "exactly max_size" Bgp.Message.max_size
    (Bytes.length (List.hd frames));
  let u = List.hd (decode_all frames) in
  check_bool "nlri order preserved" true (u.nlri = nlri)

let test_split_one_over () =
  let nlri = List.init 815 pfx in
  let frames =
    Bgp.Message.split_update_raw ~withdrawn:[] ~attr_bytes:(attr_pad 3) ~nlri
  in
  check_int "two frames" 2 (List.length frames);
  List.iter
    (fun f ->
      check_bool "within max_size" true
        (Bytes.length f <= Bgp.Message.max_size))
    frames;
  let us = decode_all frames in
  check_bool "concatenation preserves order" true
    (List.concat_map (fun (u : Bgp.Message.update) -> u.nlri) us = nlri);
  (* every NLRI frame must repeat the attributes *)
  let ref_attrs =
    match
      Bgp.Message.decode
        (Bgp.Message.encode_update_raw ~withdrawn:[] ~attr_bytes:(attr_pad 3)
           ~nlri:[ pfx 0 ])
    with
    | Bgp.Message.Update u -> u.attrs
    | _ -> assert false
  in
  List.iter
    (fun (u : Bgp.Message.update) ->
      check_bool "attrs repeated" true (u.attrs = ref_attrs))
    us

let test_split_withdrawn_only () =
  (* withdrawn capacity is 4073 bytes: 814 /32s fit, 815 split *)
  let wd = List.init 815 pfx in
  let frames =
    Bgp.Message.split_update_raw ~withdrawn:wd ~attr_bytes:Bytes.empty ~nlri:[]
  in
  check_int "two frames" 2 (List.length frames);
  let us = decode_all frames in
  check_bool "withdrawn order preserved" true
    (List.concat_map (fun (u : Bgp.Message.update) -> u.withdrawn) us = wd);
  List.iter
    (fun (u : Bgp.Message.update) ->
      check_bool "no attrs on withdrawn frames" true (u.attrs = []);
      check_bool "no nlri on withdrawn frames" true (u.nlri = []))
    us

let test_split_mixed () =
  let wd = List.init 10 (fun i -> pfx (1000 + i)) in
  let nlri = List.init 10 pfx in
  let frames =
    Bgp.Message.split_update_raw ~withdrawn:wd ~attr_bytes:(attr_pad 8) ~nlri
  in
  check_int "withdrawn frame first, then nlri frame" 2 (List.length frames);
  let us = decode_all frames in
  check_bool "withdrawn-only frames lead" true
    ((List.hd us).withdrawn = wd && (List.hd us).nlri = []);
  check_bool "nlri follows" true
    ((List.nth us 1).nlri = nlri && (List.nth us 1).withdrawn = [])

let test_split_attrs_too_big () =
  (* 4071 attribute bytes leave 2 bytes of room: no /32 can ever fit *)
  let raised =
    try
      ignore
        (Bgp.Message.split_update_raw ~withdrawn:[]
           ~attr_bytes:(attr_pad 4071) ~nlri:[ pfx 0 ]);
      false
    with Bgp.Message.Parse_error _ -> true
  in
  check_bool "oversized attrs raise" true raised;
  (* but with no NLRI to carry there is nothing to split *)
  check_int "no prefixes, no frames" 0
    (List.length
       (Bgp.Message.split_update_raw ~withdrawn:[] ~attr_bytes:(attr_pad 4071)
          ~nlri:[]))

let test_split_empty () =
  check_int "both lists empty" 0
    (List.length
       (Bgp.Message.split_update_raw ~withdrawn:[] ~attr_bytes:Bytes.empty
          ~nlri:[]))

let split_roundtrip_prop =
  QCheck.Test.make ~count:120 ~name:"split_update_raw round-trips within 4096"
    QCheck.(triple (int_bound 1200) (int_bound 1200) (int_range 3 258))
    (fun (nwd, nnlri, attr_n) ->
      let wd = List.init nwd (fun i -> pfx (100_000 + i)) in
      let nlri = List.init nnlri pfx in
      let attr_bytes = attr_pad attr_n in
      let frames = Bgp.Message.split_update_raw ~withdrawn:wd ~attr_bytes ~nlri in
      let us = decode_all frames in
      List.for_all (fun f -> Bytes.length f <= Bgp.Message.max_size) frames
      && List.concat_map (fun (u : Bgp.Message.update) -> u.withdrawn) us = wd
      && List.concat_map (fun (u : Bgp.Message.update) -> u.nlri) us = nlri
      && (* withdrawn-only frames strictly precede NLRI-carrying ones *)
      fst
        (List.fold_left
           (fun (ok, seen_nlri) (u : Bgp.Message.update) ->
             (ok && not (seen_nlri && u.withdrawn <> []), seen_nlri || u.nlri <> []))
           (true, false) us))

(* --- the update-group engine --- *)

module Ug = Rib.Update_group

let mk () =
  let tele = Telemetry.create ~enabled:true () in
  (tele, Ug.create ~telemetry:tele ~daemon:"t" ~equal:Int.equal ())

let cval tele name =
  Telemetry.counter_value tele ~name ~labels:[ ("daemon", "t") ]

let gauge_active tele =
  Telemetry.Gauge.value
    (Telemetry.gauge tele ~name:"bgp_update_groups_active"
       ~labels:[ ("daemon", "t") ] ())

let p0 = pfx 0
let p1 = pfx 1

let test_join_leave_telemetry () =
  let tele, t = mk () in
  let g = Ug.join t ~peer:0 ~key:"a" in
  check_int "one group" 1 (Ug.group_count t);
  check_int "gauge tracks" 1 (gauge_active tele);
  check_int "creating is not a merge" 0 (cval tele "bgp_group_merges_total");
  let g' = Ug.join t ~peer:1 ~key:"a" in
  check_bool "same group" true (Ug.key g = Ug.key g');
  check_int "joining an existing group is a merge" 1
    (cval tele "bgp_group_merges_total");
  check_bool "members ascending" true (Ug.members g = [ 0; 1 ]);
  (* re-join under the same key is a no-op *)
  ignore (Ug.join t ~peer:1 ~key:"a");
  check_int "re-join no-op" 1 (cval tele "bgp_group_merges_total");
  Ug.leave t ~peer:0;
  Ug.leave t ~peer:1;
  check_int "empty groups deleted" 0 (Ug.group_count t);
  check_int "gauge back to zero" 0 (gauge_active tele)

let test_route_update_broadcast () =
  let _, t = mk () in
  let g = Ug.join t ~peer:0 ~key:"a" in
  ignore (Ug.join t ~peer:1 ~key:"a");
  ignore (Ug.join t ~peer:2 ~key:"a");
  Ug.route_update t g p0 (Some (7, -1));
  (match Ug.take_classes g with
  | [ (ms, [], [ (p, 7) ]) ] ->
    check_bool "all members one class" true (ms = [ 0; 1; 2 ]);
    check_bool "the prefix" true (Bgp.Prefix.equal p p0)
  | _ -> Alcotest.fail "expected one broadcast class");
  (* unchanged export: suppressed *)
  Ug.route_update t g p0 (Some (7, -1));
  check_int "suppressed" 0 (List.length (Ug.take_classes g));
  (* changed export: re-advertised *)
  Ug.route_update t g p0 (Some (8, -1));
  (match Ug.take_classes g with
  | [ (_, [], [ (_, 8) ]) ] -> ()
  | _ -> Alcotest.fail "expected re-advertisement");
  (* withdrawal *)
  Ug.route_update t g p0 None;
  (match Ug.take_classes g with
  | [ (ms, [ p ], []) ] ->
    check_bool "broadcast withdraw" true
      (ms = [ 0; 1; 2 ] && Bgp.Prefix.equal p p0)
  | _ -> Alcotest.fail "expected one withdraw class");
  Ug.route_update t g p0 None;
  check_int "double withdraw is silent" 0 (List.length (Ug.take_classes g))

let class_of classes m =
  List.find (fun (ms, _, _) -> List.mem m ms) classes

let test_split_horizon_classes () =
  let _, t = mk () in
  let g = Ug.join t ~peer:0 ~key:"a" in
  ignore (Ug.join t ~peer:1 ~key:"a");
  ignore (Ug.join t ~peer:2 ~key:"a");
  (* peer 1 sourced the route: everyone else advertises *)
  Ug.route_update t g p0 (Some (5, 1));
  let classes = Ug.take_classes g in
  let _, wds, advs = class_of classes 0 in
  check_bool "non-source members advertise" true
    (wds = [] && advs = [ (p0, 5) ]);
  let _, wds1, advs1 = class_of classes 1 in
  check_bool "source member receives nothing" true (wds1 = [] && advs1 = []);
  (* source moves from 1 to 2, attrs unchanged: 2 loses it, 1 gains it *)
  Ug.route_update t g p0 (Some (5, 2));
  let classes = Ug.take_classes g in
  let _, wds2, advs2 = class_of classes 2 in
  check_bool "new source withdraws" true
    (wds2 = [ p0 ] && advs2 = []);
  let _, wds1, advs1 = class_of classes 1 in
  check_bool "old source catches up" true (wds1 = [] && advs1 = [ (p0, 5) ]);
  let _, wds0, advs0 = class_of classes 0 in
  check_bool "bystander unchanged" true (wds0 = [] && advs0 = [])

let test_late_join_no_duplicates () =
  let _, t = mk () in
  let g = Ug.join t ~peer:0 ~key:"a" in
  Ug.route_update t g p0 (Some (3, -1));
  (* peer 1 joins while the advertisement is still queued; its catch-up
     is a targeted event, the queued broadcast must not reach it *)
  ignore (Ug.join t ~peer:1 ~key:"a");
  (match Ug.rib_find g p0 with
  | Some (a, skip) -> Ug.catch_up_entry g p0 a ~skip ~member:1
  | None -> Alcotest.fail "rib entry expected");
  let classes = Ug.take_classes g in
  let _, _, advs0 = class_of classes 0 in
  let _, _, advs1 = class_of classes 1 in
  check_int "member 0: exactly one advertisement" 1 (List.length advs0);
  check_int "member 1: exactly one advertisement" 1 (List.length advs1);
  (* a fresh change now broadcasts to both as one class *)
  Ug.route_update t g p1 (Some (9, -1));
  match Ug.take_classes g with
  | [ (ms, [], [ (_, 9) ]) ] -> check_bool "reunited" true (ms = [ 0; 1 ])
  | _ -> Alcotest.fail "expected a single class after catch-up"

let test_rekey_split_merge () =
  let tele, t = mk () in
  ignore (Ug.join t ~peer:0 ~key:"a");
  ignore (Ug.join t ~peer:1 ~key:"a");
  ignore (Ug.join t ~peer:2 ~key:"a");
  let merges0 = cval tele "bgp_group_merges_total" in
  (* peer 2 leaves a surviving group: one split *)
  Ug.rekey t ~desired:(fun m -> if m = 2 then "c" else "a");
  check_int "two groups" 2 (Ug.group_count t);
  check_int "one split" 1 (cval tele "bgp_group_splits_total");
  check_int "no merge on fresh group" merges0
    (cval tele "bgp_group_merges_total");
  (* identical (empty) RIBs: the cluster is absorbed back — one merge *)
  Ug.rekey t ~desired:(fun _ -> "a");
  check_int "one group again" 1 (Ug.group_count t);
  check_int "absorbed cluster is a merge" (merges0 + 1)
    (cval tele "bgp_group_merges_total");
  check_bool "members restored" true
    (match Ug.member_group t 2 with
    | Some g -> Ug.members g = [ 0; 1; 2 ]
    | None -> false)

let test_rekey_rib_mismatch_stays_apart () =
  let _, t = mk () in
  let ga = Ug.join t ~peer:0 ~key:"a" in
  ignore (Ug.join t ~peer:1 ~key:"b");
  (* group a has sent p0, group b has not: same desired key, different
     shared RIBs — they must NOT merge (members would miss/duplicate) *)
  Ug.route_update t ga p0 (Some (4, -1));
  ignore (Ug.take_classes ga);
  Ug.rekey t ~desired:(fun _ -> "a");
  check_int "kept apart on RIB mismatch" 2 (Ug.group_count t);
  check_bool "both under the base key" true
    (match (Ug.member_group t 0, Ug.member_group t 1) with
    | Some g0, Some g1 -> Ug.key g0 <> Ug.key g1
    | _ -> false)

let test_rekey_pending_raises () =
  let _, t = mk () in
  let g = Ug.join t ~peer:0 ~key:"a" in
  Ug.route_update t g p0 (Some (1, -1));
  let raised =
    try
      Ug.rekey t ~desired:(fun _ -> "b");
      false
    with Invalid_argument _ -> true
  in
  check_bool "rekey with pending events refuses" true raised

let test_fanout_saved_counter () =
  let tele, t = mk () in
  Ug.note_fanout_saved t 123;
  Ug.note_fanout_saved t 0;
  check_int "bytes credited" 123 (cval tele "bgp_fanout_bytes_saved_total")

(* --- model property: grouped event streams == naive per-peer model ---

   A per-peer model daemon keeps, for every member, its own adj-RIB-out
   mirror and append-only pending withdraw/advertise lists (exactly the
   baseline daemons' bookkeeping). Random op sequences — join with
   catch-up, leave, route updates with randomized source members,
   flushes — must produce identical per-member streams from the engine's
   take_classes. *)

let prefixes = Array.init 6 pfx

let engine_model_prop =
  QCheck.Test.make ~count:200 ~name:"update-group streams match per-peer model"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed; 0x9e0 |] in
      let _, t = mk () in
      (* peer 0 anchors the group so it never disappears *)
      ignore (Ug.join t ~peer:0 ~key:"g");
      let npeers = 4 in
      let member = Array.make npeers false in
      member.(0) <- true;
      let mrib = Array.init npeers (fun _ -> Hashtbl.create 8) in
      let pend_wd = Array.make npeers [] in
      let pend_adv = Array.make npeers [] in
      let model_route m p desired =
        let old = Hashtbl.find_opt mrib.(m) p in
        match desired with
        | Some a when old <> Some a ->
          Hashtbl.replace mrib.(m) p a;
          pend_adv.(m) <- (p, a) :: pend_adv.(m)
        | None when old <> None ->
          Hashtbl.remove mrib.(m) p;
          (* like the daemons' pending queues: a withdrawal purges any
             queued advertisement it supersedes — the flush sends
             withdrawals first, so a stale advertisement surviving here
             would resurrect the route at the receivers *)
          pend_adv.(m) <-
            List.filter (fun (p', _) -> p' <> p) pend_adv.(m);
          pend_wd.(m) <- p :: pend_wd.(m)
        | _ -> ()
      in
      let members () =
        List.filter (fun m -> member.(m)) (List.init npeers Fun.id)
      in
      let g () = Option.get (Ug.member_group t 0) in
      let ok = ref true in
      for _ = 1 to 40 do
        match Random.State.int rand 10 with
        | 0 | 1 ->
          (* join an absent peer, with full catch-up *)
          let m = 1 + Random.State.int rand (npeers - 1) in
          if not member.(m) then begin
            ignore (Ug.join t ~peer:m ~key:"g");
            member.(m) <- true;
            Array.iter
              (fun p ->
                match Ug.rib_find (g ()) p with
                | Some (a, skip) when skip <> m ->
                  Ug.catch_up_entry (g ()) p a ~skip ~member:m;
                  model_route m p (Some a)
                | _ -> ())
              prefixes
          end
        | 2 ->
          let m = 1 + Random.State.int rand (npeers - 1) in
          if member.(m) then begin
            Ug.leave t ~peer:m;
            member.(m) <- false;
            Hashtbl.reset mrib.(m);
            pend_wd.(m) <- [];
            pend_adv.(m) <- []
          end
        | 3 ->
          (* flush: every member's engine stream must equal the model's *)
          let classes = Ug.take_classes (g ()) in
          List.iter
            (fun m ->
              let wds, advs =
                match
                  List.find_opt (fun (ms, _, _) -> List.mem m ms) classes
                with
                | Some (_, w, a) -> (w, a)
                | None -> ([], [])
              in
              if
                wds <> List.rev pend_wd.(m) || advs <> List.rev pend_adv.(m)
              then ok := false;
              pend_wd.(m) <- [];
              pend_adv.(m) <- [])
            (members ());
          (* no class may name a non-member *)
          List.iter
            (fun (ms, _, _) ->
              if List.exists (fun m -> not member.(m)) ms then ok := false)
            classes
        | _ ->
          let p = prefixes.(Random.State.int rand (Array.length prefixes)) in
          if Random.State.int rand 4 = 0 then begin
            Ug.route_update t (g ()) p None;
            List.iter (fun m -> model_route m p None) (members ())
          end
          else begin
            let a = Random.State.int rand 5 in
            let skip =
              if Random.State.bool rand then -1
              else Random.State.int rand npeers
            in
            Ug.route_update t (g ()) p (Some (a, skip));
            List.iter
              (fun m ->
                model_route m p (if m = skip then None else Some a))
              (members ())
          end
      done;
      !ok)

(* --- star-level equivalence: grouped == per-peer on the wire ---

   Every chaos star case ({!Fuzz.Config_gen}) runs its own point a
   second time with update groups flipped; the chaos oracle demands
   byte-identical per-sink UPDATE frame streams, identical derived
   adj-RIB-ins, Loc-RIB and map state between the two, after every
   phase. The fault schedules cover session flaps, split-horizon sink
   feeding, a withdrawal racing another sink's re-advertisement of the
   same prefixes, and an outbound-program detach that forces a live
   split/merge regroup. *)

module Cg = Fuzz.Config_gen

let is_star (c : Cg.case) =
  match c.topology with Cg.Star _ -> true | Cg.Fabric _ -> false

let fault_family f =
  let n = Cg.fault_name f in
  match String.index_opt n ':' with Some i -> String.sub n 0 i | None -> n

(* the grid's last leg: leg 0 with update groups flipped *)
let groups_flipped (c : Cg.case) =
  let leg0 = List.hd c.grid in
  List.nth c.grid (List.length c.grid - 1)
  = { leg0 with update_groups = not leg0.update_groups }

let check_clean (c : Cg.case) =
  let findings, _ = Fuzz.Chaos.run_case c in
  List.iter (Format.printf "%a@." Fuzz.Oracle.pp_finding) findings;
  check_bool
    (Format.asprintf "equivalent: %a" Cg.pp_case c)
    true (findings = [])

let star_equivalence_prop =
  QCheck.Test.make ~count:30
    ~name:"grouped export is byte-equivalent to per-peer export"
    QCheck.(pair (int_bound 100_000) (int_bound 500))
    (fun (seed, index) ->
      let c = Cg.case ~seed ~index in
      (not (is_star c))
      || (groups_flipped c && fst (Fuzz.Chaos.run_case c) = []))

(* the first seeded star case whose leg 0 runs on [host] and whose fault
   schedule holds a [family] fault *)
let find_case ~seed ~host family =
  let rec go index =
    if index > 2000 then
      Alcotest.failf "no %s case on %s in range" family
        (Cg.host_name host)
    else
      let c = Cg.case ~seed ~index in
      if
        is_star c
        && (List.hd c.grid).host = host
        && List.exists (fun f -> fault_family f = family) c.faults
      then c
      else go (index + 1)
  in
  go 0

(* every export-side churn variant, pinned, on both hosts *)
let test_equivalence_per_churn () =
  List.iter
    (fun host ->
      List.iter
        (fun family -> check_clean (find_case ~seed:1234 ~host family))
        [ "flap"; "sinkfeed"; "wdrace"; "detach" ])
    [ `Frr; `Bird ]

(* the commit-order trap, pinned on both hosts: a withdrawal and another
   sink's re-advertisement of the same 8-prefix block land in one
   unsettled window *)
let test_wd_race_pinned () =
  List.iter
    (fun host -> check_clean (find_case ~seed:4242 ~host "wdrace"))
    [ `Frr; `Bird ]

(* grouped mode actually groups: identical spokes share one group, and
   the fan-out saves bytes *)
let test_grouping_effectiveness () =
  List.iter
    (fun host ->
      let tele = Telemetry.create ~enabled:true () in
      let star =
        Scenario.Star.create ~host ~telemetry:tele ~npeers:8 ()
      in
      Scenario.Star.establish star;
      for i = 0 to 19 do
        Scenario.Star.originate star (pfx i)
          Bgp.Attr.
            [
              v (Origin Igp);
              v (As_path [ Seq [ 64999 ] ]);
              v (Next_hop 0x0A000001);
            ]
      done;
      Scenario.Star.settle star;
      check_int "eight identical spokes, one group" 1
        (Scenario.Daemon.group_count (Scenario.Star.dut star));
      check_bool "fan-out saved bytes" true
        (Telemetry.counter_value tele ~name:"bgp_fanout_bytes_saved_total"
           ~labels:[ ("daemon", "dut") ]
         > 0);
      for i = 0 to 7 do
        check_int "every spoke has the table" 20
          (Scenario.Star.sink_rib_size star i)
      done)
    [ `Frr; `Bird ]

(* --- map-carrying chains across export modes ---

   With flap_damping attached on the hub's inbound side, the groups
   flip must agree not just on streams and RIBs but on the DUT VMM's
   final map state, byte for byte. Pinned to seeded cases that draw
   flap_damping and a split-horizon sink feed, whose withdrawals leave
   non-empty damp-map entries. *)
let last_phase (l : Fuzz.Chaos.leg) =
  List.nth l.phases (List.length l.phases - 1)

let flap_damping_sinkfeed ~seed n =
  let rec go index acc =
    if List.length acc = n || index > 2000 then List.rev acc
    else
      let c = Cg.case ~seed ~index in
      go (index + 1)
        (if
           is_star c
           && List.mem "flap_damping" c.chain
           && List.exists (fun f -> fault_family f = "sinkfeed") c.faults
         then c :: acc
         else acc)
  in
  go 0 []

let test_map_state_equivalence () =
  let cases = flap_damping_sinkfeed ~seed:1234 2 in
  check_int "two flap_damping sinkfeed cases found" 2 (List.length cases);
  List.iter
    (fun (c : Cg.case) ->
      let label = Format.asprintf "%a" Cg.pp_case c in
      check_clean c;
      let leg0 = List.hd c.grid in
      let g = last_phase (Fuzz.Chaos.run_leg c leg0) in
      let b =
        last_phase
          (Fuzz.Chaos.run_leg c
             { leg0 with update_groups = not leg0.update_groups })
      in
      check_bool (label ^ ": maps non-empty") true (g.maps <> "");
      check_bool (label ^ ": map fingerprints byte-identical") true
        (g.maps = b.maps))
    cases

(* the self-test knob must trip the map-state comparison and the
   frame-stream one, not just the routing snapshots *)
let test_map_state_perturb () =
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let c = List.hd (flap_damping_sinkfeed ~seed:1234 1) in
  let findings, _ = Fuzz.Chaos.run_case ~perturb:true c in
  let reported sub =
    List.exists
      (fun (f : Fuzz.Chaos.finding) ->
        f.cls = Fuzz.Chaos.Equivalence && contains ~sub f.detail)
      findings
  in
  check_bool "map-state divergence reported" true
    (reported "map state differs");
  check_bool "frame-stream divergence reported" true
    (reported "frame stream diverges")

let () =
  Alcotest.run "fanout"
    [
      ( "split_update_raw",
        [
          ("exact 4096 fit", `Quick, test_split_exact_fit);
          ("one prefix over splits", `Quick, test_split_one_over);
          ("withdrawn-only splitting", `Quick, test_split_withdrawn_only);
          ("mixed frames ordered", `Quick, test_split_mixed);
          ("oversized attrs raise", `Quick, test_split_attrs_too_big);
          ("empty input", `Quick, test_split_empty);
          Qc.to_alcotest split_roundtrip_prop;
        ] );
      ( "engine",
        [
          ("join/leave + telemetry", `Quick, test_join_leave_telemetry);
          ("broadcast / suppress / withdraw", `Quick, test_route_update_broadcast);
          ("split-horizon classes", `Quick, test_split_horizon_classes);
          ("late join, no duplicates", `Quick, test_late_join_no_duplicates);
          ("rekey split/merge counters", `Quick, test_rekey_split_merge);
          ("rekey keeps unequal RIBs apart", `Quick,
            test_rekey_rib_mismatch_stays_apart);
          ("rekey refuses pending events", `Quick, test_rekey_pending_raises);
          ("fanout bytes-saved counter", `Quick, test_fanout_saved_counter);
          Qc.to_alcotest engine_model_prop;
        ] );
      ( "equivalence",
        [
          Qc.to_alcotest star_equivalence_prop;
          ("every host x churn variant", `Quick, test_equivalence_per_churn);
          ("withdrawal racing re-advertisement", `Quick, test_wd_race_pinned);
          ("grouping effectiveness", `Quick, test_grouping_effectiveness);
          ("map state across export modes", `Quick,
            test_map_state_equivalence);
          ("map-state oracle self-test", `Quick, test_map_state_perturb);
        ] );
    ]
