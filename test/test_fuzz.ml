(* Tests for the differential fuzzer itself: generator determinism, a
   clean bounded campaign, and the full forced-divergence pipeline —
   oracle fires, shrinker minimizes, reproducer file round-trips and
   replays to the same findings. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- generator --- *)

let test_gen_deterministic () =
  for index = 0 to 30 do
    let a = Fuzz.Gen.case ~seed:7 ~index in
    let b = Fuzz.Gen.case ~seed:7 ~index in
    check_bool "same scenario" true (a.scenario = b.scenario);
    check_bool "same routes" true (a.routes = b.routes);
    check_bool "same frames" true (a.frames = b.frames);
    check_bool "same progs" true (a.progs = b.progs)
  done;
  (* distinct seeds should not generate identical campaigns *)
  let differs =
    List.exists
      (fun index ->
        Fuzz.Gen.case ~seed:1 ~index <> Fuzz.Gen.case ~seed:2 ~index)
      [ 0; 1; 2; 3; 4 ]
  in
  check_bool "seeds matter" true differs

let test_gen_wellformed_attrs () =
  (* differential-scenario routes must stay inside the shared native
     attribute vocabulary: no Unknown, and the mandatory three present *)
  for index = 0 to 80 do
    let c = Fuzz.Gen.case ~seed:11 ~index in
    List.iter
      (fun (r : Dataset.Ris_gen.route) ->
        let has code =
          List.exists (fun a -> Bgp.Attr.code a = code) r.attrs
        in
        check_bool "origin" true (has Bgp.Attr.code_origin);
        check_bool "as_path" true (has Bgp.Attr.code_as_path);
        check_bool "next_hop" true (has Bgp.Attr.code_next_hop);
        check_bool "no unknown" false
          (List.exists
             (fun (a : Bgp.Attr.t) ->
               match a.value with Bgp.Attr.Unknown _ -> true | _ -> false)
             r.attrs))
      c.routes
  done

let test_restrict () =
  let c = Fuzz.Gen.case ~seed:3 ~index:0 in
  let all = Fuzz.Gen.restrict c in
  check_bool "no restriction is identity" true (all = c);
  match c.routes with
  | [] -> ()
  | _ ->
    let one = Fuzz.Gen.restrict ~routes:[ 0 ] c in
    check_int "restricted to one route" 1 (List.length one.routes)

(* --- oracle: bounded clean campaign --- *)

let test_campaign_clean () =
  let s = Fuzz.Engine.campaign ~seed:7 ~cases:80 () in
  check_int "cases" 80 s.cases;
  check_int "no divergences" 0 (Fuzz.Engine.divergences s);
  check_int "no crashes" 0 (Fuzz.Engine.crashes s);
  check_int "no failing cases" 0 (List.length s.results);
  (* the scenario mix must actually exercise both differential and VM
     modes in a campaign this size *)
  check_bool "several scenarios covered" true (List.length s.scenarios >= 5)

(* --- forced divergence: oracle -> shrink -> reproducer -> replay --- *)

(* The first seed-7 case whose scenario feeds routes through the paired
   testbeds (the perturbation knob corrupts the BIRD-side Loc-RIB, so it
   only fires on differential scenarios with a non-empty table). *)
let first_differential_case () =
  let rec go index =
    if index > 500 then Alcotest.fail "no differential case in 500 indices"
    else
      let c = Fuzz.Gen.case ~seed:7 ~index in
      match c.scenario with
      | Fuzz.Gen.Plain_ebgp when c.routes <> [] -> c
      | _ -> go (index + 1)
  in
  go 0

let test_forced_divergence_fires () =
  let c = first_differential_case () in
  check_int "clean without perturbation" 0
    (List.length (Fuzz.Oracle.run c));
  let findings = Fuzz.Oracle.run ~perturb:true c in
  check_bool "perturbation produces findings" true (findings <> []);
  check_bool "findings are divergences" true
    (List.for_all
       (fun (f : Fuzz.Oracle.finding) -> f.kind = Fuzz.Oracle.Divergence)
       findings)

(* The VM-scenario self-test: on the first seed-7 [Vm_guided] case
   carrying a verifier-accepted program, the perturbation knob corrupts
   the block engine's result and the engine oracle must report it. *)
let test_forced_engine_divergence_fires () =
  let rec first index =
    if index > 500 then Alcotest.fail "no guided VM case in 500 indices"
    else
      let c = Fuzz.Gen.case ~seed:7 ~index in
      match c.scenario with
      | Fuzz.Gen.Vm_guided
        when List.exists (fun p -> Result.is_ok (Ebpf.Verifier.check p)) c.progs ->
        c
      | _ -> first (index + 1)
  in
  let c = first 0 in
  check_int "clean without perturbation" 0
    (List.length (Fuzz.Oracle.run c));
  check_bool "perturbation yields an engine divergence" true
    (List.exists
       (fun (f : Fuzz.Oracle.finding) ->
         f.kind = Fuzz.Oracle.Divergence
         && String.starts_with ~prefix:"engine divergence" f.detail)
       (Fuzz.Oracle.run ~perturb:true c))

let test_shrink_minimizes () =
  let c = first_differential_case () in
  let minimized, routes, _, _ = Fuzz.Engine.shrink_case ~perturb:true c in
  (* dropping the first Loc-RIB entry diverges with any single route *)
  check_int "minimized to one route" 1 (List.length minimized.routes);
  (match routes with
  | Some [ _ ] -> ()
  | _ -> Alcotest.fail "expected exactly one kept route index");
  check_bool "minimized case still fails" true
    (Fuzz.Oracle.run ~perturb:true minimized <> [])

let test_reproducer_round_trip () =
  let dir = Filename.temp_file "fuzzrepro" "" in
  Sys.remove dir;
  let s = Fuzz.Engine.campaign ~out:dir ~perturb:true ~seed:7 ~cases:8 () in
  check_bool "forced campaign fails somewhere" true (s.results <> []);
  List.iter
    (fun (f : Fuzz.Engine.failure) ->
      let path =
        match f.repro_path with
        | Some p -> p
        | None -> Alcotest.fail "no reproducer written"
      in
      (* the file parses back to the same reproducer *)
      (match Fuzz.Replay.load path with
      | Error e -> Alcotest.fail e
      | Ok r ->
        check_string "same scenario" f.repro.scenario r.scenario;
        check_int "same seed" f.repro.seed r.seed;
        check_int "same case" f.repro.case_index r.case_index;
        check_bool "same kept routes" true (f.repro.routes = r.routes);
        (* replaying is deterministic: same findings, twice *)
        let run () =
          match Fuzz.Engine.replay r with
          | Error e -> Alcotest.fail e
          | Ok (_, findings) ->
            List.map (fun (x : Fuzz.Oracle.finding) -> x.detail) findings
        in
        let first = run () and second = run () in
        check_bool "replay finds the failure" true (first <> []);
        check_bool "replay is deterministic" true (first = second)))
    s.results;
  (* clean up the reproducer directory *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_replay_rejects_garbage () =
  (match Fuzz.Replay.of_string "not a reproducer" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match Fuzz.Replay.of_string "# xbgp_fuzz reproducer v1\nseed x\n" with
  | Ok _ -> Alcotest.fail "accepted bad seed"
  | Error _ -> ()

(* --- chaos campaign --- *)

let test_chaos_gen_deterministic () =
  for index = 0 to 25 do
    let a = Fuzz.Config_gen.case ~seed:5 ~index
    and b = Fuzz.Config_gen.case ~seed:5 ~index in
    check_bool "identical case" true (a = b)
  done;
  let differs =
    List.exists
      (fun index ->
        Fuzz.Config_gen.case ~seed:1 ~index
        <> Fuzz.Config_gen.case ~seed:2 ~index)
      [ 0; 1; 2; 3; 4 ]
  in
  check_bool "seeds matter" true differs

let prop_chaos_gen_pure =
  QCheck2.Test.make ~name:"chaos case is a pure function of (seed, index)"
    ~count:60
    QCheck2.Gen.(pair (int_bound 99_999) (int_bound 500))
    (fun (seed, index) ->
      let a = Fuzz.Config_gen.case ~seed ~index in
      let b = Fuzz.Config_gen.case ~seed ~index in
      a = b
      (* restricting to every index is the identity *)
      && Fuzz.Config_gen.restrict
           ~faults:(List.mapi (fun i _ -> i) a.faults)
           ~routes:(List.mapi (fun i _ -> i) a.routes)
           a
         = a)

(* The export-side faults (sinkfeed, wdrace, detach) and the groups-flip
   leg came after these cases were first generated. They are drawn from
   their own stream and appended, so every earlier case keeps its fault
   schedule and its first legs exactly: the literals below are what the
   generator produced before they existed. *)
let test_chaos_gen_stable () =
  List.iter
    (fun ((seed, index), faults, legs) ->
      let c = Fuzz.Config_gen.case ~seed ~index in
      let names = List.map Fuzz.Config_gen.fault_name c.faults in
      let label = Printf.sprintf "seed %d case %d" seed index in
      check_bool (label ^ ": fault schedule kept") true
        (List.filteri (fun i _ -> i < List.length faults) names = faults);
      (match List.filteri (fun i _ -> i >= List.length faults) c.faults with
      | [] | [ (Sink_feed _ | Wd_race _ | Detach _) ] -> ()
      | _ -> Alcotest.fail (label ^ ": unexpected appended faults"));
      check_bool (label ^ ": legs 0..2 kept") true
        (List.filteri (fun i _ -> i < 3)
           (List.map (Fmt.str "%a" Fuzz.Config_gen.pp_knobs) c.grid)
        = legs))
    [
      ( (42, 17),
        [ "flap:1" ],
        [
          "frr/interpreted batch- groups- tel+ s1";
          "bird/interpreted batch- groups- tel+ s1";
          "frr/block batch+ groups+ tel- s8";
        ] );
      ( (7, 0),
        [ "roa_swap"; "midfail:4" ],
        [
          "bird/interpreted batch+ groups- tel- s16";
          "frr/interpreted batch+ groups- tel- s16";
          "bird/block batch- groups+ tel+ s1";
        ] );
      ( (7, 3),
        [ "midfail:4"; "rechain:igp_filter" ],
        [
          "frr/block batch- groups- tel- s1";
          "bird/block batch- groups- tel- s1";
          "frr/interpreted batch+ groups+ tel+ s8";
        ] );
    ]

let test_chaos_verdict_deterministic () =
  (* same seed => same fault schedule, same verdict, same convergence
     samples — byte-for-byte replayability *)
  List.iter
    (fun index ->
      let c = Fuzz.Config_gen.case ~seed:7 ~index in
      let f1, conv1 = Fuzz.Chaos.run_case c in
      let f2, conv2 = Fuzz.Chaos.run_case c in
      check_bool "same findings" true
        (List.map (fun (f : Fuzz.Chaos.finding) -> (f.cls, f.detail)) f1
        = List.map (fun (f : Fuzz.Chaos.finding) -> (f.cls, f.detail)) f2);
      check_bool "same convergence samples" true (conv1 = conv2))
    [ 0; 1; 2 ]

let test_chaos_campaign_clean () =
  let s = Fuzz.Chaos.campaign ~seed:3 ~cases:25 () in
  check_int "cases" 25 s.cases;
  check_int "no failures" 0 (List.length s.failures);
  check_int "topology histogram sums" 25
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.topologies);
  check_bool "convergence samples collected" true (s.convergence <> [])

(* pinned regressions: the cases that surfaced the pending-queue
   reorder bug (ghost advertisement after a flap) and the silent
   loop-drop bug (stable ghost cycle after a fabric double failure) *)
let test_chaos_pinned_star () =
  let c = Fuzz.Config_gen.case ~seed:13 ~index:26 in
  let findings, _ = Fuzz.Chaos.run_case c in
  check_int "seed 13 case 26 clean" 0 (List.length findings)

let test_chaos_pinned_fabric () =
  let c = Fuzz.Config_gen.case ~seed:2026 ~index:88 in
  let findings, _ = Fuzz.Chaos.run_case c in
  check_int "seed 2026 case 88 clean" 0 (List.length findings)

let test_chaos_pinned_map_divergence () =
  (* pinned self-test for the map-state oracle: seed 42 case 17 runs a
     flap_damping-carrying chain whose damp map is non-empty at the end
     of every leg, so a frame/RIB-only oracle would pass a corrupted
     map fingerprint. The perturbation knob seeds exactly that
     divergence; the oracle must catch it as an Equivalence finding. *)
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let c = Fuzz.Config_gen.case ~seed:42 ~index:17 in
  check_bool "case carries a map-writing program" true
    (List.mem "flap_damping" c.chain);
  let clean, _ = Fuzz.Chaos.run_case c in
  check_int "clean without perturbation" 0 (List.length clean);
  let findings, _ = Fuzz.Chaos.run_case ~perturb:true c in
  check_bool "seeded map divergence caught" true
    (List.exists
       (fun (f : Fuzz.Chaos.finding) ->
         f.cls = Fuzz.Chaos.Equivalence
         && contains f.detail "map state differs")
       findings)

let test_chaos_perturb_pipeline () =
  (* the self-test knob corrupts leg 0's final snapshot: the oracle
     must fire, the shrinker must keep the divergence class, and the
     reproducer must round-trip through its file form and replay *)
  let dir = Filename.temp_file "chaosrepro" "" in
  Sys.remove dir;
  let s = Fuzz.Chaos.campaign ~out:dir ~perturb:true ~seed:7 ~cases:4 () in
  check_bool "perturbed campaign fails somewhere" true (s.failures <> []);
  List.iter
    (fun (f : Fuzz.Chaos.failure) ->
      check_bool "original classes recorded" true (f.classes <> []);
      check_bool "minimized case still finds them" true
        (List.exists
           (fun c -> List.mem c f.classes)
           (Fuzz.Chaos.classes_of f.findings));
      let path =
        match f.repro_path with
        | Some p -> p
        | None -> Alcotest.fail "no reproducer written"
      in
      let content =
        let ic = open_in path in
        let n = in_channel_length ic in
        let b = really_input_string ic n in
        close_in ic;
        b
      in
      check_bool "file routes to the chaos replayer" true
        (Fuzz.Replay.Chaos.is_chaos content);
      (match Fuzz.Replay.Chaos.load path with
      | Error e -> Alcotest.fail e
      | Ok r ->
        check_int "same seed" f.repro.seed r.seed;
        check_int "same case" f.repro.case_index r.case_index;
        check_bool "same kept faults" true (f.repro.faults = r.faults);
        check_bool "same kept routes" true (f.repro.routes = r.routes);
        (* replaying is deterministic and reproduces the class *)
        let run () =
          match Fuzz.Chaos.replay r with
          | Error e -> Alcotest.fail e
          | Ok (_, findings, reproduced) ->
            check_bool "replay reproduces the class" true reproduced;
            List.map (fun (x : Fuzz.Chaos.finding) -> x.detail) findings
        in
        check_bool "replay is deterministic" true (run () = run ())))
    s.failures;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let prop_chaos_shrink_preserves_class =
  (* ddmin over the fault schedule and route table must not trade the
     original divergence class for a different (easier) one *)
  QCheck2.Test.make ~name:"shrunk chaos case reproduces the original class"
    ~count:3
    QCheck2.Gen.(int_bound 20)
    (fun index ->
      let c = Fuzz.Config_gen.case ~seed:7 ~index in
      match c.topology with
      | Fuzz.Config_gen.Fabric _ -> true (* keep the property cheap *)
      | Fuzz.Config_gen.Star _ -> (
        let findings, _ = Fuzz.Chaos.run_case ~perturb:true c in
        match Fuzz.Chaos.classes_of findings with
        | [] -> true (* perturbation has nothing to corrupt here *)
        | classes ->
          let minimized, _, _ =
            Fuzz.Chaos.shrink_case ~perturb:true c ~classes
          in
          let findings', _ = Fuzz.Chaos.run_case ~perturb:true minimized in
          List.exists
            (fun cl -> List.mem cl classes)
            (Fuzz.Chaos.classes_of findings')))

let test_chaos_reproducer_empty_lists () =
  (* pinned regression: a reproducer whose kept-index lists are empty
     serializes to bare keys; the parser must read them back as
     [Some []], not reject the line (or worse, [None]) *)
  let r =
    {
      Fuzz.Replay.Chaos.seed = 42;
      case_index = 7;
      perturb = true;
      faults = Some [];
      routes = Some [];
      classes = [ "equivalence" ];
      note = "synthetic";
    }
  in
  match Fuzz.Replay.Chaos.of_string (Fuzz.Replay.Chaos.to_string r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    check_bool "empty kept lists survive the round trip" true (r = r');
    (* and a non-empty one for good measure *)
    let r2 = { r with faults = Some [ 0; 2 ]; routes = None } in
    (match Fuzz.Replay.Chaos.of_string (Fuzz.Replay.Chaos.to_string r2) with
    | Error e -> Alcotest.fail e
    | Ok r2' -> check_bool "mixed lists round-trip" true (r2 = r2'));
    check_bool "chaos magic recognized" true
      (Fuzz.Replay.Chaos.is_chaos (Fuzz.Replay.Chaos.to_string r));
    check_bool "plain reproducers are not chaos" false
      (Fuzz.Replay.Chaos.is_chaos "# xbgp_fuzz reproducer v1\n")

(* --- shrink primitive --- *)

let test_shrink_primitive () =
  (* minimal failing subset is {3}: ddmin must find it *)
  let kept =
    Fuzz.Shrink.minimize
      ~still_fails:(fun idxs -> List.mem 3 idxs)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  check_bool "found the 1-element core" true (kept = [ 3 ]);
  (* a pair that must survive together *)
  let kept =
    Fuzz.Shrink.minimize
      ~still_fails:(fun idxs -> List.mem 1 idxs && List.mem 6 idxs)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  check_bool "found the 2-element core" true (List.sort compare kept = [ 1; 6 ])

let () =
  Alcotest.run "fuzz"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "wellformed attrs" `Quick
            test_gen_wellformed_attrs;
          Alcotest.test_case "restrict" `Quick test_restrict;
        ] );
      ( "campaign",
        [ Alcotest.test_case "80 cases clean" `Slow test_campaign_clean ] );
      ( "pipeline",
        [
          Alcotest.test_case "forced divergence fires" `Quick
            test_forced_divergence_fires;
          Alcotest.test_case "forced engine divergence fires" `Quick
            test_forced_engine_divergence_fires;
          Alcotest.test_case "shrink minimizes" `Quick test_shrink_minimizes;
          Alcotest.test_case "reproducer round trip" `Slow
            test_reproducer_round_trip;
          Alcotest.test_case "replay rejects garbage" `Quick
            test_replay_rejects_garbage;
        ] );
      ( "shrink",
        [ Alcotest.test_case "ddmin cores" `Quick test_shrink_primitive ] );
      ( "chaos",
        [
          Alcotest.test_case "gen deterministic" `Quick
            test_chaos_gen_deterministic;
          Qc.to_alcotest prop_chaos_gen_pure;
          Alcotest.test_case "verdict deterministic" `Slow
            test_chaos_verdict_deterministic;
          Alcotest.test_case "25 cases clean" `Slow test_chaos_campaign_clean;
          Alcotest.test_case "pinned: seed 13 case 26" `Quick
            test_chaos_pinned_star;
          Alcotest.test_case "pinned: seed 2026 case 88" `Slow
            test_chaos_pinned_fabric;
          Alcotest.test_case "pinned: map-state oracle self-test" `Quick
            test_chaos_pinned_map_divergence;
          Alcotest.test_case "perturb pipeline" `Slow
            test_chaos_perturb_pipeline;
          Qc.to_alcotest prop_chaos_shrink_preserves_class;
          Alcotest.test_case "reproducer empty kept lists" `Quick
            test_chaos_reproducer_empty_lists;
          Alcotest.test_case "gen keeps earlier cases" `Quick
            test_chaos_gen_stable;
        ] );
    ]
