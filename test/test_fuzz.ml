(* Tests for the fuzzer itself: generator determinism, clean bounded
   campaigns, and the full forced-divergence pipeline for every kind of
   case — oracle fires, shrinker minimizes, reproducer file round-trips
   and replays to the same findings. *)

module Cg = Fuzz.Config_gen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let is_star (c : Cg.case) =
  match c.topology with Cg.Star _ -> true | Cg.Fabric _ -> false

(* the first seed-7 case satisfying [p] *)
let find_case what p =
  let rec go index =
    if index > 2000 then Alcotest.failf "no %s case in 2000 indices" what
    else
      let c = Cg.case ~seed:7 ~index in
      if p c then c else go (index + 1)
  in
  go 0

let accepted prog = Result.is_ok (Ebpf.Verifier.check prog)

(* --- generator --- *)

let test_gen_deterministic () =
  for index = 0 to 30 do
    let a = Cg.case ~seed:7 ~index in
    let b = Cg.case ~seed:7 ~index in
    check_bool "same routes" true (a.routes = b.routes);
    check_bool "same faults" true (a.faults = b.faults);
    check_bool "same frames" true (a.frames = b.frames);
    check_bool "same progs" true (a.progs = b.progs)
  done;
  (* distinct seeds should not generate identical campaigns *)
  let differs =
    List.exists
      (fun index -> Cg.case ~seed:1 ~index <> Cg.case ~seed:2 ~index)
      [ 0; 1; 2; 3; 4 ]
  in
  check_bool "seeds matter" true differs

let test_gen_wellformed_attrs () =
  (* star routes feed both hosts, so they must stay inside the shared
     native attribute vocabulary: no Unknown, and the mandatory three
     present *)
  for index = 0 to 80 do
    let c = Cg.case ~seed:11 ~index in
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
  let c = find_case "star" (fun c -> is_star c && c.routes <> []) in
  check_bool "no restriction is identity" true (Cg.restrict [] c = c);
  check_bool "every index is identity" true (Cg.restrict (Cg.indices c) c = c);
  let one = Cg.restrict [ ("routes", [ 0 ]) ] c in
  check_int "restricted to one route" 1 (List.length one.routes);
  check_bool "other lists whole" true (one.faults = c.faults && one.progs = c.progs)

(* The guided programs give the verifier-facts oracle something to
   check: every one is accepted, and across a campaign's worth of cases
   their calls include sites whose r1 is resolved and join sites whose
   two edges disagree. *)
let test_gen_guided_calls () =
  let resolved = ref 0 and unresolved = ref 0 in
  for index = 0 to 150 do
    let c = Cg.case ~seed:42 ~index in
    if c.guided then
      List.iter
        (fun p ->
          match Ebpf.Verifier.check p with
          | Error _ -> Alcotest.fail "guided program rejected"
          | Ok facts ->
            List.iter
              (fun (s : Ebpf.Verifier.call_site) ->
                if s.r1 = None then incr unresolved else incr resolved)
              facts)
        c.progs
  done;
  check_bool "calls with a resolved r1" true (!resolved > 20);
  check_bool "join sites left unresolved" true (!unresolved > 5)

(* --- a bounded clean campaign --- *)

let test_campaign_clean () =
  let s = Fuzz.Chaos.campaign ~seed:7 ~cases:80 () in
  let count cls =
    List.length
      (List.concat_map
         (fun (f : Fuzz.Chaos.failure) ->
           List.filter (fun (x : Fuzz.Oracle.finding) -> x.cls = cls) f.findings)
         s.failures)
  in
  check_int "cases" 80 s.cases;
  check_int "no divergences" 0 (count Fuzz.Oracle.Equivalence);
  check_int "no crashes" 0 (count Fuzz.Oracle.Crash);
  check_int "no failing cases" 0 (List.length s.failures);
  (* a campaign this size must exercise the topologies, the hostile
     sink, the route-reflector star and both VM program kinds *)
  check_bool "several kinds covered" true (List.length s.kinds >= 5);
  List.iter
    (fun k -> check_bool (k ^ " covered") true (List.mem_assoc k s.kinds))
    [ "star"; "hostile_peer"; "rr_ibgp"; "vm_soup"; "vm_guided" ]

(* --- forced divergence: oracle -> shrink -> reproducer -> replay --- *)

(* A star case whose only perturbable input is its route table: no
   chain (so no map fingerprint), no hostile frames, no programs. *)
let routes_only_star () =
  let c =
    find_case "plain star" (fun c ->
        is_star c && c.chain = [] && List.length c.routes > 1)
  in
  Cg.restrict [ ("frames", []); ("progs", []) ] c

let test_forced_divergence_fires () =
  let c = find_case "star" (fun c -> is_star c && c.routes <> []) in
  check_int "clean without perturbation" 0
    (List.length (fst (Fuzz.Chaos.run_case c)));
  let findings, _ = Fuzz.Chaos.run_case ~perturb:true c in
  check_bool "perturbation produces findings" true (findings <> []);
  check_bool "findings are divergences" true
    (List.for_all
       (fun (f : Fuzz.Oracle.finding) -> f.cls = Fuzz.Oracle.Equivalence)
       findings)

(* The VM self-test: on the first seed-7 case carrying verifier-accepted
   guided programs, the perturbation knob corrupts the block engine's
   result and the engine oracle must report it. *)
let test_forced_engine_divergence_fires () =
  let c =
    find_case "guided VM" (fun c -> c.guided && List.exists accepted c.progs)
  in
  check_int "clean without perturbation" 0
    (List.length (fst (Fuzz.Chaos.run_case c)));
  check_bool "perturbation yields an engine divergence" true
    (List.exists
       (fun (f : Fuzz.Oracle.finding) ->
         f.cls = Fuzz.Oracle.Equivalence
         && String.starts_with ~prefix:"engine divergence" f.detail)
       (fst (Fuzz.Chaos.run_case ~perturb:true c)))

let test_shrink_minimizes () =
  let c = routes_only_star () in
  let minimized, kept =
    Fuzz.Chaos.shrink_case ~perturb:true c ~classes:[ Fuzz.Oracle.Equivalence ]
  in
  (* dropping the fed table's head route diverges with any single
     accepted route, and with none there is nothing to drop *)
  check_int "minimized to one route" 1 (List.length minimized.routes);
  (match List.assoc_opt "routes" kept with
  | Some [ _ ] -> ()
  | _ -> Alcotest.fail "expected exactly one kept route index");
  check_bool "minimized case still fails" true
    (fst (Fuzz.Chaos.run_case ~perturb:true minimized) <> [])

let with_tmp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let repro_path (f : Fuzz.Chaos.failure) =
  match f.repro_path with
  | Some (Ok p) -> p
  | Some (Error e) -> Alcotest.fail ("reproducer not written: " ^ e)
  | None -> Alcotest.fail "no reproducer written"

let replay_details (r : Fuzz.Replay.t) =
  match Fuzz.Chaos.replay r with
  | Error e -> Alcotest.fail e
  | Ok (_, findings, reproduced) ->
    check_bool "replay reproduces the class" true reproduced;
    List.map (fun (x : Fuzz.Oracle.finding) -> x.detail) findings

let test_reproducer_round_trip () =
  with_tmp_dir "fuzzrepro" (fun dir ->
      let s =
        Fuzz.Chaos.campaign ~out:dir ~perturb:true ~seed:7 ~cases:8 ()
      in
      check_bool "forced campaign fails somewhere" true (s.failures <> []);
      List.iter
        (fun (f : Fuzz.Chaos.failure) ->
          (* the file parses back to the same reproducer *)
          match Fuzz.Replay.load (repro_path f) with
          | Error e -> Alcotest.fail e
          | Ok r ->
            check_string "same kind" f.repro.kind r.kind;
            check_int "same seed" f.repro.seed r.seed;
            check_int "same case" f.repro.case_index r.case_index;
            check_bool "same kept lists" true (f.repro.kept = r.kept);
            (* replaying is deterministic: same findings, twice *)
            let first = replay_details r and second = replay_details r in
            check_bool "replay finds the failure" true (first <> []);
            check_bool "replay is deterministic" true (first = second))
        s.failures)

let test_replay_rejects_garbage () =
  let rejects what s =
    match Fuzz.Replay.of_string s with
    | Ok _ -> Alcotest.fail ("accepted " ^ what)
    | Error _ -> ()
  in
  rejects "garbage" "not a reproducer";
  rejects "bad seed" "# xbgp_fuzz reproducer v2\nseed x\n";
  rejects "an unknown list" "# xbgp_fuzz reproducer v2\nseed 1\ncase 2\nwidgets 0\n";
  rejects "a retired format" "# xbgp_fuzz reproducer v1\nseed 1\ncase 2\n";
  (* a tampered kind (seed 7 case 0 is a star) is caught at
     regeneration *)
  match
    Fuzz.Replay.case_of
      {
        seed = 7;
        case_index = 0;
        kind = "fabric_plain";
        perturb = false;
        kept = [];
        classes = [];
        note = "";
      }
  with
  | Ok _ -> Alcotest.fail "accepted a wrong kind"
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
      && Fuzz.Config_gen.restrict (Fuzz.Config_gen.indices a) a = a)

(* The export-side faults (sinkfeed, wdrace, detach) and the split leg
   came after these cases were first generated. They are drawn from
   their own stream and appended, so every earlier case keeps its fault
   schedule and its first legs exactly: the literals below are what the
   generator produced before they existed, less the retired batching
   and update-group knobs, whose draws are kept and discarded. *)
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
          "frr/interpreted tel+ s1";
          "bird/interpreted tel+ s1";
          "frr/block tel- s8";
        ] );
      ( (7, 0),
        [ "roa_swap"; "midfail:4" ],
        [
          "bird/interpreted tel- s16";
          "frr/interpreted tel- s16";
          "bird/block tel+ s1";
        ] );
      ( (7, 3),
        [ "midfail:4"; "rechain:igp_filter" ],
        [
          "frr/block tel- s1";
          "bird/block tel- s1";
          "frr/interpreted tel+ s8";
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
    (List.fold_left
       (fun acc (k, n) ->
         if k = "star" || String.starts_with ~prefix:"fabric" k then acc + n
         else acc)
       0 s.kinds);
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

(* One reproducer per kind of case, built the way the campaign builds
   it from the shrinker's output. *)
let repro_of (c : Cg.case) kept classes =
  {
    Fuzz.Replay.seed = c.seed;
    case_index = c.index;
    kind = String.concat "+" (Cg.kinds c);
    perturb = true;
    kept;
    classes = List.map Fuzz.Oracle.cls_name classes;
    note = "";
  }

let test_chaos_perturb_pipeline () =
  (* the self-test knob corrupts leg 0's snapshots and the block
     engine's results: the oracle must fire, the shrinker must keep the
     divergence class, and the reproducer must round-trip through its
     file form and replay *)
  with_tmp_dir "chaosrepro" (fun dir ->
      let s = Fuzz.Chaos.campaign ~out:dir ~perturb:true ~seed:7 ~cases:4 () in
      check_bool "perturbed campaign fails somewhere" true (s.failures <> []);
      List.iter
        (fun (f : Fuzz.Chaos.failure) ->
          check_bool "original classes recorded" true (f.classes <> []);
          check_bool "minimized case still finds them" true
            (List.exists
               (fun c -> List.mem c f.classes)
               (Fuzz.Oracle.classes_of f.findings));
          match Fuzz.Replay.load (repro_path f) with
          | Error e -> Alcotest.fail e
          | Ok r ->
            check_int "same seed" f.repro.seed r.seed;
            check_int "same case" f.repro.case_index r.case_index;
            check_bool "same kept lists" true (f.repro.kept = r.kept);
            (* replaying is deterministic and reproduces the class *)
            check_bool "replay is deterministic" true
              (replay_details r = replay_details r))
        s.failures);
  (* every kind of case on its own: a star's, a hostile star's and a VM
     case's perturbation needs the kind's own input, so the shrunk case
     keeps at least one of it (a fabric's needs only the topology) *)
  let soup_only (c : Cg.case) = not (List.exists accepted c.progs) in
  List.iter
    (fun (kind, own, p) ->
      let c = find_case kind p in
      let findings, _ = Fuzz.Chaos.run_case ~perturb:true c in
      check_bool (kind ^ ": perturbation fires") true (findings <> []);
      let classes = Fuzz.Oracle.classes_of findings in
      let minimized, kept = Fuzz.Chaos.shrink_case ~perturb:true c ~classes in
      let findings', _ = Fuzz.Chaos.run_case ~perturb:true minimized in
      check_bool (kind ^ ": shrink keeps the class") true
        (List.exists
           (fun cl -> List.mem cl classes)
           (Fuzz.Oracle.classes_of findings'));
      Option.iter
        (fun own ->
          check_bool (kind ^ ": keeps its own input") true
            (List.assoc own kept <> []))
        own;
      let r = repro_of c kept classes in
      (match Fuzz.Replay.of_string (Fuzz.Replay.to_string r) with
      | Ok r' -> check_bool (kind ^ ": round trip") true (r = r')
      | Error e -> Alcotest.fail e);
      ignore (replay_details r))
    [
      ( "star", Some "routes",
        fun c -> is_star c && c.chain = [] && c.frames = [] && soup_only c );
      ("fabric", None, fun c -> (not (is_star c)) && soup_only c);
      ( "hostile-frame star", Some "frames",
        fun c -> is_star c && c.chain = [] && c.frames <> [] && soup_only c );
      ( "VM", Some "progs",
        fun c ->
          is_star c && c.chain = [] && c.frames = [] && c.guided
          && List.exists accepted c.progs );
    ]

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
        match Fuzz.Oracle.classes_of findings with
        | [] -> true (* perturbation has nothing to corrupt here *)
        | classes ->
          let minimized, _ = Fuzz.Chaos.shrink_case ~perturb:true c ~classes in
          let findings', _ = Fuzz.Chaos.run_case ~perturb:true minimized in
          List.exists
            (fun cl -> List.mem cl classes)
            (Fuzz.Oracle.classes_of findings')))

let test_chaos_reproducer_empty_lists () =
  (* pinned regression: a reproducer whose kept-index lists are empty
     serializes to bare keys; the parser must read them back as empty
     lists, not reject the line (or worse, drop it and keep the list
     whole) *)
  let r =
    {
      Fuzz.Replay.seed = 42;
      case_index = 7;
      kind = "star";
      perturb = true;
      kept = [ ("faults", []); ("routes", []); ("frames", []); ("progs", []) ];
      classes = [ "equivalence" ];
      note = "synthetic";
    }
  in
  match Fuzz.Replay.of_string (Fuzz.Replay.to_string r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    check_bool "empty kept lists survive the round trip" true (r = r');
    (* and a mixed one for good measure: an absent list stays absent *)
    let r2 = { r with kept = [ ("faults", [ 0; 2 ]); ("progs", []) ] } in
    (match Fuzz.Replay.of_string (Fuzz.Replay.to_string r2) with
    | Error e -> Alcotest.fail e
    | Ok r2' -> check_bool "mixed lists round-trip" true (r2 = r2'));
    check_bool "bare keys are empty lists" true
      (Result.map
         (fun (x : Fuzz.Replay.t) -> x.kept)
         (Fuzz.Replay.of_string "# xbgp_fuzz reproducer v2\nseed 1\ncase 2\nroutes\n")
      = Ok [ ("routes", []) ])

(* --out DIR whose parents are missing: the campaign creates them. A
   directory that cannot be created is reported per failure, and the
   campaign keeps every finding. *)
let test_reproducer_out_dir () =
  with_tmp_dir "fuzzout" (fun dir ->
      let nested = Filename.concat (Filename.concat dir "a") "b" in
      let s = Fuzz.Chaos.campaign ~out:nested ~perturb:true ~seed:7 ~cases:3 () in
      check_bool "forced campaign fails" true (s.failures <> []);
      List.iter
        (fun f -> check_bool "written" true (Sys.file_exists (repro_path f)))
        s.failures;
      let blocker = Filename.concat dir "file" in
      Out_channel.with_open_text blocker (fun _ -> ());
      let s =
        Fuzz.Chaos.campaign ~out:(Filename.concat blocker "x") ~perturb:true
          ~seed:7 ~cases:3 ()
      in
      check_bool "findings kept" true (s.failures <> []);
      List.iter
        (fun (f : Fuzz.Chaos.failure) ->
          check_bool "findings listed" true (f.findings <> []);
          check_bool "write error reported" true
            (match f.repro_path with Some (Error _) -> true | _ -> false))
        s.failures)

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
          Alcotest.test_case "guided programs call helpers" `Quick
            test_gen_guided_calls;
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
          Alcotest.test_case "reproducer out dir" `Slow
            test_reproducer_out_dir;
        ] );
    ]
