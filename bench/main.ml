(* The benchmark harness: regenerates every figure of the paper.

     dune exec bench/main.exe                  -- all: fig1 fig4 fig5 churn
                                                  telemetry micro
     dune exec bench/main.exe fig4             -- extension vs native
     dune exec bench/main.exe -- fig4 dispatch --json
                                               -- several benches, in order,
                                                  and write BENCH.json

   Benches: fig1 (CDF of IETF standardization delay), fig4 (extension
   vs native on both hosts and both eBPF engines; `ablation` is the same
   bench), fig5 (valley-free fabric audit), micro (Bechamel), churn,
   telemetry, dispatch, recorder, chaos. A bench named twice
   runs once.

   `--json` writes every number measured in the invocation to one
   BENCH.json: a header (core count, OCaml version, each bench's routes
   and rounds) and metrics keyed <bench>.<host>.<leg>.<metric>, with
   host "any" for host-independent numbers.

   Environment knobs: XBGP_BENCH_ROUTES (table size, default 8000),
   XBGP_BENCH_RUNS (paired rounds, default 15, the paper's run count;
   the slower benches take a fraction), XBGP_BENCH_CHAOS_CASES (chaos
   campaign size, default 200). *)

let env_int name default =
  try int_of_string (Sys.getenv name) with Not_found -> default

let routes_n = env_int "XBGP_BENCH_ROUTES" 8_000
let runs_n = env_int "XBGP_BENCH_RUNS" 15

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Quantile [p] in [0, 1] of a non-empty sample, interpolated linearly
   between order statistics; [quantile 0.5] is the usual median. *)
let quantile p xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  let i = p *. float_of_int (n - 1) in
  let lo = int_of_float i in
  let hi = min (lo + 1) (n - 1) in
  a.(lo) +. ((i -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* Per-round ratios num.(i) /. den.(i) as (median, min, max). Legs of
   one round share the machine's drift, so a per-round ratio cancels it
   where a ratio of medians would keep it; the min/max keep a noisy
   comparison visible. *)
let ratio_stats num den =
  let r = Array.map2 ( /. ) num den in
  (median r, Array.fold_left min infinity r, Array.fold_left max neg_infinity r)

(* a ratio of times as a percentage overhead *)
let pct (m, lo, hi) =
  ((m -. 1.) *. 100., (lo -. 1.) *. 100., (hi -. 1.) *. 100.)

(* ------------------------------------------------------------------ *)
(* The paired-round driver and the Testbed timer                       *)
(* ------------------------------------------------------------------ *)

(* [paired ~rounds legs] runs every leg once as a warmup (discarded),
   then [rounds] rounds of every leg, starting each round one leg later:
   a fixed order hands the early legs a systematically fresher heap, a
   reproducible 10-20% bias against whichever legs run last. The heap is
   compacted before each leg, so no leg pays for another's garbage. A
   leg returns the time it measured; the result is each leg's per-round
   times, keyed by leg name. *)
let paired ~rounds legs =
  let legs = Array.of_list legs in
  let n = Array.length legs in
  let run (_, leg) =
    Gc.compact ();
    leg ()
  in
  Array.iter (fun l -> ignore (run l)) legs;
  let times = Array.map (fun _ -> Array.make rounds 0.) legs in
  for r = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (k + r) mod n in
      times.(i).(r) <- run legs.(i)
    done
  done;
  Array.to_list (Array.mapi (fun i (name, _) -> (name, times.(i))) legs)

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Wall seconds from [act ()] until [converged ()] holds on the
   testbed's scheduler. *)
let timed (tb : Scenario.Testbed.t) act converged =
  wall (fun () ->
      act ();
      if not (Netsim.Sched.run_until tb.sched converged) then
        failwith "bench: pipeline did not converge")

(* One Fig. 3 pipeline run on a fresh testbed ([setup] runs before the
   sessions come up): the seconds between the first announcement and
   the downstream router holding all of [routes], and the testbed. *)
let feed_and_wait ?(setup = ignore) mode routes =
  let tb = Scenario.Testbed.create mode in
  setup tb;
  Scenario.Testbed.establish tb;
  let n = List.length routes in
  let dt =
    timed tb
      (fun () -> Scenario.Testbed.feed tb routes)
      (fun () -> Scenario.Testbed.downstream_count tb >= n)
  in
  (dt, tb)

let hosts = [ (`Frr, "frr"); (`Bird, "bird") ]

let ris_routes ?(disjoint = false) ?(seed = 42) n =
  Dataset.Ris_gen.generate
    { Dataset.Ris_gen.default_config with count = n; disjoint; seed }

(* a ROA table marking 75% of [routes] valid and 13% invalid *)
let roas_for routes =
  Dataset.Ris_gen.roas_for ~seed:7 ~valid_pct:75 ~invalid_pct:13 routes

(* ------------------------------------------------------------------ *)
(* BENCH.json                                                          *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float) list ref = ref []
let params : (string * (string * int) list) list ref = ref []

let record bench host leg metric v =
  metrics := (String.concat "." [ bench; host; leg; metric ], v) :: !metrics

let record_stats bench host leg name (m, lo, hi) =
  record bench host leg (name ^ "_median") m;
  record bench host leg (name ^ "_min") lo;
  record bench host leg (name ^ "_max") hi

(* a bench's size, for the header *)
let describe bench ps = params := (bench, ps) :: !params

let write_json path =
  let obj indent fields =
    let pad = String.make indent ' ' in
    "{\n"
    ^ String.concat ",\n"
        (List.map (fun (k, v) -> Printf.sprintf "%s  %S: %s" pad k v) fields)
    ^ "\n" ^ pad ^ "}"
  in
  let ints ps = obj 6 (List.map (fun (k, v) -> (k, string_of_int v)) ps) in
  let header =
    obj 2
      [
        ("cores", string_of_int (Domain.recommended_domain_count ()));
        ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
        ( "benches",
          obj 4 (List.rev_map (fun (b, ps) -> (b, ints ps)) !params) );
      ]
  in
  let ms = List.rev_map (fun (k, v) -> (k, Printf.sprintf "%.6g" v)) !metrics in
  let oc = open_out path in
  output_string oc (obj 0 [ ("header", header); ("metrics", obj 2 ms) ]);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s (%d measurements)\n%!" path (List.length ms)

(* ------------------------------------------------------------------ *)
(* Fig. 1: Delay between first IETF draft and RFC publication          *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  Printf.printf "=== Fig. 1: BGP RFC standardization delay (40 RFCs) ===\n";
  Printf.printf "%-8s %s\n" "delay(y)" "CDF";
  List.iter
    (fun (d, f) -> Printf.printf "%-8.1f %.3f\n" d f)
    (Dataset.Rfc_delays.cdf ());
  Printf.printf "median delay: %.2f years (paper: 3.5 years)\n"
    (Dataset.Rfc_delays.median ());
  Printf.printf "max delay:    %.2f years (paper: ~10 years)\n\n"
    (Dataset.Rfc_delays.max_delay ())

(* ------------------------------------------------------------------ *)
(* Fig. 4: extension bytecode vs native code (E3, E4, E9)              *)
(* ------------------------------------------------------------------ *)

(* The one extension-vs-native measurement: hosts x {rr, ov} x {native,
   interpreted, block}, every leg in the same paired rounds. Each
   extension leg is compared per round with the host's native
   re-implementation of the same function (native RR for rr, the native
   trie/hash ROA store for ov). The block-engine rows are the paper's
   Fig. 4 and feed the CI guard (tools/check_bench_guard.py); the
   interpreter rows are the §4 engine ablation. *)
let fig4 () =
  let n = routes_n and rounds = runs_n in
  describe "fig4" [ ("routes", n); ("rounds", rounds) ];
  Printf.printf
    "=== Fig. 4: extension bytecode vs native code, per engine ===\n\
     (%d routes, %d paired rounds; paper: 724k routes, 15 runs)\n\
     %!"
    n rounds;
  let rr_routes = ris_routes n in
  let ov_routes = ris_routes ~disjoint:true ~seed:43 n in
  let roas = roas_for ov_routes in
  let roa_xtra = [ ("roa_table", Xprogs.Util.encode_roa_table roas) ] in
  let mode host usecase engine =
    match (usecase, engine) with
    | "rr", None -> Scenario.Testbed.mode ~host ~ibgp:true ~native_rr:true ()
    | "rr", Some engine ->
      Scenario.Testbed.mode ~host ~ibgp:true
        ~manifest:Xprogs.Route_reflector.manifest ~engine ()
    | _, None -> Scenario.Testbed.mode ~host ~ibgp:false ~native_ov_roas:roas ()
    | _, Some engine ->
      Scenario.Testbed.mode ~host ~ibgp:false
        ~manifest:Xprogs.Origin_validation.manifest ~xtras:roa_xtra ~engine ()
  in
  let variants =
    (None, "native")
    :: List.map (fun e -> (Some e, Ebpf.Vm.engine_name e)) Ebpf.Vm.all_engines
  in
  let legs =
    List.concat_map
      (fun (host, hname) ->
        List.concat_map
          (fun (usecase, routes) ->
            List.map
              (fun (engine, vname) ->
                ( Printf.sprintf "%s.%s_%s" hname usecase vname,
                  fun () ->
                    fst (feed_and_wait (mode host usecase engine) routes) ))
              variants)
          [ ("rr", rr_routes); ("ov", ov_routes) ])
      hosts
  in
  let t = paired ~rounds legs in
  Printf.printf
    "%-5s %-3s %-12s %9s %9s  impact%% per round: min/q1/med/q3/max\n" "host"
    "use" "engine" "native" "ext";
  List.iter
    (fun (_, hname) ->
      List.iter
        (fun usecase ->
          let leg v = Printf.sprintf "%s_%s" usecase v in
          let native = List.assoc (hname ^ "." ^ leg "native") t in
          record "fig4" hname (leg "native") "median_s" (median native);
          List.iter
            (fun e ->
              let en = Ebpf.Vm.engine_name e in
              let ext = List.assoc (hname ^ "." ^ leg en) t in
              let impact =
                Array.map2 (fun e n -> ((e /. n) -. 1.) *. 100.) ext native
              in
              let q p = quantile p impact in
              Printf.printf
                "%-5s %-3s %-12s %8.3fs %8.3fs  %+.1f / %+.1f / %+.1f / \
                 %+.1f / %+.1f\n\
                 %!"
                hname usecase en (median native) (median ext) (q 0.) (q 0.25)
                (q 0.5) (q 0.75) (q 1.);
              record "fig4" hname (leg en) "median_s" (median ext);
              record_stats "fig4" hname (leg en) "ratio"
                (ratio_stats ext native))
            Ebpf.Vm.all_engines)
        [ "rr"; "ov" ])
    hosts;
  Printf.printf
    "expected shape (paper): RR extension <20%% slower on both hosts;\n\
     OV extension ~= native on BIRD and ~10%% FASTER than native on \
     FRRouting (hash vs trie)\n\n"

(* ------------------------------------------------------------------ *)
(* Fig. 5 / §3.3: valley-free fabric audit                             *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  Printf.printf "=== Fig. 5 / §3.3: data-center valley-free audit ===\n";
  let audit config label =
    let f = Scenario.Fabric.build ~with_transit:true config in
    Scenario.Fabric.start f;
    Scenario.Fabric.settle f 30;
    let s2_ext_path =
      match Scenario.Fabric.path f "S2" "EXT" with
      | Some p -> String.concat " " (List.map string_of_int p)
      | None -> "unreachable"
    in
    let t20_t23 = Scenario.Fabric.reaches f "T20" "T23" in
    Printf.printf "%-8s S2->external path: [%s]  T20->T23: %b\n" label
      s2_ext_path t20_t23
  in
  audit `Plain "plain";
  audit `Xbgp "xBGP";
  Printf.printf
    "(xBGP: spine reaches external directly, never via a leaf valley)\n";
  let partition config label =
    let f = Scenario.Fabric.build config in
    Scenario.Fabric.start f;
    Scenario.Fabric.settle f 30;
    Scenario.Fabric.fail_link f "L10" "S1";
    Scenario.Fabric.fail_link f "L13" "S2";
    Scenario.Fabric.settle f 60;
    let ok = Scenario.Fabric.reaches f "L10" "L13" in
    let path =
      match Scenario.Fabric.path f "L10" "L13" with
      | Some p -> String.concat " " (List.map string_of_int p)
      | None -> "-"
    in
    Printf.printf
      "%-8s after L10-S1 and L13-S2 fail: L10 reaches L13: %-5b path=[%s]\n"
      label ok path
  in
  partition `Same_as "same-AS";
  partition `Xbgp "xBGP";
  Printf.printf
    "(paper: duplicate-ASN config partitions; xBGP keeps the recovery path \
     L10-S2-L12-S1-L13)\n\n"

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  (* one pre-created VM per engine, budget refilled per iteration — the
     VMM's steady state (it keeps one VM per insertion point), and the
     only baseline under which the engines are comparable *)
  let engine_bench name engine ~helpers program =
    let vm = Ebpf.Vm.create ~engine ~helpers program in
    Test.make ~name
      (Staged.stage (fun () ->
           Ebpf.Vm.set_budget vm 1_000_000;
           ignore (Ebpf.Vm.run vm)))
  in
  let loop_program =
    Ebpf.Asm.(
      assemble
        [
          movi Ebpf.Insn.R0 0;
          movi Ebpf.Insn.R1 1000;
          label "loop";
          addi Ebpf.Insn.R0 3;
          subi Ebpf.Insn.R1 1;
          jnei Ebpf.Insn.R1 0 "loop";
          exit_;
        ])
  in
  let call_program =
    Ebpf.Asm.(
      assemble
        [
          movi Ebpf.Insn.R6 200;
          label "loop";
          call 1;
          subi Ebpf.Insn.R6 1;
          jnei Ebpf.Insn.R6 0 "loop";
          movi Ebpf.Insn.R0 0;
          exit_;
        ])
  in
  let seven = [ (1, fun _ _ -> 7L) ] in
  let vm_loop = engine_bench "ebpf-interp-3k-insns" Ebpf.Vm.Interpreted ~helpers:[] loop_program in
  let vm_loop_block =
    engine_bench "ebpf-block-3k-insns" Ebpf.Vm.Block ~helpers:[] loop_program
  in
  let helper_call =
    engine_bench "ebpf-200-helper-calls" Ebpf.Vm.Interpreted ~helpers:seven
      call_program
  in
  let helper_call_block =
    engine_bench "ebpf-200-helper-calls-block" Ebpf.Vm.Block ~helpers:seven
      call_program
  in
  (* ROA lookup: FRR-style trie vs BIRD-style hash (the §3.4 story) *)
  let routes = ris_routes ~disjoint:true 20_000 in
  let roas = roas_for routes in
  let trie = Rpki.Store_trie.of_list roas in
  let hash = Rpki.Store_hash.of_list roas in
  let probe =
    Array.of_list
      (List.map (fun (r : Dataset.Ris_gen.route) -> r.prefix) routes)
  in
  let trie_bench =
    Test.make ~name:"roa-trie-1k-lookups"
      (Staged.stage (fun () ->
           for i = 0 to 999 do
             ignore (Rpki.Store_trie.validate trie probe.(i) 1000)
           done))
  in
  let hash_bench =
    Test.make ~name:"roa-hash-1k-lookups"
      (Staged.stage (fun () ->
           for i = 0 to 999 do
             ignore (Rpki.Store_hash.validate hash probe.(i) 1000)
           done))
  in
  (* xBGP TLV adapter cost: FRR-like interned record vs BIRD-like eattrs *)
  let attrs =
    [
      Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
      Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq [ 1; 2; 3; 4 ] ]);
      Bgp.Attr.v (Bgp.Attr.Next_hop 0x0A000001);
      Bgp.Attr.v (Bgp.Attr.Communities [ 0x10001; 0x10002 ]);
    ]
  in
  let frr_attrs = Frrouting.Attr_intern.of_attrs attrs in
  let bird_attrs = Bird.Eattr.of_attrs attrs in
  let frr_tlv =
    Test.make ~name:"xbgp-get_attr-frr(convert)"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             ignore (Frrouting.Attr_intern.get_tlv frr_attrs 2)
           done))
  in
  let bird_tlv =
    Test.make ~name:"xbgp-get_attr-bird(wire)"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             ignore (Bird.Eattr.get_tlv bird_attrs 2)
           done))
  in
  let tests =
    [
      vm_loop; vm_loop_block; helper_call; helper_call_block; trie_bench;
      hash_bench; frr_tlv; bird_tlv;
    ]
  in
  Printf.printf "=== Micro-benchmarks (Bechamel) ===\n%!";
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:4000 ~quota:(Time.second 1.5) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false
           ~predictors:[| Measure.run |])
        Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
          Printf.printf "%-36s %12.1f ns/iter\n%!" name est;
          (* bechamel prefixes the group name, e.g. "micro/ebpf-..." *)
          let key =
            match String.index_opt name '/' with
            | Some i -> String.sub name (i + 1) (String.length name - i - 1)
            | None -> name
          in
          record "micro" "any" key "ns_per_iter" est
        | _ -> Printf.printf "%-36s (no estimate)\n%!" name)
      results
  in
  List.iter (fun t -> benchmark (Test.make_grouped ~name:"micro" [ t ])) tests;
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Churn: convergence under withdrawal/re-announcement, extension vs   *)
(* native (supporting experiment: the paper only measures the initial  *)
(* full-table transfer; operators care about churn too)                *)
(* ------------------------------------------------------------------ *)

let churn () =
  let n = max 1000 (routes_n / 2) and rounds = max 3 (runs_n / 3) in
  describe "churn" [ ("routes", n); ("rounds", rounds) ];
  Printf.printf
    "=== Churn: withdraw/re-announce half the table (route reflection) ===\n";
  let routes = ris_routes n in
  let half = List.filteri (fun i _ -> i mod 2 = 0) routes in
  let leg mode () =
    let _, tb = feed_and_wait mode routes in
    let count () = Scenario.Testbed.downstream_count tb in
    timed tb
      (fun () ->
        List.iter
          (fun (r : Dataset.Ris_gen.route) ->
            Frrouting.Bgpd.withdraw_local tb.upstream r.prefix)
          half)
      (fun () -> count () <= n - List.length half)
    +. timed tb
         (fun () -> Scenario.Testbed.feed tb half)
         (fun () -> count () >= n)
  in
  let t =
    paired ~rounds
      [
        ("native", leg (Scenario.Testbed.mode ~ibgp:true ~native_rr:true ()));
        ( "ext",
          leg
            (Scenario.Testbed.mode ~ibgp:true
               ~manifest:Xprogs.Route_reflector.manifest ()) );
      ]
  in
  let native = List.assoc "native" t and ext = List.assoc "ext" t in
  let ((impact, _, _) as r) = pct (ratio_stats ext native) in
  Printf.printf
    "native churn median=%.3fs  extension churn median=%.3fs  impact: %+.1f%%\n\n%!"
    (median native) (median ext) impact;
  record "churn" "frr" "native" "median_s" (median native);
  record "churn" "frr" "ext" "median_s" (median ext);
  record_stats "churn" "frr" "ext" "overhead_pct" r

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the paired enabled/disabled experiment (E11)    *)
(* ------------------------------------------------------------------ *)

(* Every Vmm.run now carries the telemetry hooks, so the number that
   matters is the cost of one dispatch with telemetry disabled — the
   state every test and benchmark runs in. The same disabled VMM is
   timed twice per round (the A/A pair — any delta between them is
   measurement noise) next to a fully enabled registry (histograms,
   spans, helper latency). The per-round minimum is kept: timing noise
   on a shared machine is one-sided, so the minimum is the stable
   estimator. The disabled path must be indistinguishable from noise:
   the A/A delta is expected within ±2%; the enabled cost is reported
   next to it. *)
let telemetry_bench () =
  let iters = 50_000 and rounds = max 7 (runs_n / 2) in
  describe "telemetry" [ ("iters", iters); ("rounds", rounds) ];
  Printf.printf
    "=== Telemetry: disabled-path noise floor (A/A) and enabled cost ===\n";
  (* a representative extension body: a compute loop in the shape of an
     attribute scan, plus a handful of helper calls *)
  let prog =
    Ebpf.Asm.(
      assemble
        [
          movi Ebpf.Insn.R7 60;
          label "compute";
          addi Ebpf.Insn.R0 3;
          subi Ebpf.Insn.R7 1;
          jnei Ebpf.Insn.R7 0 "compute";
          movi Ebpf.Insn.R6 4;
          label "calls";
          call 1;
          subi Ebpf.Insn.R6 1;
          jnei Ebpf.Insn.R6 0 "calls";
          movi Ebpf.Insn.R0 0;
          exit_;
        ])
  in
  let make_vmm tele =
    let xp = Xbgp.Xprog.v ~name:"tele_bench" [ ("main", prog) ] in
    let vmm = Xbgp.Vmm.create ~host:"bench" ~telemetry:tele () in
    (match Xbgp.Vmm.register vmm xp with
    | Ok () -> ()
    | Error e -> failwith ("telemetry bench: register: " ^ e));
    (match
       Xbgp.Vmm.attach vmm ~program:"tele_bench" ~bytecode:"main"
         ~point:Xbgp.Api.Bgp_inbound_filter ~order:0
     with
    | Ok () -> ()
    | Error e -> failwith ("telemetry bench: attach: " ^ e));
    vmm
  in
  let enabled_registry () =
    let t = Telemetry.create ~enabled:true () in
    let t0 = Unix.gettimeofday () in
    Telemetry.set_clock_ns t (fun () ->
        int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
    t
  in
  let vmm_d = make_vmm (Telemetry.create ~enabled:false ()) in
  let vmm_e = make_vmm (enabled_registry ()) in
  let prefix_arg = Bytes.make 5 '\x00' in
  let args =
    Xbgp.Host_intf.Args.of_list [ (Xbgp.Api.arg_prefix, prefix_arg) ]
  in
  let leg vmm () =
    Telemetry.reset_spans (Xbgp.Vmm.telemetry vmm);
    wall (fun () ->
        for _ = 1 to iters do
          ignore
            (Xbgp.Vmm.run vmm Xbgp.Api.Bgp_inbound_filter
               ~ops:Xbgp.Host_intf.null_ops ~args
               ~default:(fun () -> 0L))
        done)
    /. float_of_int iters *. 1e9
  in
  (* the A/A pair is the SAME disabled VMM timed twice per round — two
     instances would differ by allocation layout, which is not
     telemetry's doing *)
  let t =
    paired ~rounds
      [ ("a", leg vmm_d); ("b", leg vmm_d); ("enabled", leg vmm_e) ]
  in
  let best l = Array.fold_left min infinity (List.assoc l t) in
  let a = best "a" and b = best "b" and e = best "enabled" in
  let dis = min a b in
  let aa = (b -. a) /. a *. 100. and over = (e -. dis) /. dis *. 100. in
  Printf.printf "%-22s best=%.1f ns/run\n%!" "telemetry disabled" dis;
  Printf.printf "%-22s best=%.1f ns/run\n%!" "telemetry enabled" e;
  Printf.printf
    "disabled A/A delta (noise floor): %+.2f%%   enabled overhead: %+.2f%%\n\n%!"
    aa over;
  record "telemetry" "any" "disabled" "ns_per_run" dis;
  record "telemetry" "any" "enabled" "ns_per_run" e;
  record "telemetry" "any" "disabled" "overhead_pct" aa;
  record "telemetry" "any" "enabled" "overhead_pct" over

(* ------------------------------------------------------------------ *)
(* Dispatch fast path: calling convention + batching + sampling        *)
(* ------------------------------------------------------------------ *)

(* The extensions-attached dispatch benchmark, isolated from the rest of
   the pipeline. One "update" is what a daemon must dispatch for one
   received UPDATE message; the baseline leg reconstructs the legacy
   work (a fresh ops record, a fresh argument list, fresh prefix/source
   buffers and a dispatch per prefix) and the engine legs are what the
   daemons do now (hoisted ops, a reused argument buffer, and — when
   [Vmm.batch_invariant] proves the chain never reads the prefix — one
   dispatch shared by the whole NLRI list). Two programs bound the
   spectrum:

   - [ov]: origin validation, prefix-dependent, so both legs dispatch
     per prefix (single-prefix updates); the gap is the calling
     convention.
   - [rr]: route reflection, statically batch-invariant, dispatched over
     updates carrying [batch_k] prefixes (RIS tables are bursty; updates
     sharing one attribute set across many NLRI are the common case);
     the fast leg collapses the batch to one dispatch. *)
let dispatch_micro ~rounds ~batch_k =
  let pi =
    {
      Xbgp.Host_intf.peer_type = Xbgp.Api.ibgp_session;
      peer_as = 65000;
      peer_router_id = 0x0A000003;
      peer_addr = 0x0A000003;
      local_as = 65000;
      local_router_id = 0x0A000002;
      cluster_id = 0x0A000002;
      rr_client = true;
    }
  in
  (* a RIS-like attribute set: a transit-depth AS path, communities (the
     attributes OV converts per call), and reflection attributes from a
     peer reflector (the ones RR probes per call) *)
  let attr_list =
    Bgp.Attr.
      [
        v (Origin Igp);
        v (As_path [ Seq [ 65010; 65020; 65030; 65040; 65050; 65060 ] ]);
        v (Next_hop 0x0A000001);
        v (Local_pref 100);
        v (Communities [ 0x00010001; 0x00010002; 0x00020001 ]);
        v (Originator_id 0x0A000009);
        v (Cluster_list [ 0x0A000007; 0x0A000008 ]);
      ]
  in
  let source =
    {
      Xbgp.Host_intf.src_peer_type = Xbgp.Api.ibgp_session;
      src_router_id = 0x0A000009;
      src_addr = 0x0A000009;
      src_rr_client = true;
      src_is_local = false;
    }
  in
  let point = Xbgp.Api.Bgp_inbound_filter in
  let default () = Xbgp.Api.filter_accept in
  List.iter
    (fun (hname, get_attr) ->
      let make_ops () =
        {
          Xbgp.Host_intf.null_ops with
          peer_info = (fun () -> Some pi);
          get_attr;
          set_attr = (fun _ -> true);
        }
      in
      (* legacy per-prefix dispatch: everything rebuilt per call *)
      let legacy_dispatch vmm i =
        let ops = make_ops () in
        let pbuf = Bytes.create 5 in
        Bytes.set_int32_be pbuf 0 (Int32.of_int i);
        Bytes.set_uint8 pbuf 4 24;
        let args =
          Xbgp.Host_intf.Args.of_list
            [
              (Xbgp.Api.arg_prefix, pbuf);
              (Xbgp.Api.arg_source, Xbgp.Host_intf.source_to_bytes source);
            ]
        in
        ignore (Xbgp.Vmm.run vmm point ~ops ~args ~default)
      in
      (* the hoisted calling convention: one ops record and one argument
         buffer per VMM, the prefix rewritten in place *)
      let hoisted vmm =
        let ops = make_ops () in
        let pbuf = Bytes.create 5 in
        Bytes.set_uint8 pbuf 4 24;
        let args = Xbgp.Host_intf.Args.create () in
        Xbgp.Host_intf.Args.set args Xbgp.Api.arg_prefix pbuf;
        Xbgp.Host_intf.Args.set args Xbgp.Api.arg_source
          (Xbgp.Host_intf.source_to_bytes source);
        fun i ->
          Bytes.set_int32_be pbuf 0 (Int32.of_int i);
          ignore (Xbgp.Vmm.run vmm point ~ops ~args ~default)
      in
      (* one group: the legacy baseline (block engine) plus the hoisted
         loop on every engine, in per-update seconds *)
      let grid group manifest ~updates ~legacy ~fast =
        let vmm engine =
          Xprogs.Registry.vmm_of_manifest ~engine
            ~telemetry:(Telemetry.create ~enabled:false ())
            ~host:"bench" manifest
        in
        let per_update f () = wall f /. float_of_int updates in
        let t =
          paired ~rounds
            (("baseline", per_update (legacy (vmm Ebpf.Vm.Block)))
            :: List.map
                 (fun e ->
                   let vmm = vmm e in
                   (Ebpf.Vm.engine_name e, per_update (fast vmm (hoisted vmm))))
                 Ebpf.Vm.all_engines)
        in
        let base = List.assoc "baseline" t and block = List.assoc "block" t in
        let ((sp, lo, hi) as speedup) = ratio_stats base block in
        Printf.printf
          "micro  %-6s %-8s baseline=%.0f up/s  block=%.0f up/s  \
           speedup=%.2fx [%.2f..%.2f]\n\
           %!"
          hname group
          (1.0 /. median base)
          (1.0 /. median block)
          sp lo hi;
        List.iter
          (fun (lname, times) ->
            record "dispatch" hname
              (Printf.sprintf "micro_%s_%s" group lname)
              "updates_per_s"
              (1.0 /. median times))
          t;
        record_stats "dispatch" hname ("micro_" ^ group ^ "_block") "speedup"
          speedup
      in
      (* --- ov: prefix-dependent, single-prefix updates --- *)
      let iters = 50_000 in
      grid "ov" Xprogs.Origin_validation.manifest ~updates:iters
        ~legacy:(fun vmm () ->
          for i = 1 to iters do
            legacy_dispatch vmm i
          done)
        ~fast:(fun _ dispatch () ->
          for i = 1 to iters do
            dispatch i
          done);
      (* --- rr: batch-invariant, [batch_k]-prefix updates --- *)
      let updates = 8_000 in
      grid "rr_batch" Xprogs.Route_reflector.manifest ~updates
        ~legacy:(fun vmm () ->
          for u = 1 to updates do
            for k = 1 to batch_k do
              legacy_dispatch vmm ((u * batch_k) + k)
            done
          done)
        ~fast:(fun vmm dispatch () ->
          for u = 1 to updates do
            (* the daemon's guard: one dispatch covers the batch only
               when the chain is provably prefix-independent *)
            if
              Xbgp.Vmm.batch_invariant vmm point
                ~variant_args:[ Xbgp.Api.arg_prefix ]
            then dispatch (u * batch_k)
            else
              for k = 1 to batch_k do
                dispatch ((u * batch_k) + k)
              done
          done))
    [
      ( "frr",
        let attrs = Frrouting.Attr_intern.of_attrs attr_list in
        fun code -> Frrouting.Attr_intern.get_tlv attrs code );
      ( "bird",
        let attrs = Bird.Eattr.of_attrs attr_list in
        fun code -> Bird.Eattr.get_tlv attrs code );
    ]

(* End-to-end: the full Fig. 3 pipeline in updates/sec at the downstream
   router, on the block engine, over a telemetry ablation: off / full
   (every span) / sampled (1-in-16 spans). *)
let dispatch_pipeline ~n ~rounds =
  let routes = ris_routes n in
  let roas = roas_for routes in
  let sample_n = 16 in
  let telemetry_of = function
    | `Off -> None
    | `Full -> Some (Telemetry.create ~enabled:true ())
    | `Sampled ->
      let t = Telemetry.create ~enabled:true () in
      Telemetry.set_span_sampling t sample_n;
      Some t
  in
  let tele_name = function
    | `Off -> "tele_off"
    | `Full -> "tele_full"
    | `Sampled -> Printf.sprintf "tele_sampled_%d" sample_n
  in
  List.iter
    (fun (host, hname) ->
      List.iter
        (fun (sname, mk) ->
          let leg ~tele () =
            let telemetry = telemetry_of tele in
            fst (feed_and_wait (mk ~engine:Ebpf.Vm.Block ?telemetry ()) routes)
          in
          let t =
            paired ~rounds
              (List.map
                 (fun tele ->
                   (Printf.sprintf "%s_%s" sname (tele_name tele), leg ~tele))
                 [ `Off; `Full; `Sampled ])
          in
          let times l = List.assoc (Printf.sprintf "%s_%s" sname l) t in
          let ups times = float_of_int n /. median times in
          List.iter
            (fun (lname, times) ->
              record "dispatch" hname lname "updates_per_s" (ups times))
            t;
          let fast = tele_name `Off in
          Printf.printf "%-6s %-8s %.0f up/s\n%!" hname sname
            (ups (times fast));
          (* per-dispatch telemetry overhead, paired per round against the
             same fast configuration with telemetry off: the acceptance
             bound for the sampled leg is < 25% *)
          let overhead tele =
            let leg = tele_name tele in
            let ((m, _, _) as r) =
              pct (ratio_stats (times leg) (times fast))
            in
            record_stats "dispatch" hname (sname ^ "_" ^ leg) "overhead_pct" r;
            m
          in
          let full = overhead `Full in
          let sampled = overhead `Sampled in
          Printf.printf
            "%-6s %-8s telemetry overhead: full=%.1f%%  sampled=%.1f%%\n%!"
            hname sname full sampled)
        [
          ( "native",
            fun ~engine:_ ?telemetry () ->
              Scenario.Testbed.mode ~host ~ibgp:true ~native_rr:true
                ?telemetry () );
          ( "rr_ext",
            fun ~engine ?telemetry () ->
              Scenario.Testbed.mode ~host ~ibgp:true
                ~manifest:Xprogs.Route_reflector.manifest ~engine ?telemetry
                () );
          (* the conversion-heavy extension: OV pulls the AS_PATH and
             COMMUNITIES TLVs for every prefix *)
          ( "ov_ext",
            fun ~engine ?telemetry () ->
              Scenario.Testbed.mode ~host ~ibgp:false
                ~manifest:Xprogs.Origin_validation.manifest ~engine
                ~xtras:[ ("roa_table", Xprogs.Util.encode_roa_table roas) ]
                ?telemetry () );
        ])
    hosts

let dispatch_bench () =
  let n = max 1000 (routes_n / 2) and rounds = max 6 (runs_n / 2) in
  let micro_rounds = max 7 (runs_n / 2) and batch_k = 8 in
  describe "dispatch"
    [
      ("routes", n); ("rounds", rounds); ("micro_rounds", micro_rounds);
      ("batch_k", batch_k);
    ];
  Printf.printf
    "=== Dispatch fast path: batching x telemetry ===\n";
  dispatch_micro ~rounds:micro_rounds ~batch_k;
  dispatch_pipeline ~n ~rounds;
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Flight recorder: record-path cost and pipeline overhead (E16)       *)
(* ------------------------------------------------------------------ *)

(* The observability tax. Micro: nanoseconds per [Recorder.record] in
   the two ring regimes (append-only vs. steady-state eviction). End to
   end: the Fig. 3 pipeline with route-reflection bytecode, run bare,
   with a flight recorder attached (default 64 KiB ring — a full-table
   feed overflows it, so the eviction path is priced in), and with a
   recorder plus a BMP mirror; the overhead is the per-round time ratio
   against the bare leg. *)
let recorder_bench () =
  let n = max 1000 (routes_n / 2) and rounds = max 5 (runs_n / 3) in
  describe "recorder" [ ("routes", n); ("rounds", rounds) ];
  Printf.printf
    "=== Flight recorder: record cost and pipeline overhead ===\n";
  let iters = 200_000 in
  let fields =
    [
      ("daemon", "dut"); ("peer", "7"); ("prefix", "10.32.0.0/24");
      ("why", "as_path_len");
    ]
  in
  let micro capacity () =
    let rc = Obs.Recorder.create ~capacity ~name:"bench" () in
    wall (fun () ->
        for _ = 1 to iters do
          Obs.Recorder.record rc Obs.Recorder.Route_add fields
        done)
    /. float_of_int iters *. 1e9
  in
  List.iter
    (fun (label, times) ->
      Printf.printf "%-34s %8.1f ns/event\n%!" label (median times);
      record "recorder" "any" label "ns_per_event" (median times))
    (paired ~rounds
       [
         (* 16 MiB swallows every frame of the loop: pure append *)
         ("record_append", micro (1 lsl 24));
         (* 4 KiB is full within ~60 events: every record also evicts *)
         ("record_evicting", micro 4096);
       ]);
  let routes = ris_routes n in
  List.iter
    (fun (host, hname) ->
      let mode =
        Scenario.Testbed.mode ~host ~ibgp:true
          ~manifest:Xprogs.Route_reflector.manifest ()
      in
      let held = ref 0 and evicted = ref 0 in
      let leg obs () =
        let setup (tb : Scenario.Testbed.t) =
          if obs <> `Off then begin
            let rc = Obs.Recorder.create ~name:"dut" () in
            Obs.Recorder.set_clock rc (fun () -> Netsim.Sched.now tb.sched);
            Scenario.Daemon.set_recorder tb.dut (Some rc)
          end;
          if obs = `Bmp then
            Scenario.Daemon.set_collector tb.dut (Some (Obs.Bmp.collector ()))
        in
        let dt, tb = feed_and_wait ~setup mode routes in
        (match (obs, Scenario.Daemon.recorder tb.dut) with
        | `Recorder, Some rc ->
          held := Obs.Recorder.length rc;
          evicted := Obs.Recorder.dropped rc
        | _ -> ());
        dt
      in
      let t =
        paired ~rounds
          [
            ("off", leg `Off); ("recorder", leg `Recorder);
            ("recorder_bmp", leg `Bmp);
          ]
      in
      let ups l = float_of_int n /. median (List.assoc l t) in
      let over l = pct (ratio_stats (List.assoc l t) (List.assoc "off" t)) in
      let (r, _, _) = over "recorder" and (rb, _, _) = over "recorder_bmp" in
      Printf.printf
        "%-6s off=%.0f up/s  recorder=%.0f up/s (%+.1f%%)  \
         recorder+bmp=%.0f up/s (%+.1f%%)  ring held=%d evicted=%d\n%!"
        hname (ups "off") (ups "recorder") r (ups "recorder_bmp") rb !held
        !evicted;
      let rec_ = record "recorder" hname in
      rec_ "off" "updates_per_s" (ups "off");
      List.iter
        (fun l ->
          rec_ l "updates_per_s" (ups l);
          record_stats "recorder" hname l "overhead_pct" (over l))
        [ "recorder"; "recorder_bmp" ];
      rec_ "recorder" "ring_events_held" (float_of_int !held);
      rec_ "recorder" "ring_events_evicted" (float_of_int !evicted))
    hosts;
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* chaos: convergence-time distributions from the chaos campaign       *)
(* ------------------------------------------------------------------ *)

let chaos_bench () =
  let cases = env_int "XBGP_BENCH_CHAOS_CASES" 200 and seed = 42 in
  describe "chaos" [ ("cases", cases); ("seed", seed) ];
  Printf.printf
    "=== Chaos: per-phase convergence distributions (%d cases, seed %d) \
     ===\n\
     %!"
    cases seed;
  let s = Fuzz.Chaos.campaign ~seed ~cases () in
  let rec_ = record "chaos" "any" in
  rec_ "campaign" "cases" (float_of_int s.cases);
  rec_ "campaign" "failures" (float_of_int (List.length s.failures));
  List.iter (fun (kind, n) -> rec_ kind "cases" (float_of_int n)) s.kinds;
  if s.failures <> [] then
    Printf.printf "!! %d failing case(s) — distributions below cover the \
                   passing legs only\n"
      (List.length s.failures);
  (* Convergence samples are (phase label, simulated us) from leg 0 of
     every case. Phase labels carry instance detail after the first ':'
     ("doublefail:13+0"), so bucket by the family prefix. *)
  let family label =
    match String.index_opt label ':' with
    | Some i -> String.sub label 0 i
    | None -> label
  in
  let stats name keep =
    let xs =
      Array.of_list
        (List.filter_map
           (fun (label, us) ->
             if keep label then Some (float_of_int us /. 1e6) else None)
           s.convergence)
    in
    let q p = quantile p xs in
    Printf.printf
      "%-14s n=%-5d min=%6.2fs  median=%6.2fs  p90=%6.2fs  max=%6.2fs\n%!"
      name (Array.length xs) (q 0.) (q 0.5) (q 0.9) (q 1.);
    rec_ name "n" (float_of_int (Array.length xs));
    rec_ name "min_s" (q 0.);
    rec_ name "median_s" (q 0.5);
    rec_ name "p90_s" (q 0.9);
    rec_ name "max_s" (q 1.)
  in
  List.iter
    (fun f -> stats f (fun l -> family l = f))
    (List.sort_uniq compare (List.map (fun (l, _) -> family l) s.convergence));
  if s.convergence <> [] then stats "all" (fun _ -> true);
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let benches =
  [
    ("fig1", fig1); ("fig4", fig4); ("ablation", fig4); ("fig5", fig5);
    ("micro", micro); ("churn", churn); ("telemetry", telemetry_bench);
    ("dispatch", dispatch_bench); ("recorder", recorder_bench);
    ("chaos", chaos_bench);
  ]

let all = [ "fig1"; "fig4"; "fig5"; "churn"; "telemetry"; "micro" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let names =
    match List.filter (fun a -> a <> "--json") args with
    | [] -> all
    | names -> List.concat_map (fun a -> if a = "all" then all else [ a ]) names
  in
  let run =
    List.map
      (fun name ->
        match List.assoc_opt name benches with
        | Some f -> f
        | None ->
          Printf.eprintf
            "unknown bench %S (%s|all; add --json to write BENCH.json)\n" name
            (String.concat "|" (List.map fst benches));
          exit 1)
      names
  in
  List.fold_left
    (fun ran f ->
      if List.memq f ran then ran
      else begin
        f ();
        f :: ran
      end)
    [] run
  |> ignore;
  if json then write_json "BENCH.json";
  Printf.printf "done.\n"
