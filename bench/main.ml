(* The benchmark harness: regenerates every figure of the paper.

     dune exec bench/main.exe                  -- all: fig1 fig4 fig5
                                                  telemetry micro
     dune exec bench/main.exe fig4             -- extension vs native
     dune exec bench/main.exe -- fig4 dispatch --json
                                               -- several benches, in order,
                                                  and write BENCH.json

   Benches: fig1 (CDF of IETF standardization delay), fig4 (extension
   vs native on both hosts and both eBPF engines), fig5 (valley-free
   fabric audit), micro (Bechamel), telemetry, dispatch, recorder,
   chaos. A bench named twice runs once. fig4 and the pipeline halves
   of dispatch and recorder are slices of one checked Fig. 3 leg list.

   `--json` writes every number measured in the invocation to one
   BENCH.json: a header (core count, OCaml version, each bench's routes
   and rounds) and metrics keyed <bench>.<host>.<leg>.<metric>, with
   host "any" for host-independent numbers. Every timed leg also
   records <bench>.<host>.<leg>.correct: 1 when each of its runs
   produced the routing outcome it was checked against, else 0.

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
(* Paired rounds                                                      *)
(* ------------------------------------------------------------------ *)

(* [paired ~rounds legs] runs every leg once as a warmup (discarded),
   then [rounds] rounds of every leg, starting each round one leg later:
   a fixed order hands the early legs a systematically fresher heap, a
   reproducible 10-20% bias against whichever legs run last. The heap is
   compacted before each leg, so no leg pays for another's garbage. A
   leg returns the time it measured; the result is each leg's per-round
   times, keyed like [legs]. *)
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

(* a checked leg's verdict: 1 if every run was right, else 0 *)
let record_correct bench host leg ok =
  record bench host leg "correct" (if ok then 1. else 0.)

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
(* The Fig. 3 leg list and its checked runner                          *)
(* ------------------------------------------------------------------ *)

(* Every pipeline bench times one run: a fresh Fig. 3 testbed fed one
   table, from the first announcement until the downstream router holds
   all of it. A leg names the DUT's host, the use case (reflection over
   iBGP, origin validation over eBGP), what implements it on the DUT and
   what observes the run; fig4, dispatch and recorder time slices. *)

type usecase = Rr | Ov
type dut = Native | Ext of Ebpf.Vm.engine
type obs = Off | Tele_full | Tele_sampled | Recorder | Recorder_bmp
type leg = { host : Scenario.Daemon.host; uc : usecase; dut : dut; obs : obs }

let hosts = [ `Frr; `Bird ]

let legs =
  let ( let* ) l f = List.concat_map f l in
  let* host = hosts in
  let* uc = [ Rr; Ov ] in
  let* dut = Native :: List.map (fun e -> Ext e) Ebpf.Vm.all_engines in
  List.map
    (fun obs -> { host; uc; dut; obs })
    [ Off; Tele_full; Tele_sampled; Recorder; Recorder_bmp ]

let host_name = function `Frr -> "frr" | `Bird -> "bird"
let uc_name = function Rr -> "rr" | Ov -> "ov"
let dut_name = function Native -> "native" | Ext e -> Ebpf.Vm.engine_name e
let sample_n = 16

let obs_name = function
  | Off -> "off"
  | Tele_full -> "tele_full"
  | Tele_sampled -> Printf.sprintf "tele_sampled_%d" sample_n
  | Recorder -> "recorder"
  | Recorder_bmp -> "recorder_bmp"

(* One use case's table at one size. [expect] maps each prefix to the
   origin-validation tag its native leg must deliver downstream ([None]
   on rr); [reference] caches each host's native downstream snapshot,
   [None] if that run was itself wrong. *)
type feed = {
  routes : Dataset.Ris_gen.route list;
  n : int;
  roas : Rpki.Roa.t list;
  expect : (Bgp.Prefix.t, int option) Hashtbl.t;
  reference :
    (Scenario.Daemon.host, (Bgp.Prefix.t * Bgp.Attr.t list) list option)
    Hashtbl.t;
}

(* the community both OV implementations tag a route with: 65535:1
   valid, 65535:2 invalid, 65535:3 not found *)
let ov_tag attrs =
  List.find_map
    (fun (a : Bgp.Attr.t) ->
      match a.value with
      | Bgp.Attr.Communities cs -> List.find_opt (fun c -> c lsr 16 = 0xFFFF) cs
      | _ -> None)
    attrs

let make_feed fuc n =
  let routes =
    if fuc = Rr then ris_routes n else ris_routes ~disjoint:true ~seed:43 n
  in
  let roas = if fuc = Rr then [] else roas_for routes in
  (* [Roa.validate_list] handed only the ROAs filed under one of the
     route's covering prefixes: the same answer without a pass over the
     whole table per route *)
  let by_prefix = Hashtbl.create 1024 in
  List.iter (fun (r : Rpki.Roa.t) -> Hashtbl.add by_prefix r.prefix r) roas;
  let tag (r : Dataset.Ris_gen.route) =
    let p = r.prefix in
    let filed_under l = Bgp.Prefix.v (Bgp.Prefix.addr p) l in
    let covering =
      List.concat_map
        (fun l -> Hashtbl.find_all by_prefix (filed_under l))
        (List.init (Bgp.Prefix.len p + 1) Fun.id)
    in
    let origin = Option.value ~default:0 (Dataset.Ris_gen.origin_as r) in
    match Rpki.Roa.validate_list covering p origin with
    | Valid -> 0xFFFF0001
    | Invalid -> 0xFFFF0002
    | Not_found -> 0xFFFF0003
  in
  let expect = Hashtbl.create 1024 in
  List.iter
    (fun (r : Dataset.Ris_gen.route) ->
      Hashtbl.replace expect r.prefix (if fuc = Rr then None else Some (tag r)))
    routes;
  { routes; n; roas; expect; reference = Hashtbl.create 2 }

(* each use case's feed at [n] routes, built when a leg first needs it *)
let feeds n =
  let rr = lazy (make_feed Rr n) and ov = lazy (make_feed Ov n) in
  function Rr -> Lazy.force rr | Ov -> Lazy.force ov

(* One run on a fresh testbed: the wall seconds between the first
   announcement and the downstream router holding the whole table (or
   the testbed's bound on simulated time passing first), and the testbed
   to check. *)
let run feed leg =
  let telemetry =
    if leg.obs <> Tele_full && leg.obs <> Tele_sampled then None
    else begin
      let t = Telemetry.create ~enabled:true () in
      if leg.obs = Tele_sampled then Telemetry.set_span_sampling t sample_n;
      Some t
    end
  in
  let mode = Scenario.Testbed.mode ~host:leg.host ?telemetry in
  let tb =
    Scenario.Testbed.create
      (match (leg.uc, leg.dut) with
      | Rr, Native -> mode ~ibgp:true ~native_rr:true ()
      | Rr, Ext engine ->
        mode ~ibgp:true ~manifest:Xprogs.Route_reflector.manifest ~engine ()
      | Ov, Native -> mode ~ibgp:false ~native_ov_roas:feed.roas ()
      | Ov, Ext engine ->
        mode ~ibgp:false ~manifest:Xprogs.Origin_validation.manifest
          ~xtras:[ ("roa_table", Xprogs.Util.encode_roa_table feed.roas) ]
          ~engine ())
  in
  (* the observability legs watch the DUT alone *)
  if leg.obs = Recorder || leg.obs = Recorder_bmp then begin
    let rc = Obs.Recorder.create ~name:"dut" () in
    Obs.Recorder.set_clock rc (fun () -> Netsim.Sched.now tb.sched);
    Scenario.Daemon.set_recorder tb.dut (Some rc)
  end;
  if leg.obs = Recorder_bmp then
    Scenario.Daemon.set_collector tb.dut (Some (Obs.Bmp.collector ()));
  Scenario.Testbed.establish tb;
  let dt =
    wall (fun () ->
        Scenario.Testbed.feed tb feed.routes;
        ignore (Scenario.Testbed.run_until_downstream_has tb feed.n))
  in
  (dt, tb)

let snapshot (tb : Scenario.Testbed.t) =
  Fuzz.Oracle.normalize (Frrouting.Bgpd.loc_snapshot tb.downstream)

(* A native leg must deliver [expect]: every route of the table, each
   tagged as [Roa.validate_list] says on ov. *)
let check_native feed snap =
  let held = List.length snap in
  if held <> feed.n then
    Some (Printf.sprintf "downstream holds %d of %d routes" held feed.n)
  else
    List.find_map
      (fun (p, attrs) ->
        if Hashtbl.find_opt feed.expect p = Some (ov_tag attrs) then None
        else Some (Fmt.str "%a: unexpected or mistagged" Bgp.Prefix.pp p))
      snap

(* Every other leg must leave the downstream Loc-RIB equal to the native
   leg's on the same host and use case. *)
let check feed leg tb =
  let snap = snapshot tb in
  if leg.dut = Native then check_native feed snap
  else
    let reference =
      match Hashtbl.find_opt feed.reference leg.host with
      | Some r -> r
      | None ->
        let _, tb = run feed { leg with dut = Native; obs = Off } in
        let snap = snapshot tb in
        let r = if check_native feed snap = None then Some snap else None in
        Hashtbl.replace feed.reference leg.host r;
        r
    in
    match reference with
    | None -> Some "the native reference run was wrong"
    | Some r ->
      Fuzz.Oracle.diff_snapshots ~what:"downstream" ~l0:"native"
        ~l1:(dut_name leg.dut) r snap

(* [time_legs ~bench ~n ~rounds ~name slice] times [slice] at [n] routes
   in paired rounds and checks every run, warmup included, outside its
   timed window. It records <bench>.<host>.<name leg>.correct and prints
   INCORRECT with the first wrong run's reason. [inspect] sees each
   run's testbed. Returns each leg's times. *)
let time_legs ~bench ~n ~rounds ~name ?(inspect = fun _ _ -> ()) slice =
  let feed_of = feeds n and wrong = Hashtbl.create 16 in
  let timed leg () =
    let feed = feed_of leg.uc in
    let dt, tb = run feed leg in
    inspect leg tb;
    (match check feed leg tb with
    | Some why when not (Hashtbl.mem wrong leg) ->
      Hashtbl.replace wrong leg ();
      Printf.printf "INCORRECT %s.%s.%s: %s\n%!" bench (host_name leg.host)
        (name leg)
        (String.map (fun c -> if c = '\n' then ' ' else c) why)
    | _ -> ());
    dt
  in
  let t = paired ~rounds (List.map (fun l -> (l, timed l)) slice) in
  List.iter
    (fun l ->
      let ok = not (Hashtbl.mem wrong l) in
      record_correct bench (host_name l.host) (name l) ok)
    slice;
  fun l -> List.assoc l t

(* The pipeline halves of dispatch and recorder: [slice] in updates/sec
   at the downstream router, each observed leg paired per round against
   its unobserved ([Off]) leg as an overhead in percent. *)
let observed ~bench ~n ~rounds ~name ?inspect slice =
  let times = time_legs ~bench ~n ~rounds ~name ?inspect slice in
  List.iter
    (fun l ->
      let h = host_name l.host and ups = float_of_int n /. median (times l) in
      record bench h (name l) "updates_per_s" ups;
      let over =
        if l.obs = Off then ""
        else begin
          let off = times { l with obs = Off } in
          let ((m, _, _) as r) = pct (ratio_stats (times l) off) in
          record_stats bench h (name l) "overhead_pct" r;
          Printf.sprintf "  overhead %+.1f%%" m
        end
      in
      Printf.printf "%-6s %-24s %8.0f up/s%s\n%!" h (name l) ups over)
    slice

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

(* The one extension-vs-native measurement: the observability-off slice
   of [legs], hosts x {rr, ov} x {native, interpreted, block}, every leg
   in the same paired rounds. Each extension leg is compared per round
   with the host's native re-implementation of the same function (native
   RR for rr, the native trie/hash ROA store for ov), and must leave the
   same downstream Loc-RIB. The block-engine rows are the paper's Fig. 4
   and feed the CI guard (tools/check_bench_guard.py); the interpreter
   rows are the §4 engine ablation. *)
let fig4 () =
  let n = routes_n and rounds = runs_n in
  describe "fig4" [ ("routes", n); ("rounds", rounds) ];
  Printf.printf
    "=== Fig. 4: extension bytecode vs native code, per engine ===\n\
     (%d routes, %d paired rounds; paper: 724k routes, 15 runs)\n\
     %!"
    n rounds;
  let slice = List.filter (fun l -> l.obs = Off) legs in
  let name l = uc_name l.uc ^ "_" ^ dut_name l.dut in
  let times = time_legs ~bench:"fig4" ~n ~rounds ~name slice in
  Printf.printf
    "%-5s %-3s %-12s %9s %9s  impact%% per round: min/q1/med/q3/max\n" "host"
    "use" "engine" "native" "ext";
  List.iter
    (fun l ->
      let h = host_name l.host and ext = times l in
      record "fig4" h (name l) "median_s" (median ext);
      if l.dut <> Native then begin
        let native = times { l with dut = Native } in
        let impact =
          Array.map2 (fun e n -> ((e /. n) -. 1.) *. 100.) ext native
        in
        let q p = quantile p impact in
        Printf.printf
          "%-5s %-3s %-12s %8.3fs %8.3fs  %+.1f / %+.1f / %+.1f / %+.1f / \
           %+.1f\n\
           %!"
          h (uc_name l.uc) (dut_name l.dut) (median native) (median ext) (q 0.)
          (q 0.25) (q 0.5) (q 0.75) (q 1.);
        record_stats "fig4" h (name l) "ratio" (ratio_stats ext native)
      end)
    slice;
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
   received UPDATE message, the way the daemons dispatch it: one hoisted
   ops record, a reused argument buffer and, when the chain's
   [Vmm.summary] proves it prefix-blind, one dispatch shared by the
   whole NLRI list. Two programs bound the spectrum:

   - [ov]: origin validation, prefix-dependent, dispatched per prefix
     (single-prefix updates); with no ROA table loaded every route is
     not-found, so each dispatch accepts and writes COMMUNITIES with
     65535:3 appended.
   - [rr]: route reflection, statically prefix-blind, dispatched over
     updates carrying [batch_k] prefixes (RIS tables are bursty; updates
     sharing one attribute set across many NLRI are the common case);
     the loop-free attribute set makes each dispatch defer to accept.

   Each engine's leg is checked, outside its timed loop, against that
   outcome on the first 64 updates. *)
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
  let attrs_with cs =
    Bgp.Attr.
      [
        v (Origin Igp);
        v (As_path [ Seq [ 65010; 65020; 65030; 65040; 65050; 65060 ] ]);
        v (Next_hop 0x0A000001);
        v (Local_pref 100);
        v (Communities cs);
        v (Originator_id 0x0A000009);
        v (Cluster_list [ 0x0A000007; 0x0A000008 ]);
      ]
  in
  let communities = [ 0x00010001; 0x00010002; 0x00020001 ] in
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
    (fun (hname, tlv) ->
      let get_attr = tlv (attrs_with communities) in
      (* the hoisted calling convention: one ops record and one argument
         buffer per VMM, the prefix rewritten in place *)
      let hoisted ?(set_attr = fun _ -> true) vmm =
        let ops =
          {
            Xbgp.Host_intf.null_ops with
            peer_info = (fun () -> Some pi);
            get_attr;
            set_attr;
          }
        in
        let pbuf = Bytes.create 5 in
        Bytes.set_uint8 pbuf 4 24;
        let args = Xbgp.Host_intf.Args.create () in
        Xbgp.Host_intf.Args.set args Xbgp.Api.arg_prefix pbuf;
        Xbgp.Host_intf.Args.set args Xbgp.Api.arg_source
          (Xbgp.Host_intf.source_to_bytes source);
        fun i ->
          Bytes.set_int32_be pbuf 0 (Int32.of_int i);
          Xbgp.Vmm.run vmm point ~ops ~args ~default
      in
      (* one group: the hoisted loop on every engine, in per-update
         seconds; [update vmm dispatch u] is the daemon's work for update
         [u]. Before timing, each engine's first 64 updates are checked:
         every dispatch accepts and hands set_attr [writes]. *)
      let grid group manifest ~updates ~update ~writes =
        let leg engine =
          let vmm =
            Xprogs.Registry.vmm_of_manifest ~engine
              ~telemetry:(Telemetry.create ~enabled:false ())
              ~host:"bench" manifest
          in
          let got = ref [] and want = ref [] and accepted = ref true in
          let set_attr b = got := Bytes.copy b :: !got; true in
          let checked = hoisted ~set_attr vmm in
          for u = 1 to 64 do
            update vmm
              (fun i ->
                let v = checked i in
                want := writes @ !want;
                accepted := !accepted && v = Xbgp.Api.filter_accept;
                v)
              u
          done;
          let dispatch = hoisted vmm in
          ( (Ebpf.Vm.engine_name engine, !accepted && !got = !want),
            fun () ->
              wall (fun () ->
                  for u = 1 to updates do
                    update vmm dispatch u
                  done)
              /. float_of_int updates )
        in
        List.iter
          (fun ((lname, correct), times) ->
            let leg = Printf.sprintf "micro_%s_%s" group lname in
            let ups = 1.0 /. median times in
            Printf.printf "micro  %-6s %-8s %-12s %.0f up/s%s\n%!" hname group
              lname ups
              (if correct then "" else "  INCORRECT");
            record "dispatch" hname leg "updates_per_s" ups;
            record_correct "dispatch" hname leg correct)
          (paired ~rounds (List.map leg Ebpf.Vm.all_engines))
      in
      (* --- ov: prefix-dependent, single-prefix updates --- *)
      grid "ov" Xprogs.Origin_validation.manifest ~updates:50_000
        ~update:(fun _ dispatch u -> ignore (dispatch u))
        ~writes:
          [
            Option.get
              (tlv (attrs_with (communities @ [ 0xFFFF0003 ]))
                 Bgp.Attr.code_communities);
          ];
      (* --- rr: prefix-blind, [batch_k]-prefix updates --- *)
      grid "rr_batch" Xprogs.Route_reflector.manifest ~updates:8_000
        ~update:(fun vmm dispatch u ->
          (* the daemon's guard: one dispatch covers the batch only when
             the chain is provably prefix-independent *)
          if (Xbgp.Vmm.summary vmm point).prefix_blind then
            ignore (dispatch (u * batch_k))
          else
            for k = 1 to batch_k do
              ignore (dispatch ((u * batch_k) + k))
            done)
        ~writes:[])
    [
      ("frr", fun attrs -> Frrouting.Attr_intern.(get_tlv (of_attrs attrs)));
      ("bird", fun attrs -> Bird.Eattr.(get_tlv (of_attrs attrs)));
    ]

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
  (* end to end: native RR and the RR and OV extensions on the block
     engine, over a telemetry ablation (off / full: every span /
     sampled: 1-in-16 spans) *)
  let scenario l = if l.dut = Native then "native" else uc_name l.uc ^ "_ext" in
  observed ~bench:"dispatch" ~n ~rounds
    ~name:(fun l ->
      scenario l ^ "_" ^ if l.obs = Off then "tele_off" else obs_name l.obs)
    (List.filter
       (fun l ->
         (l.dut = Ext Ebpf.Vm.Block || (l.dut = Native && l.uc = Rr))
         && List.mem l.obs [ Off; Tele_full; Tele_sampled ])
       legs);
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Flight recorder: record-path cost and pipeline overhead (E16)       *)
(* ------------------------------------------------------------------ *)

(* The observability tax. Micro: nanoseconds per [Recorder.record] in
   the two ring regimes (append-only vs. steady-state eviction). End to
   end: the recorder slice of [legs], the Fig. 3 pipeline with
   route-reflection bytecode on the interpreter, run bare, with a flight
   recorder on the DUT (default 64 KiB ring - a full-table feed
   overflows it, so the eviction path is priced in), and with a recorder
   plus a BMP mirror; the overhead is the per-round time ratio against
   the bare leg. *)
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
  let ring = Hashtbl.create 2 in
  let inspect l (tb : Scenario.Testbed.t) =
    match (l.obs, Scenario.Daemon.recorder tb.dut) with
    | Recorder, Some rc ->
      Hashtbl.replace ring l.host Obs.Recorder.(length rc, dropped rc)
    | _ -> ()
  in
  observed ~bench:"recorder" ~n ~rounds ~inspect
    ~name:(fun l -> obs_name l.obs)
    (List.filter
       (fun l ->
         l.uc = Rr && l.dut = Ext Ebpf.Vm.Interpreted
         && List.mem l.obs [ Off; Recorder; Recorder_bmp ])
       legs);
  List.iter
    (fun host ->
      let h = host_name host and held, evicted = Hashtbl.find ring host in
      Printf.printf "%-6s ring held=%d evicted=%d\n" h held evicted;
      let rec_ m v = record "recorder" h "recorder" m (float_of_int v) in
      rec_ "ring_events_held" held;
      rec_ "ring_events_evicted" evicted)
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
    ("fig1", fig1); ("fig4", fig4); ("fig5", fig5); ("micro", micro);
    ("telemetry", telemetry_bench);
    ("dispatch", dispatch_bench); ("recorder", recorder_bench);
    ("chaos", chaos_bench);
  ]

let all = [ "fig1"; "fig4"; "fig5"; "telemetry"; "micro" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let names =
    match List.filter (fun a -> a <> "--json") args with
    | [] -> all
    | names -> List.concat_map (fun a -> if a = "all" then all else [ a ]) names
  in
  (* a bench named twice runs once, where it is first named *)
  let first seen a = if List.mem a seen then seen else a :: seen in
  let names = List.rev (List.fold_left first [] names) in
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
  List.iter (fun f -> f ()) run;
  if json then write_json "BENCH.json";
  Printf.printf "done.\n"
