(* The repository benchmark: one workload per invocation, both hosts.

     main.exe --workload fig3-rr --seed 1 --seconds 10 --trace 0

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones (BENCHMARK.json "end_to_end"); with
   --trace 1 they are the per-layer ones ("per_layer"), and the
   bench-side spans are written as a Chrome trace under perfbench/out/.
   The line before it carries the run's metadata. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let commit = ref "unknown"
let nproc = ref 0
let perturb = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME fig3-rr | star-ov-fanout | churn-med");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_int seconds, "N measured seconds");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ("--commit", Arg.Set_string commit, "ID source revision, for the metadata");
    ("--nproc", Arg.Set_int nproc, "N online CPUs, for the metadata");
    ( "--perturb",
      Arg.Set perturb,
      " self-test: corrupt the expected outcome, so checks must fail" );
  ]

let hosts : Work.host list = [ `Frr; `Bird ]

(* Minimum measured passes per host. *)
let min_rounds = 3

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tally = { mutable attempted : int; mutable failed : int }

let count tally (p : Work.pass) =
  tally.attempted <- tally.attempted + p.attempted;
  tally.failed <- tally.failed + p.failed

(* The check passes: one per host, outside every measured window, with
   the full routing-outcome comparison enabled. *)
let check_passes (w : Work.workload) tally =
  List.iter
    (fun host ->
      let p =
        w.pass ~host ~seed:!seed ~check:true ~slice_s:0.2 Work.no_hooks
      in
      count tally p)
    hosts

(* A churn pass steps for this long after its set-up: short enough that
   a run holds many passes, whose median rides out a noisy neighbour. *)
let slice_s = 0.5

(* Measured passes, host order alternating per round so neither host
   systematically runs on a fresher heap; passes continue until the
   time budget is spent and every host has [min_rounds]. *)
let measured_passes (w : Work.workload) tally ~budget_s =
  let by_host = List.map (fun h -> (h, ref [])) hosts in
  let t_end = Work.now_s () +. budget_s in
  let round = ref 0 in
  while !round < min_rounds || Work.now_s () < t_end do
    let order = if !round land 1 = 0 then hosts else List.rev hosts in
    List.iter
      (fun host ->
        let p =
          w.pass ~host ~seed:!seed ~check:false ~slice_s Work.no_hooks
        in
        count tally p;
        let r = List.assoc host by_host in
        r := p :: !r)
      order;
    incr round
  done;
  List.map (fun (h, r) -> (h, !r)) by_host

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let rate (p : Work.pass) = float p.ops /. p.window_s
let p50_us (p : Work.pass) = Work.percentile (sorted p.lat_us) 0.50

(* A shared host slows single passes by a quarter or more, and at times
   speeds one up as much, so every figure is the median over the run's
   passes. *)
let end_to_end by_host =
  let per_host =
    List.concat_map
      (fun (host, passes) ->
        let h = Work.host_name host in
        [
          (h ^ ".routes_per_s", (median (List.map rate passes), "1/s"));
          (h ^ ".update_p50_us", (median (List.map p50_us passes), "us"));
          ( h ^ ".bytes_per_route",
            (median (List.map (fun (p : Work.pass) -> p.bytes_per_route) passes), "B") );
        ])
      by_host
  in
  let setup =
    List.fold_left
      (fun acc (_, passes) ->
        acc +. median (List.map (fun (p : Work.pass) -> p.setup_s) passes))
      0. by_host
  in
  per_host @ [ ("setup_s", (setup, "s")) ]

(* Per host: latency sample count, and each pass's rate, oldest first. *)
let samples by_host =
  List.map
    (fun (host, passes) ->
      ( Work.host_name host,
        List.fold_left (fun acc (p : Work.pass) -> acc + Array.length p.lat_us) 0 passes,
        List.rev_map rate passes ))
    by_host

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct tally metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, (v, unit)) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed m

let print_meta (w : Work.workload) extra =
  let fields =
    [
      ("workload", Printf.sprintf "%S" w.name);
      ("seed", string_of_int !seed);
      ("seconds", string_of_int !seconds);
      ("trace", string_of_int !trace);
      ("table_size", string_of_int w.table_size);
      ("engine", Printf.sprintf "%S" (Ebpf.Vm.engine_name Work.engine));
      ("nproc", string_of_int !nproc);
      ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml_version", Printf.sprintf "%S" Sys.ocaml_version);
      ("commit", Printf.sprintf "%S" !commit);
    ]
    @ extra
  in
  Printf.printf "{\"meta\": {%s}}\n%!"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields))

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe";
  let w =
    match List.find_opt (fun (w : Work.workload) -> w.name = !workload) Work.workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !perturb then Work.perturb := true;
  Frrouting.Attr_intern.set_conversion_cache true;
  Bird.Eattr.set_conversion_cache true;
  let tally = { attempted = 0; failed = 0 } in
  check_passes w tally;
  let samples_meta by_host =
    ( "samples",
      "{"
      ^ String.concat ", "
          (List.map
             (fun (h, lat, passes) ->
               Printf.sprintf "%S: {\"latency_samples\": %d, \"pass_rates\": [%s]}" h lat
                 (String.concat ", " (List.map json_number passes)))
             (samples by_host))
      ^ "}" )
  in
  let metrics, meta =
    if !trace = 0 then
      let by_host = measured_passes w tally ~budget_s:(float !seconds) in
      (end_to_end by_host, [ samples_meta by_host ])
    else begin
      (* the untraced baseline the tracing overhead is measured against *)
      let by_host = measured_passes w tally ~budget_s:(float !seconds /. 2.) in
      let metrics =
        List.concat_map
          (fun host ->
            let s_per_op = 1. /. median (List.map rate (List.assoc host by_host)) in
            let t = Trace.traced_pass w ~host ~seed:!seed ~slice_s in
            count tally t.pass;
            (* the update p99 swings with where major-GC slices land, run
               to run, by more than an end-to-end bound allows *)
            let lat =
              sorted
                (Array.concat
                   (List.map (fun (p : Work.pass) -> p.lat_us) (List.assoc host by_host)))
            in
            Trace.metrics w ~host ~seed:!seed ~t ~untraced_s_per_op:s_per_op
            @ [ (Work.host_name host ^ ".gc.pause_signal", (Work.percentile lat 0.99, "us")) ])
          hosts
      in
      let path = Trace.write_chrome_trace ~workload:w.name ~seed:!seed in
      (metrics, [ samples_meta by_host; ("chrome_trace", Printf.sprintf "%S" path) ])
    end
  in
  let finite = List.for_all (fun (_, (v, _)) -> Float.is_finite v) metrics in
  print_meta w meta;
  print_result ~correct:(finite && tally.failed = 0) tally metrics
