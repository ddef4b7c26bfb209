(* xbgp-sim: command-line front end to the xBGP reproduction.

     xbgp-sim list            -- insertion points, helpers, programs
     xbgp-sim disasm PROG     -- disassemble a registered xBGP program
     xbgp-sim verify PROG     -- run the verifier over a program
     xbgp-sim manifest FILE   -- parse and validate a manifest file
     xbgp-sim run SCENARIO    -- run a scenario (rr|ov|dc) and report
     xbgp-sim show QUERY...   -- build a scenario and answer a live
                                 introspection query (rib, provenance,
                                 update-groups, maps, recorder, bmp)
*)

open Cmdliner

let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning)

(* --- list --- *)

let list_cmd =
  let run () =
    setup_logs ();
    Fmt.pr "insertion points:@.";
    List.iter
      (fun p -> Fmt.pr "  %s@." (Xbgp.Api.point_name p))
      Xbgp.Api.all_points;
    Fmt.pr "@.helpers:@.";
    List.iter
      (fun id -> Fmt.pr "  %2d %s@." id (Xbgp.Api.helper_name id))
      Xbgp.Api.all_helpers;
    Fmt.pr "@.registered xBGP programs:@.";
    List.iter
      (fun (p : Xbgp.Xprog.t) ->
        Fmt.pr "  %-20s bytecodes: %s  (%d instruction slots, %d maps)@."
          p.name
          (String.concat ", " (List.map fst p.bytecodes))
          (Xbgp.Xprog.total_slots p)
          (List.length p.maps))
      Xprogs.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List insertion points, helpers and programs")
    Term.(const run $ const ())

(* --- disasm --- *)

let prog_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROGRAM" ~doc:"Registered xBGP program name")

let disasm_cmd =
  let run name =
    setup_logs ();
    match Xprogs.Registry.find name with
    | None ->
      Fmt.epr "unknown program %S@." name;
      1
    | Some p ->
      List.iter
        (fun (bc, code) ->
          Fmt.pr "=== %s/%s ===@.%s@." name bc
            (Ebpf.Disasm.program_to_string code))
        p.bytecodes;
      0
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a registered xBGP program")
    Term.(const run $ prog_arg)

(* --- verify --- *)

let verify_cmd =
  let run name =
    setup_logs ();
    match Xprogs.Registry.find name with
    | None ->
      Fmt.epr "unknown program %S@." name;
      1
    | Some p ->
      let failures = ref 0 in
      List.iter
        (fun (bc, result) ->
          match result with
          | Ok _ -> Fmt.pr "%s/%s: OK@." name bc
          | Error es ->
            incr failures;
            Fmt.pr "%s/%s: REJECTED %a@." name bc
              Fmt.(list ~sep:semi Ebpf.Verifier.pp_error)
              es)
        (Xbgp.Vmm.verify p);
      if !failures = 0 then 0 else 1
  in
  Cmd.v (Cmd.info "verify" ~doc:"Verify a registered xBGP program")
    Term.(const run $ prog_arg)

(* --- manifest --- *)

let manifest_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Manifest file")
  in
  let run file =
    setup_logs ();
    let ic = open_in file in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    match Xbgp.Manifest.parse text with
    | Error e ->
      Fmt.epr "parse error: %s@." e;
      1
    | Ok m -> (
      let vmm = Xbgp.Vmm.create ~host:"check" () in
      match Xbgp.Manifest.load vmm ~registry:Xprogs.Registry.find m with
      | Ok () ->
        Fmt.pr "manifest OK: %d program(s), %d attachment(s)@."
          (List.length m.programs)
          (List.length m.attachments);
        0
      | Error e ->
        Fmt.epr "manifest rejected: %s@." e;
        1)
  in
  Cmd.v
    (Cmd.info "manifest" ~doc:"Parse and validate an xBGP manifest file")
    Term.(const run $ file_arg)

(* --- run --- *)

let host_arg =
  let host = Arg.enum [ ("frr", `Frr); ("bird", `Bird) ] in
  Arg.(
    value & opt host `Frr
    & info [ "host" ] ~docv:"HOST" ~doc:"DUT implementation (frr or bird)")

let routes_arg =
  Arg.(
    value & opt int 1000
    & info [ "routes" ] ~docv:"N" ~doc:"Size of the injected routing table")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics to $(docv) in Prometheus text \
           exposition format (enables telemetry)")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's spans to $(docv) as Chrome trace-event JSON, \
           loadable in chrome://tracing or Perfetto (enables telemetry)")

let trace_sample_arg =
  Arg.(
    value & opt int 1
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "Record only one span in $(docv) (deterministic 1-in-N \
           sampling). Counters stay exact; span-derived latency \
           histograms see proportionally fewer observations. 1 records \
           every span.")

(* Telemetry for a CLI run: enabled only when an export was requested,
   with real (wall-clock) nanoseconds for the duration histograms. The
   trace timebase stays the simulated clock — Testbed.create installs
   it. *)
let cli_telemetry ~metrics_out ~trace_out ~trace_sample =
  if metrics_out = None && trace_out = None then None
  else begin
    let t = Telemetry.create ~enabled:true () in
    let t0 = Unix.gettimeofday () in
    Telemetry.set_clock_ns t (fun () ->
        int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
    Telemetry.set_span_sampling t trace_sample;
    Some t
  end

let export_telemetry tele ~metrics_out ~trace_out =
  match tele with
  | None -> ()
  | Some t ->
    let write path s =
      let oc = open_out path in
      output_string oc s;
      close_out oc;
      Fmt.pr "wrote %s@." path
    in
    Option.iter (fun p -> write p (Telemetry.to_prometheus t)) metrics_out;
    Option.iter (fun p -> write p (Telemetry.to_chrome_trace t)) trace_out;
    let table = Telemetry.profile_table t in
    if table <> "" then Fmt.pr "@.%s@." table

let run_cmd =
  let scenario =
    Arg.(
      required
      & pos 0 (some (enum [ ("rr", `Rr); ("ov", `Ov); ("dc", `Dc) ])) None
      & info [] ~docv:"SCENARIO"
          ~doc:"rr = route reflection, ov = origin validation, dc = Fig. 5")
  in
  let run scenario host routes metrics_out trace_out trace_sample =
    setup_logs ();
    let tele = cli_telemetry ~metrics_out ~trace_out ~trace_sample in
    let code =
    match scenario with
    | `Rr ->
      let tb =
        Scenario.Testbed.create
          (Scenario.Testbed.mode ~host ~ibgp:true
             ~manifest:Xprogs.Route_reflector.manifest ?telemetry:tele ())
      in
      Scenario.Testbed.establish tb;
      Scenario.Testbed.feed tb
        (Dataset.Ris_gen.generate
           { Dataset.Ris_gen.default_config with count = routes });
      let ok = Scenario.Testbed.run_until_downstream_has tb routes in
      Fmt.pr "route reflection on %s: %d/%d routes reflected downstream@."
        (match host with `Frr -> "xFRRouting" | `Bird -> "xBIRD")
        (Scenario.Testbed.downstream_count tb)
        routes;
      if ok then 0 else 1
    | `Ov ->
      let rts =
        Dataset.Ris_gen.generate
          { Dataset.Ris_gen.default_config with count = routes; disjoint = true }
      in
      let roas =
        Dataset.Ris_gen.roas_for ~seed:7 ~valid_pct:75 ~invalid_pct:13 rts
      in
      let tb =
        Scenario.Testbed.create
          (Scenario.Testbed.mode ~host ~ibgp:false
             ~manifest:Xprogs.Origin_validation.manifest
             ~xtras:[ ("roa_table", Xprogs.Util.encode_roa_table roas) ]
             ?telemetry:tele ())
      in
      Scenario.Testbed.establish tb;
      Scenario.Testbed.feed tb rts;
      let ok = Scenario.Testbed.run_until_downstream_has tb routes in
      let tagged tag =
        List.length
          (List.filter
             (fun (r : Dataset.Ris_gen.route) ->
               match
                 Scenario.Daemon.best_communities
                   (Scenario.Daemon.Frr tb.downstream) r.prefix
               with
               | Some cs -> List.mem tag cs
               | None -> false)
             rts)
      in
      Fmt.pr
        "origin validation on %s: %d routes, valid=%d invalid=%d \
         not-found=%d@."
        (match host with `Frr -> "xFRRouting" | `Bird -> "xBIRD")
        routes (tagged 0xFFFF0001) (tagged 0xFFFF0002) (tagged 0xFFFF0003);
      if ok then 0 else 1
    | `Dc ->
      let f = Scenario.Fabric.build ~host ~with_transit:true `Xbgp in
      Scenario.Fabric.start f;
      Scenario.Fabric.settle f 30;
      let pp r t =
        match Scenario.Fabric.path f r t with
        | Some p -> "[" ^ String.concat " " (List.map string_of_int p) ^ "]"
        | None -> "(unreachable)"
      in
      Fmt.pr "Fig. 5 fabric under xBGP valley-free filtering:@.";
      Fmt.pr "  S2  -> external: %s@." (pp "S2" "EXT");
      Fmt.pr "  T20 -> T23:      %s@." (pp "T20" "T23");
      Scenario.Fabric.fail_link f "L10" "S1";
      Scenario.Fabric.fail_link f "L13" "S2";
      Scenario.Fabric.settle f 60;
      Fmt.pr "  after double failure, L10 -> L13: %s@." (pp "L10" "L13");
      0
    in
    export_telemetry tele ~metrics_out ~trace_out;
    code
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a use-case scenario on the simulated testbed")
    Term.(
      const run $ scenario $ host_arg $ routes_arg $ metrics_out_arg
      $ trace_out_arg $ trace_sample_arg)

(* --- show --- *)

(* A deterministic observed scenario: build it, attach a flight recorder
   and a BMP collector, drive a fixed traffic script, and answer live
   `show` queries against the resulting daemon state. Two variants:

   - star: 4 sinks around an origin-validation DUT. Sinks 0 and 1 both
     announce 10.32.0.0/24 (sink 0 wins on AS-path length; the ROA makes
     its announcement Valid and sink 1's Invalid), sink 1 alone
     announces 10.33.0.0/24, and sink 2 announces then withdraws
     10.34.0.0/24 — covering Best/Only_candidate/Withdrawn provenance.

   - fabric: the Fig. 5 Clos under the valley_free extension with the
     transit router; queries are answered at one router (default T20),
     where e.g. `show provenance 8.8.0.0/16` explains a route whose
     import chain ran on every hop. *)

let show_star ~host ~batch_updates ~update_groups ~capacity =
  let pfx = Bgp.Prefix.of_string in
  let roas = [ Rpki.Roa.v (pfx "10.32.0.0/24") ~max_len:24 ~asn:65101 ] in
  let star =
    Scenario.Star.create ~host ~npeers:4
      ~manifest:Xprogs.Origin_validation.manifest
      ~xtras:[ ("roa_table", Xprogs.Util.encode_roa_table roas) ]
      ~batch_updates ~update_groups ()
  in
  let rc = Obs.Recorder.create ~capacity ~name:"dut" () in
  Scenario.Star.attach_recorder star rc;
  Scenario.Star.attach_collector star (Obs.Bmp.collector ());
  Scenario.Star.establish star;
  let announce i path nlri =
    Scenario.Star.sink_announce star i
      ~attrs:
        Bgp.Attr.
          [
            v (Origin Igp);
            v (As_path [ Seq path ]);
            v (Next_hop (Scenario.Star.sink_address star i));
          ]
      nlri
  in
  announce 0 [ 65101 ] [ pfx "10.32.0.0/24" ];
  announce 1 [ 65102; 64999 ] [ pfx "10.32.0.0/24" ];
  announce 1 [ 65102 ] [ pfx "10.33.0.0/24" ];
  announce 2 [ 65103 ] [ pfx "10.34.0.0/24" ];
  Scenario.Star.settle star;
  Scenario.Star.sink_withdraw star 2 [ pfx "10.34.0.0/24" ];
  Scenario.Star.settle star;
  Scenario.Star.dut star

let show_fabric ~host ~batch_updates ~update_groups ~capacity ~router =
  let f =
    Scenario.Fabric.build ~host ~with_transit:true ~batch_updates
      ~update_groups `Xbgp
  in
  let rc = Obs.Recorder.create ~capacity ~name:"fabric" () in
  Scenario.Fabric.attach_recorder f rc;
  let d =
    match List.assoc_opt router f.daemons with
    | Some d -> d
    | None ->
      Fmt.epr "unknown router %S; fabric routers: %s@." router
        (String.concat " " (List.map fst f.daemons));
      exit 1
  in
  Scenario.Fabric.attach_collector f router (Obs.Bmp.collector ());
  Scenario.Fabric.start f;
  Scenario.Fabric.settle f 30;
  d

let show_cmd =
  let query_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"QUERY"
          ~doc:
            "Query words: $(b,rib) | $(b,provenance) $(i,PREFIX) | \
             $(b,update-groups) | $(b,maps) | $(b,recorder) | $(b,bmp)")
  in
  let scenario_arg =
    let s = Arg.enum [ ("star", `Star); ("fabric", `Fabric) ] in
    Arg.(
      value & opt s `Star
      & info [ "scenario" ] ~docv:"SCEN"
          ~doc:"Observed scenario to build: star or fabric (Fig. 5)")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of text")
  in
  let since_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "since" ] ~docv:"SEQ"
          ~doc:"For $(b,recorder): only events with seqno >= $(docv)")
  in
  let batch_arg =
    Arg.(
      value & opt bool true
      & info [ "batch-updates" ] ~docv:"BOOL"
          ~doc:"Batched NLRI processing on the daemons")
  in
  let groups_arg =
    Arg.(
      value & opt bool true
      & info [ "update-groups" ] ~docv:"BOOL"
          ~doc:"Update-group export engine on the daemons")
  in
  let capacity_arg =
    Arg.(
      value & opt int 4096
      & info [ "recorder-capacity" ] ~docv:"BYTES"
          ~doc:"Flight-recorder ring size in bytes")
  in
  let router_arg =
    Arg.(
      value & opt string "T20"
      & info [ "router" ] ~docv:"NAME"
          ~doc:"Fabric router to query (fabric scenario only)")
  in
  let run scenario host json since batch_updates update_groups capacity router
      query =
    setup_logs ();
    let d =
      match scenario with
      | `Star -> show_star ~host ~batch_updates ~update_groups ~capacity
      | `Fabric ->
        show_fabric ~host ~batch_updates ~update_groups ~capacity ~router
    in
    let query =
      match (query, since) with
      | [ "recorder" ], Some s -> [ "recorder"; "--since"; string_of_int s ]
      | q, _ -> q
    in
    match Scenario.Introspect.query d ~json query with
    | Ok out ->
      print_string out;
      if out = "" || out.[String.length out - 1] <> '\n' then print_newline ();
      0
    | Error e ->
      Fmt.epr "%s@." e;
      1
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:
         "Answer a live introspection query against an observed scenario")
    Term.(
      const run $ scenario_arg $ host_arg $ json_arg $ since_arg $ batch_arg
      $ groups_arg $ capacity_arg $ router_arg $ query_arg)

let () =
  let info =
    Cmd.info "xbgp-sim" ~version:"1.0.0"
      ~doc:"xBGP (HotNets'20) reproduction: programmable BGP via eBPF"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; disasm_cmd; verify_cmd; manifest_cmd; run_cmd; show_cmd ]))
