(* xbgp-fuzz: the differential fuzzing driver.

   Campaign mode (default) generates seed-pinned cases and runs the
   differential oracle on each: identical inputs and identical extension
   bytecode through both the FRR-like and BIRD-like hosts, plus VM /
   verifier crash-safety scenarios in which every verifier-accepted
   program must behave identically — result, final registers, helper
   trace, VMM round trip — on both eBPF engines (interpreter,
   block-compiled). Every failing case is shrunk to a minimized,
   seed-pinned reproducer file.

   Replay mode (--replay FILE) regenerates a reproducer's case and
   re-runs the oracle on it.

   Chaos mode (--chaos) runs the config-space campaign instead: every
   case runs one star or fabric scenario under a seeded fault schedule
   once per knob-grid leg and demands convergence, equivalence across
   the legs and telemetry invariants. A star case's grid includes its
   own point with update groups flipped, whose per-sink UPDATE frame
   streams must match byte for byte — grouped export against per-peer
   export, under session flaps, split-horizon sink feeding, withdrawal
   races and live regrouping.

   Exit status: 0 clean, 1 findings, 124 internal error. *)

let setup_logs ~quiet verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  (* vm_soup programs fault by design, and each fault is a host
     notification at Warning — keep those out of --quiet runs *)
  Logs.set_level
    (Some
       (if verbose then Logs.Debug
        else if quiet then Logs.Error
        else Logs.Warning))

let run_campaign ~cases ~seed ~out ~force_divergence ~quiet =
  let log s = if not quiet then print_endline s in
  let summary =
    Fuzz.Engine.campaign ?out ~perturb:force_divergence ~log ~seed ~cases ()
  in
  Fmt.pr "%a@." Fuzz.Engine.pp_summary summary;
  List.iter
    (fun (f : Fuzz.Engine.failure) ->
      Fmt.pr "@.FAILING %a@." Fuzz.Gen.pp_case f.case;
      List.iter (fun fi -> Fmt.pr "  %a@." Fuzz.Oracle.pp_finding fi) f.findings;
      Option.iter (Fmt.pr "  reproducer: %s@.") f.repro_path)
    summary.results;
  if summary.results = [] then 0 else 1

let run_chaos ~cases ~seed ~out ~force_divergence ~quiet =
  let log s = if not quiet then print_endline s in
  let summary =
    Fuzz.Chaos.campaign ?out ~perturb:force_divergence ~log ~seed ~cases ()
  in
  Fmt.pr "%a@." Fuzz.Chaos.pp_summary summary;
  List.iter
    (fun (f : Fuzz.Chaos.failure) ->
      Fmt.pr "@.FAILING %a@." Fuzz.Config_gen.pp_case f.case;
      List.iter (fun fi -> Fmt.pr "  %a@." Fuzz.Chaos.pp_finding fi) f.findings;
      Option.iter (Fmt.pr "  reproducer: %s@.") f.repro_path)
    summary.failures;
  if summary.failures = [] then 0 else 1

let run_chaos_replay path content =
  match Fuzz.Replay.Chaos.of_string content with
  | Error e ->
    Fmt.epr "xbgp-fuzz: cannot load %s: %s@." path e;
    124
  | Ok repro -> (
    match Fuzz.Chaos.replay repro with
    | Error e ->
      Fmt.epr "xbgp-fuzz: cannot replay %s: %s@." path e;
      124
    | Ok (case, findings, reproduced) ->
      Fmt.pr "replaying %a@." Fuzz.Config_gen.pp_case case;
      if repro.note <> "" then Fmt.pr "recorded: %s@." repro.note;
      (match findings with
      | [] ->
        Fmt.pr "no findings — the reproducer no longer fails@.";
        0
      | fs ->
        List.iter (fun f -> Fmt.pr "%a@." Fuzz.Chaos.pp_finding f) fs;
        if not reproduced then
          Fmt.pr
            "note: findings do not match the recorded divergence classes \
             (%s)@."
            (String.concat " " repro.classes);
        1))

let run_replay path =
  (* both reproducer formats are self-describing; route on the magic *)
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e ->
    Fmt.epr "xbgp-fuzz: cannot read %s: %s@." path e;
    124
  | content when Fuzz.Replay.Chaos.is_chaos content ->
    run_chaos_replay path content
  | _ -> (
  match Fuzz.Replay.load path with
  | Error e ->
    Fmt.epr "xbgp-fuzz: cannot load %s: %s@." path e;
    124
  | Ok repro -> (
    match Fuzz.Engine.replay repro with
    | Error e ->
      Fmt.epr "xbgp-fuzz: cannot replay %s: %s@." path e;
      124
    | Ok (case, findings) ->
      Fmt.pr "replaying %a@." Fuzz.Gen.pp_case case;
      if repro.note <> "" then Fmt.pr "recorded: %s@." repro.note;
      (match findings with
      | [] ->
        Fmt.pr "no findings — the reproducer no longer fails@.";
        0
      | fs ->
        List.iter (fun f -> Fmt.pr "%a@." Fuzz.Oracle.pp_finding f) fs;
        1)))

open Cmdliner

let cases =
  let doc = "Number of generated cases in campaign mode." in
  Arg.(value & opt int 1000 & info [ "cases" ] ~docv:"N" ~doc)

let seed =
  let doc = "Master seed; every case derives deterministically from it." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let out =
  let doc = "Directory for minimized reproducer files." in
  Arg.(
    value
    & opt (some string) (Some "fuzz-out")
    & info [ "out" ] ~docv:"DIR" ~doc)

let no_out =
  let doc = "Do not write reproducer files." in
  Arg.(value & flag & info [ "no-out" ] ~doc)

let force_divergence =
  let doc =
    "Artificially corrupt the BIRD-side state (or, on VM scenarios, the \
     block-compiled engine's result; with $(b,--chaos), leg 0's final \
     route, map and UPDATE-frame snapshot) so the oracle, shrinker and \
     replay pipeline demonstrably fire (self-test mode)."
  in
  Arg.(value & flag & info [ "force-divergence" ] ~doc)

let replay =
  let doc = "Replay a reproducer file instead of running a campaign." in
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)

let chaos =
  let doc =
    "Run the config-space chaos campaign instead of the main campaign: \
     every case draws a random point in the knob/topology matrix (host, \
     engine, batching, update groups, span sampling, xprog \
     chains), runs it through a generated scenario under a seeded fault \
     schedule (session flaps, link failures, ROA swaps, live xprog \
     detach/attach, split-horizon sink feeding, withdrawal races, live \
     regrouping), and asserts convergence within budget, route-for-route \
     equivalence across the knob grid, byte-identical UPDATE streams \
     between grouped and per-peer export, and telemetry invariants. \
     Failures are ddmin-shrunk over the fault schedule and \
     route table and written as seed-pinned chaos reproducers."
  in
  Arg.(value & flag & info [ "chaos" ] ~doc)

let quiet =
  let doc = "Only print the final summary." in
  Arg.(value & flag & info [ "quiet" ] ~doc)

let verbose =
  let doc = "Verbose daemon logging." in
  Arg.(value & flag & info [ "verbose" ] ~doc)

let main cases seed out no_out force_divergence chaos replay quiet verbose =
  setup_logs ~quiet verbose;
  match replay with
  | Some path -> run_replay path
  | None when chaos ->
    let out = if no_out then None else out in
    run_chaos ~cases ~seed ~out ~force_divergence ~quiet
  | None ->
    let out = if no_out then None else out in
    run_campaign ~cases ~seed ~out ~force_divergence ~quiet

let cmd =
  let doc = "differential fuzzer for the two xBGP host implementations" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Feeds identical generated route tables, wire frames and extension \
         bytecode through both the FRR-like and the BIRD-like daemon and \
         asserts that the xBGP-visible state (Loc-RIBs rendered in the \
         neutral attribute form) is identical; runs every \
         verifier-accepted generated program on both eBPF engines \
         (interpreter, block-compiled) and asserts \
         identical results, register files and helper traces; and checks \
         that the verifier and VM never let an exception escape on \
         arbitrary programs. Every failing case is shrunk and written as \
         a seed-pinned reproducer file (see $(b,--replay)).";
      `P
        "$(b,--chaos) switches to the config-space chaos campaign: \
         randomized knob-matrix points driven through generated \
         star/fabric scenarios under seeded fault schedules, with \
         convergence, cross-knob equivalence and telemetry oracles. A \
         star case also runs its own point with update groups flipped \
         and demands byte-identical per-sink UPDATE frame streams. \
         Chaos reproducers share the $(b,--replay) flag — the file \
         format is self-describing.";
    ]
  in
  Cmd.v
    (Cmd.info "xbgp-fuzz" ~doc ~man)
    Term.(
      const main $ cases $ seed $ out $ no_out $ force_divergence $ chaos
      $ replay $ quiet $ verbose)

let () = exit (Cmd.eval' cmd)
