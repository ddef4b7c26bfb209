(* xbgp-fuzz: the fuzzing driver.

   Campaign mode (default) generates seed-pinned cases. Each case runs
   one star or fabric scenario under a seeded fault schedule once per
   knob-grid leg — leg 1 on the other host, so every case is an
   FRR-vs-BIRD differential — and demands convergence, equivalence
   across the legs and telemetry invariants. Star cases may be iBGP
   route-reflector stars, and most carry a hostile sink that writes
   mutated wire frames; the session fate and RIBs after them are
   compared leg against leg. Legs that share a host must leave every
   sink a byte-identical UPDATE frame stream; a star case's grid also
   runs its own point with every multi-prefix UPDATE the sinks send
   split into one UPDATE per prefix, and after every phase each sink
   must hold what the export reference model derives from the DUT's
   Loc-RIB. Every case also carries raw eBPF programs, each
   of which must behave identically — result, final registers, helper
   trace, VMM round trip — on both engines (interpreter,
   block-compiled), and agree with the verifier's call-site facts.
   Every failing case is shrunk to a minimized, seed-pinned reproducer
   file.

   Replay mode (--replay FILE) regenerates a reproducer's case and
   re-runs the oracle on it.

   Exit status: 0 clean, 1 findings, 124 internal error (including a
   reproducer that could not be written; the findings are printed). *)

let setup_logs ~quiet verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  (* soup programs fault by design, and each fault is a host
     notification at Warning — keep those out of --quiet runs *)
  Logs.set_level
    (Some
       (if verbose then Logs.Debug
        else if quiet then Logs.Error
        else Logs.Warning))

let run_campaign ~cases ~seed ~out ~force_divergence ~quiet =
  let log s = if not quiet then print_endline s in
  let summary =
    Fuzz.Chaos.campaign ?out ~perturb:force_divergence ~log ~seed ~cases ()
  in
  Fmt.pr "%a@." Fuzz.Chaos.pp_summary summary;
  let unwritten = ref 0 in
  List.iter
    (fun (f : Fuzz.Chaos.failure) ->
      Fmt.pr "@.FAILING %a@." Fuzz.Config_gen.pp_case f.case;
      List.iter (fun fi -> Fmt.pr "  %a@." Fuzz.Oracle.pp_finding fi) f.findings;
      match f.repro_path with
      | Some (Ok p) -> Fmt.pr "  reproducer: %s@." p
      | Some (Error e) ->
        incr unwritten;
        Fmt.epr "xbgp-fuzz: reproducer not written: %s@." e
      | None -> ())
    summary.failures;
  if !unwritten > 0 then 124 else if summary.failures = [] then 0 else 1

let run_replay path =
  match Fuzz.Replay.load path with
  | Error e ->
    Fmt.epr "xbgp-fuzz: cannot load %s: %s@." path e;
    124
  | Ok repro -> (
    match Fuzz.Chaos.replay repro with
    | Error e ->
      Fmt.epr "xbgp-fuzz: cannot replay %s: %s@." path e;
      124
    | Ok (case, findings, reproduced) -> (
      Fmt.pr "replaying %a@." Fuzz.Config_gen.pp_case case;
      if repro.note <> "" then Fmt.pr "recorded: %s@." repro.note;
      match findings with
      | [] ->
        Fmt.pr "no findings — the reproducer no longer fails@.";
        0
      | fs ->
        List.iter (fun f -> Fmt.pr "%a@." Fuzz.Oracle.pp_finding f) fs;
        if not reproduced then
          Fmt.pr
            "note: findings do not match the recorded divergence classes \
             (%s)@."
            (String.concat " " repro.classes);
        1))

open Cmdliner

let cases =
  let doc = "Number of generated cases in campaign mode." in
  Arg.(value & opt int 1000 & info [ "cases" ] ~docv:"N" ~doc)

let seed =
  let doc = "Master seed; every case derives deterministically from it." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let out =
  let doc =
    "Directory for minimized reproducer files (created with any missing \
     parents)."
  in
  Arg.(
    value
    & opt (some string) (Some "fuzz-out")
    & info [ "out" ] ~docv:"DIR" ~doc)

let no_out =
  let doc = "Do not write reproducer files." in
  Arg.(value & flag & info [ "no-out" ] ~doc)

let force_divergence =
  let doc =
    "Artificially corrupt leg 0's snapshots (the table-loading phase's \
     route and UPDATE frame, the hostile phase's session states, the \
     final map state) and the block-compiled engine's results, so the \
     oracle, shrinker and replay pipeline demonstrably fire (self-test \
     mode)."
  in
  Arg.(value & flag & info [ "force-divergence" ] ~doc)

let replay =
  let doc = "Replay a reproducer file instead of running a campaign." in
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)

let quiet =
  let doc = "Only print the final summary." in
  Arg.(value & flag & info [ "quiet" ] ~doc)

let verbose =
  let doc = "Verbose daemon logging." in
  Arg.(value & flag & info [ "verbose" ] ~doc)

let main cases seed out no_out force_divergence replay quiet verbose =
  setup_logs ~quiet verbose;
  match replay with
  | Some path -> run_replay path
  | None ->
    let out = if no_out then None else out in
    run_campaign ~cases ~seed ~out ~force_divergence ~quiet

let cmd =
  let doc = "differential fuzzer for the two xBGP host implementations" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Draws random points in the knob matrix (host, eBPF engine, \
         telemetry sampling, extension chains), \
         drives each through a generated star or Clos-fabric scenario \
         under a seeded fault schedule (session flaps, link failures, ROA \
         swaps, live extension detach/attach, split-horizon sink feeding, \
         withdrawal races, live regrouping, a hostile sink writing \
         mutated wire frames), once per leg of a knob grid whose second \
         leg runs the other host. It asserts convergence within budget, \
         route-for-route equivalence of the xBGP-visible state (Loc-RIBs, \
         adj-RIB-ins, session states and map state in the neutral form) \
         across the grid, including a leg whose sinks send one UPDATE per \
         prefix, byte-identical UPDATE streams between legs on one host, \
         sink adj-RIB-ins equal to an export reference model of the DUT's \
         Loc-RIB after every phase, and telemetry invariants.";
      `P
        "Every case also carries generated eBPF programs; each \
         verifier-accepted one must produce identical results, register \
         files, helper traces and VMM round trips on both engines \
         (interpreter, block-compiled) and agree with the verifier's \
         call-site facts, and no program may let an exception escape.";
      `P
        "Failures are ddmin-shrunk over the case's faults, routes, \
         frames and programs and written as seed-pinned reproducer files \
         (see $(b,--replay)).";
    ]
  in
  Cmd.v
    (Cmd.info "xbgp-fuzz" ~doc ~man)
    Term.(
      const main $ cases $ seed $ out $ no_out $ force_divergence $ replay
      $ quiet $ verbose)

let () = exit (Cmd.eval' cmd)
