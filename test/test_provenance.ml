(* Route provenance: the record that explains why a route is installed.

   The determinism contract under test: provenance records carry no
   counters, timestamps or batching artifacts, so the SAME routes must
   yield byte-identical provenance (text AND json) whether the peers
   announce them in multi-prefix UPDATEs or one UPDATE per prefix — on
   both hosts. Plus content checks: ingress peer, the
   xprog chain verdict, the winning decision step, and the on-demand
   decision recomputation when a competing withdrawal promotes a
   shadowed candidate. *)

let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

let pfx = Bgp.Prefix.of_string

let pfx_contested = pfx "10.32.0.0/24" (* sinks 0 and 1 compete *)
let pfx_single = pfx "10.33.0.0/24" (* sink 1 alone *)
let pfx_gone = pfx "10.34.0.0/24" (* sink 2 announces then withdraws *)

(* The deterministic observed scenario: 4 sinks around an
   origin-validation DUT (same script as `xbgp-sim show --scenario star`). *)
let ov_star ?(manifest = Xprogs.Origin_validation.manifest) host =
  let roas = [ Rpki.Roa.v pfx_contested ~max_len:24 ~asn:65101 ] in
  let star =
    Scenario.Star.create ~host ~npeers:4 ~manifest
      ~xtras:[ ("roa_table", Xprogs.Util.encode_roa_table roas) ]
      ()
  in
  Scenario.Star.establish star;
  star

let announce star i path nlri =
  Scenario.Star.sink_announce star i
    ~attrs:
      Bgp.Attr.
        [
          v (Origin Igp);
          v (As_path [ Seq path ]);
          v (Next_hop (Scenario.Star.sink_address star i));
        ]
    nlri

let build ~host =
  let star = ov_star host in
  announce star 0 [ 65101 ] [ pfx_contested ];
  announce star 1 [ 65102; 64999 ] [ pfx_contested ];
  announce star 1 [ 65102 ] [ pfx_single ];
  announce star 2 [ 65103 ] [ pfx_gone ];
  Scenario.Star.settle star;
  Scenario.Star.sink_withdraw star 2 [ pfx_gone ];
  Scenario.Star.settle star;
  star

(* The import oracle's metamorphic pair: the same announcements and
   withdrawals sent as multi-prefix UPDATEs, or with every UPDATE split
   into one per prefix. [manifest] picks the import chain: origin
   validation reads the prefix, so each prefix gets its own dispatch; an
   empty chain takes the one-verdict-per-UPDATE path. *)
let build_framed ?manifest ~host ~split () =
  let star = ov_star ?manifest host in
  let each send nlri =
    if split then List.iter (fun p -> send [ p ]) nlri else send nlri
  in
  let announce i path = each (announce star i path) in
  announce 0 [ 65101 ] [ pfx_contested; pfx_single ];
  announce 1 [ 65102; 64999 ] [ pfx_contested; pfx_single; pfx_gone ];
  announce 2 [ 65103 ] [ pfx_gone; pfx_single ];
  Scenario.Star.settle star;
  each (Scenario.Star.sink_withdraw star 2) [ pfx_gone; pfx_single ];
  Scenario.Star.settle star;
  star

(* Everything the introspection surface would print, as one comparable
   value: per-prefix provenance (installed best routes AND the
   last-record fallback for the withdrawn prefix), in both renderings. *)
let observe star =
  let d = Scenario.Star.dut star in
  let per_prefix p =
    match Scenario.Daemon.provenance d p with
    | Some pr -> (Obs.Provenance.to_text pr, Obs.Provenance.to_json pr)
    | None -> ("<none>", "null")
  in
  ( List.map
      (fun (p, pr) ->
        (Bgp.Prefix.to_string p, Obs.Provenance.to_text pr,
         Obs.Provenance.to_json pr))
      (Scenario.Daemon.provenance_snapshot d),
    List.map per_prefix [ pfx_contested; pfx_single; pfx_gone ] )

let host_name = function `Frr -> "frr" | `Bird -> "bird"

let chains = [ ("ov", None); ("empty", Some Xbgp.Manifest.empty) ]

(* multi-prefix UPDATEs vs one UPDATE per prefix, over a per-prefix and
   a one-verdict import chain: both must render byte-identically *)
let test_knob_invariance host () =
  List.iter
    (fun (name, manifest) ->
      let label = Printf.sprintf "%s %s chain" (host_name host) name in
      let batched = build_framed ?manifest ~host ~split:false () in
      let split = build_framed ?manifest ~host ~split:true () in
      let updates s = Scenario.Daemon.updates_rx (Scenario.Star.dut s) in
      check_bool (label ^ ": the split leg sends more UPDATEs") true
        (updates split > updates batched);
      check_bool (label ^ ": provenance byte-identical") true
        (observe split = observe batched))
    chains

(* the structural equality the fuzz oracles would use *)
let test_structural_equality host () =
  let d1 = Scenario.Star.dut (build_framed ~host ~split:false ()) in
  let d2 = Scenario.Star.dut (build_framed ~host ~split:true ()) in
  List.iter
    (fun p ->
      match
        (Scenario.Daemon.provenance d1 p, Scenario.Daemon.provenance d2 p)
      with
      | Some a, Some b ->
        check_bool
          (Bgp.Prefix.to_string p ^ ": Provenance.equal across knobs")
          true (Obs.Provenance.equal a b)
      | _ -> Alcotest.fail (Bgp.Prefix.to_string p ^ ": provenance missing"))
    [ pfx_contested; pfx_single; pfx_gone ]

let test_content host () =
  let star = build ~host in
  let d = Scenario.Star.dut star in
  (* the contested prefix: sink 0 wins on AS-path length, the OV chain
     ran and mutated attributes (validation community) *)
  (match Scenario.Daemon.provenance d pfx_contested with
  | None -> Alcotest.fail "no provenance for the contested prefix"
  | Some pr ->
    check_string "ingress" "peer sink0 (AS 65101)" pr.Obs.Provenance.ingress;
    check_string "import verdict" "accepted" pr.Obs.Provenance.import;
    check_bool "status installed" true
      (pr.Obs.Provenance.status = Obs.Provenance.Installed);
    (match pr.Obs.Provenance.chain with
    | [ step ] ->
      check_string "chain program" "origin_validation"
        step.Obs.Provenance.program;
      check_bool "chain mutated attrs" true step.Obs.Provenance.attrs_mutated
    | chain ->
      Alcotest.failf "expected a 1-step chain, got %d" (List.length chain));
    match pr.Obs.Provenance.decision with
    | Some (Obs.Provenance.Best { runner_up; step_name; _ }) ->
      check_string "runner-up" "peer sink1 (AS 65102)" runner_up;
      check_string "deciding step" "as_path_len" step_name
    | _ -> Alcotest.fail "expected a Best decision with a runner-up");
  (* the uncontested prefix *)
  (match Scenario.Daemon.provenance d pfx_single with
  | Some
      {
        Obs.Provenance.decision = Some Obs.Provenance.Only_candidate;
        ingress;
        _;
      } ->
    check_string "single ingress" "peer sink1 (AS 65102)" ingress
  | _ -> Alcotest.fail "expected Only_candidate for the single prefix");
  (* the withdrawn prefix: the last-record fallback *)
  (match Scenario.Daemon.provenance d pfx_gone with
  | Some { Obs.Provenance.status = Obs.Provenance.Withdrawn; _ } -> ()
  | _ -> Alcotest.fail "expected a Withdrawn record for the gone prefix");
  (* the losing candidate is visible — and Shadowed by the winner *)
  match Scenario.Daemon.provenance_candidates d pfx_contested with
  | [ _; _ ] as cands ->
    check_bool "one candidate is shadowed" true
      (List.exists
         (fun (pr : Obs.Provenance.t) ->
           match pr.decision with
           | Some (Obs.Provenance.Shadowed { best; _ }) ->
             best = "peer sink0 (AS 65101)"
           | _ -> false)
         cands)
  | cands -> Alcotest.failf "expected 2 candidates, got %d" (List.length cands)

(* decision disposal is computed on demand: when the winner goes away,
   the shadowed candidate's record is promoted without a re-announce *)
let test_promotion_after_withdraw host () =
  let star = build ~host in
  let d = Scenario.Star.dut star in
  Scenario.Star.sink_withdraw star 0 [ pfx_contested ];
  Scenario.Star.settle star;
  match Scenario.Daemon.provenance d pfx_contested with
  | Some pr ->
    check_string "promoted ingress" "peer sink1 (AS 65102)"
      pr.Obs.Provenance.ingress;
    check_bool "promoted to only candidate" true
      (pr.Obs.Provenance.decision = Some Obs.Provenance.Only_candidate);
    check_bool "promoted record is installed" true
      (pr.Obs.Provenance.status = Obs.Provenance.Installed)
  | None -> Alcotest.fail "no provenance after promotion"

(* the two hosts tell the same story (modulo nothing: same names, same
   steps), which is the cross-host determinism the paper's equivalence
   claims rest on *)
let test_cross_host () =
  let ob host = observe (build ~host) in
  check_bool "frr and bird provenance byte-identical" true
    (ob `Frr = ob `Bird)

(* Routes whose import ran alike share one step list: [Vmm.last_trace]
   returns the list it built last while the point, generation and
   outcomes repeat, and builds a new one when they change. The filter
   accepts 11.0.i.0/24 for even i and rejects it for odd i. *)
let test_shared_steps () =
  let prog =
    Ebpf.Asm.(
      assemble
        [
          movi R1 Xbgp.Api.arg_prefix;
          call Xbgp.Api.h_get_arg;
          jeqi R0 0 "accept";
          ldxb R0 R0 6;
          andi R0 1;
          exit_;
          label "accept";
          movi R0 0;
          exit_;
        ])
  in
  let xp = Xbgp.Xprog.v ~name:"parity" [ ("filter", prog) ] in
  let vmm = Xbgp.Vmm.create ~host:"test" () in
  let point = Xbgp.Api.Bgp_inbound_filter in
  (match Xbgp.Vmm.register vmm xp with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Xbgp.Vmm.attach vmm ~program:"parity" ~bytecode:"filter" ~point ~order:0 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let args = Xbgp.Host_intf.Args.create () in
  let run i =
    let b = Bytes.create 5 in
    Bytes.set_int32_be b 0 (Int32.of_int (0x0B000000 + (i lsl 8)));
    Bytes.set_uint8 b 4 24;
    Xbgp.Host_intf.Args.set args Xbgp.Api.arg_prefix b;
    ignore
      (Xbgp.Vmm.run vmm point ~ops:Xbgp.Host_intf.null_ops ~args
         ~default:(fun () -> 0L));
    Option.get (Xbgp.Vmm.last_trace vmm point)
  in
  let outcome steps = (List.hd steps).Obs.Provenance.outcome in
  let a = run 0 in
  check_bool "same outcome, same list" true (a == run 2);
  let b = run 1 in
  check_bool "other outcome, other list" false (a == b);
  check_string "accepted" "accept" (outcome a);
  check_string "rejected" "reject" (outcome b);
  check_string "accepted again" "accept" (outcome (run 4))

let host_cases host =
  [
    Alcotest.test_case "knob invariance (batched/grouped)" `Quick
      (test_knob_invariance host);
    Alcotest.test_case "structural equality across knobs" `Quick
      (test_structural_equality host);
    Alcotest.test_case "record content" `Quick (test_content host);
    Alcotest.test_case "promotion after competing withdrawal" `Quick
      (test_promotion_after_withdraw host);
  ]

let () =
  Alcotest.run "provenance"
    [
      ("frr", host_cases `Frr);
      ("bird", host_cases `Bird);
      ("cross-host", [ Alcotest.test_case "byte-identical" `Quick test_cross_host ]);
      ("vmm", [ Alcotest.test_case "shared step lists" `Quick test_shared_steps ]);
    ]
