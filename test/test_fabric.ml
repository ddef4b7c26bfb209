(* Tests for the Fig. 5 data-center fabric scenario: all three
   configurations (`Plain / `Same_as / `Xbgp) through single and double
   link failures, with convergence, reachability and valley-free
   assertions, plus the regressions the chaos campaign surfaced (ghost
   routes after a ToR is isolated, wedged handshakes after a multi-link
   repair). A four-router ring built directly on {!Scenario.Topology}
   checks the builder outside the presets. *)

let check_bool = Alcotest.(check bool)

let tors = [ "T20"; "T21"; "T22"; "T23" ]

(* ASN -> Clos level (0 = spine, 1 = leaf, 2 = ToR), from the same
   descriptor Scenario.Fabric instantiates. Only meaningful for the
   distinct-ASN configurations; `Same_as reuses ASNs across routers. *)
let levels =
  let clos = Dataset.Clos.fig5 () in
  fun asn ->
    match
      List.find_opt (fun (r : Dataset.Clos.router) -> r.asn = asn)
        clos.routers
    with
    | Some r -> r.level
    | None -> Alcotest.failf "unknown ASN %d" asn

(* A path is valley-free when, read from the querying router towards
   the origin, it climbs the hierarchy (level numbers falling) before
   descending (rising) — once it has gone down it may never go up
   again. A "valley" shows up as a local maximum in the level
   sequence: spine -> leaf -> spine, or leaf -> ToR -> leaf. *)
let valley_free asns =
  let rec ok descended = function
    | a :: (b :: _ as rest) ->
      if b > a then ok true rest
      else if b < a && descended then false
      else ok descended rest
    | _ -> true
  in
  ok false (List.map levels asns)

let assert_valley_free f label =
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then
            match Scenario.Fabric.path f src dst with
            | None -> ()
            | Some p ->
              check_bool
                (Printf.sprintf "%s: %s->%s path valley-free" label src dst)
                true (valley_free p))
        tors)
    tors

let assert_full_mesh f label =
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then
            check_bool
              (Printf.sprintf "%s: %s reaches %s" label src dst)
              true
              (Scenario.Fabric.reaches f src dst))
        tors)
    tors

let build config =
  let f = Scenario.Fabric.build config in
  Scenario.Fabric.start f;
  Scenario.Fabric.settle f 30;
  f

(* --- convergence from cold start --- *)

let test_converges config label () =
  let f = build config in
  assert_full_mesh f label;
  if config <> `Same_as then assert_valley_free f label

(* --- single link failure --- *)

let test_single_failure config label () =
  let f = build config in
  Scenario.Fabric.fail_link f "L10" "S1";
  Scenario.Fabric.settle f 60;
  (* one leaf-spine link down leaves every ToR pair connected through
     the surviving spine in every configuration *)
  assert_full_mesh f (label ^ " after L10-S1 fail");
  if config <> `Same_as then
    assert_valley_free f (label ^ " after L10-S1 fail");
  Scenario.Fabric.repair_link f "L10" "S1";
  Scenario.Fabric.settle f 60;
  assert_full_mesh f (label ^ " after repair")

(* --- the paper's double failure (§3.3 / Fig. 5) --- *)

let test_double_failure_partition () =
  (* duplicate-ASN trick: loop prevention blocks the recovery path, the
     fabric partitions *)
  let f = build `Same_as in
  Scenario.Fabric.fail_link f "L10" "S1";
  Scenario.Fabric.fail_link f "L13" "S2";
  Scenario.Fabric.settle f 90;
  check_bool "same-AS fabric partitions" false
    (Scenario.Fabric.reaches f "L10" "L13")

let test_double_failure_xbgp_recovers () =
  (* distinct ASNs + valley_free extension: the valley through the
     other pod is taken deliberately and the fabric stays connected *)
  let f = build `Xbgp in
  Scenario.Fabric.fail_link f "L10" "S1";
  Scenario.Fabric.fail_link f "L13" "S2";
  Scenario.Fabric.settle f 90;
  check_bool "xbgp fabric stays connected" true
    (Scenario.Fabric.reaches f "L10" "L13");
  assert_full_mesh f "xbgp after L10-S1 + L13-S2"

(* --- ghost-route regression (chaos seed 2026 case 88) --- *)

let test_isolated_tor_leaves_no_ghosts () =
  (* Failing both of a ToR's uplinks isolates it. Before loop-detected
     routes were treated as implicit withdrawals, path hunting could
     lock the rest of the fabric onto a stale path towards the isolated
     ToR — a stable ghost that survived arbitrarily long settling. *)
  let f = build `Plain in
  Scenario.Fabric.fail_link f "T22" "L12";
  Scenario.Fabric.fail_link f "T22" "L13";
  Scenario.Fabric.settle f 120;
  List.iter
    (fun src ->
      if src <> "T22" then
        check_bool
          (Printf.sprintf "%s holds no route to isolated T22" src)
          false
          (Scenario.Fabric.reaches f src "T22"))
    [ "S1"; "S2"; "L10"; "L11"; "L12"; "L13"; "T20"; "T21"; "T23" ];
  (* the rest of the fabric is unaffected *)
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then
            check_bool
              (Printf.sprintf "%s still reaches %s" src dst)
              true
              (Scenario.Fabric.reaches f src dst))
        [ "T20"; "T21"; "T23" ])
    [ "T20"; "T21"; "T23" ]

(* --- multi-link repair regression (wedged handshakes) --- *)

let test_multi_link_repair_reestablishes () =
  (* Repairing two links back-to-back: the first repair restarts every
     dead session, sending OPENs for the second link into a pipe that
     is still down; the second repair then finds those sessions mid
     handshake and restarts nothing. Recovery relies on the FSM's
     connect retry. *)
  let f = build `Plain in
  Scenario.Fabric.fail_link f "T22" "L12";
  Scenario.Fabric.fail_link f "L10" "S1";
  Scenario.Fabric.settle f 30;
  Scenario.Fabric.repair_link f "T22" "L12";
  Scenario.Fabric.repair_link f "L10" "S1";
  (* one hold interval for the lost OPENs to expire and retry, then
     normal convergence *)
  Scenario.Fabric.settle f 60;
  assert_full_mesh f "after double repair"

(* A deployment none of the presets builds, written straight on the
   topology: the four-router ring of an FRR integration test (router i
   in AS 6500i at 192.168.42.i, one eBGP session per neighbour pair,
   each redistributing its own /32), on either host. *)
let ring host =
  let ids = [ 1; 2; 3; 4 ] in
  let name i = Printf.sprintf "r%d" i in
  let addr i = Bgp.Prefix.addr_of_quad (192, 168, 42, i) in
  let topo =
    Scenario.Topology.create
      (List.map
         (fun i ->
           Scenario.Topology.router ~host ~name:(name i) ~router_id:(addr i)
             ~local_as:(65000 + i) ())
         ids)
      (List.map (fun i -> Scenario.Topology.link (name i) (name ((i mod 4) + 1))) ids)
  in
  let daemon i = Scenario.Topology.daemon topo (name i) in
  check_bool "ring sessions establish" true (Scenario.Topology.establish topo);
  List.iter
    (fun i ->
      Scenario.Daemon.originate (daemon i)
        (Bgp.Prefix.v (addr i) 32)
        [
          Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
          Bgp.Attr.v (Bgp.Attr.As_path []);
          Bgp.Attr.v (Bgp.Attr.Next_hop (addr i));
        ])
    ids;
  let full () = List.for_all (fun i -> Scenario.Daemon.loc_count (daemon i) = 4) ids in
  check_bool "ring converges" true (Scenario.Topology.run_until topo full);
  Scenario.Topology.run_for topo 1_000_000;
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          check_bool
            (Printf.sprintf "%s holds %s's prefix" (name i) (name j))
            true
            (Scenario.Daemon.has_route (daemon i) (Bgp.Prefix.v (addr j) 32)))
        ids)
    ids;
  List.map (fun i -> Scenario.Daemon.loc_snapshot (daemon i)) ids

let test_ring_hosts_agree () =
  let same_route (p, a) (p', a') =
    Bgp.Prefix.equal p p' && List.equal Bgp.Attr.equal a a'
  in
  List.iteri
    (fun i (frr, bird) ->
      check_bool
        (Printf.sprintf "r%d: FRR-like and BIRD-like Loc-RIBs equal" (i + 1))
        true
        (List.equal same_route frr bird))
    (List.combine (ring `Frr) (ring `Bird))

let test_topology_rejects_bad_wiring () =
  let rejects what nodes links =
    check_bool what true
      (match Scenario.Topology.create nodes links with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "link to an unknown node"
    [ Scenario.Topology.router ~name:"a" ~router_id:1 ~local_as:65001 () ]
    [ Scenario.Topology.link "a" "b" ];
  rejects "sink without its one link"
    [ Scenario.Topology.sink ~name:"s" ~asn:65002 ~addr:2 () ]
    []

let () =
  Alcotest.run "fabric"
    [
      ( "converges",
        [
          Alcotest.test_case "plain" `Quick (test_converges `Plain "plain");
          Alcotest.test_case "same-as" `Quick
            (test_converges `Same_as "same-as");
          Alcotest.test_case "xbgp" `Quick (test_converges `Xbgp "xbgp");
        ] );
      ( "single-failure",
        [
          Alcotest.test_case "plain" `Quick
            (test_single_failure `Plain "plain");
          Alcotest.test_case "same-as" `Quick
            (test_single_failure `Same_as "same-as");
          Alcotest.test_case "xbgp" `Quick
            (test_single_failure `Xbgp "xbgp");
        ] );
      ( "double-failure",
        [
          Alcotest.test_case "same-as partitions" `Quick
            test_double_failure_partition;
          Alcotest.test_case "xbgp recovers" `Quick
            test_double_failure_xbgp_recovers;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "isolated ToR leaves no ghosts" `Quick
            test_isolated_tor_leaves_no_ghosts;
          Alcotest.test_case "multi-link repair re-establishes" `Quick
            test_multi_link_repair_reestablishes;
        ] );
      ( "topology",
        [
          Alcotest.test_case "four-router ring, hosts agree" `Quick
            test_ring_hosts_agree;
          Alcotest.test_case "bad wiring rejected" `Quick
            test_topology_rejects_bad_wiring;
        ] );
    ]
