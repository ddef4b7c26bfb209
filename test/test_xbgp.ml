(* Tests for libxbgp: the API constants, manifests, and above all the
   Virtual Machine Manager semantics of §2.1 — ordered chains, next(),
   fault fallback, isolation, ephemeral vs persistent memory, maps. *)

let check = Alcotest.check
let check_bool = Alcotest.check Alcotest.bool
let check_i64 = Alcotest.check Alcotest.int64

open Ebpf.Asm

let r0 = Ebpf.Insn.R0
let r1 = Ebpf.Insn.R1
let r2 = Ebpf.Insn.R2
let r3 = Ebpf.Insn.R3

(* a one-bytecode program returning a constant *)
let const_prog name v =
  Xbgp.Xprog.v ~name [ ("main", assemble [ movi r0 v; exit_ ]) ]

let next_prog name =
  Xbgp.Xprog.v ~name
    [ ("main", assemble [ call Xbgp.Api.h_next; movi r0 0; exit_ ]) ]

let fresh_vmm () = Xbgp.Vmm.create ~host:"test" ()

let ok = function
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* --- API naming --- *)

let test_api_names () =
  List.iter
    (fun p ->
      check_bool "point name roundtrip" true
        (Xbgp.Api.point_of_name (Xbgp.Api.point_name p) = Some p))
    Xbgp.Api.all_points;
  List.iter
    (fun h ->
      check_bool "helper name roundtrip" true
        (Xbgp.Api.helper_of_name (Xbgp.Api.helper_name h) = Some h))
    Xbgp.Api.all_helpers;
  check_bool "unknown point" true (Xbgp.Api.point_of_name "NOPE" = None)

(* --- manifest --- *)

let test_manifest_roundtrip () =
  let m =
    Xbgp.Manifest.v
      ~programs:[ "geoloc"; "igp_filter" ]
      ~attachments:
        [
          {
            program = "geoloc";
            bytecode = "receive";
            point = Xbgp.Api.Bgp_receive_message;
            order = 0;
          };
          {
            program = "igp_filter";
            bytecode = "export_igp";
            point = Xbgp.Api.Bgp_outbound_filter;
            order = 5;
          };
        ]
  in
  match Xbgp.Manifest.parse (Xbgp.Manifest.to_string m) with
  | Ok m' -> check_bool "roundtrip" true (m = m')
  | Error e -> Alcotest.fail e

let test_manifest_parse_errors () =
  let bad s =
    match Xbgp.Manifest.parse s with Error _ -> true | Ok _ -> false
  in
  check_bool "bad point" true (bad "attach p b NOT_A_POINT 0");
  check_bool "bad order" true (bad "attach p b BGP_INIT x");
  check_bool "unknown directive" true (bad "frobnicate yes");
  check_bool "plain map ok" false (bad "map p m hash 4 4 16");
  check_bool "engine directive is gone" true
    (match Xbgp.Manifest.parse "engine p block" with
    | Error e -> String.ends_with ~suffix:"unknown directive \"engine\"" e
    | Ok _ -> false);
  check_bool "trailing map mode token" true
    (match Xbgp.Manifest.parse "map p m hash 4 4 16 shared" with
    | Error e -> String.ends_with ~suffix:"bad map mode \"shared\"" e
    | Ok _ -> false);
  check_bool "comments and blanks ok" false
    (bad "# hello\n\nprogram p # trailing\n")

let test_manifest_load_errors () =
  let vmm = fresh_vmm () in
  let m = Xbgp.Manifest.v ~programs:[ "missing" ] ~attachments:[] in
  check_bool "unknown program" true
    (match Xbgp.Manifest.load vmm ~registry:(fun _ -> None) m with
    | Error _ -> true
    | Ok () -> false)

let test_xprog_validation () =
  check_bool "empty bytecode list" true
    (match Xbgp.Xprog.v ~name:"x" [] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "bad map sizes" true
    (match
       Xbgp.Xprog.v ~name:"x"
         ~maps:[ Xbgp.Xprog.map ~key_size:0 ~value_size:4 () ]
         [ ("m", assemble [ movi r0 0; exit_ ]) ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "negative scratch" true
    (match
       Xbgp.Xprog.v ~name:"x" ~scratch_size:(-1)
         [ ("m", assemble [ movi r0 0; exit_ ]) ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- registration and attachment --- *)

let test_register_duplicate () =
  let vmm = fresh_vmm () in
  ok (Xbgp.Vmm.register vmm (const_prog "p" 1));
  check_bool "duplicate rejected" true
    (match Xbgp.Vmm.register vmm (const_prog "p" 2) with
    | Error _ -> true
    | Ok () -> false)

let test_register_verifies () =
  let vmm = fresh_vmm () in
  let bad =
    Xbgp.Xprog.v ~name:"bad" [ ("main", [ Ebpf.Insn.Ja 5; Ebpf.Insn.Exit ]) ]
  in
  check_bool "verifier runs at registration" true
    (match Xbgp.Vmm.register vmm bad with Error _ -> true | Ok () -> false);
  (* whitelist enforcement *)
  let sneaky =
    Xbgp.Xprog.v ~name:"sneaky" ~allowed_helpers:[ Xbgp.Api.h_next ]
      [ ("main", assemble [ call Xbgp.Api.h_rib_add; exit_ ]) ]
  in
  check_bool "whitelist enforced" true
    (match Xbgp.Vmm.register vmm sneaky with
    | Error _ -> true
    | Ok () -> false);
  (* map access: a map helper needs a declared map, and an index the
     path walk resolves must be in range, read as the helpers read it
     (low 32 bits); an unresolved index is left to the runtime check *)
  let registers ?(maps = 1) name items =
    let xp =
      Xbgp.Xprog.v ~name
        ~maps:
          (List.init maps (fun _ ->
               Xbgp.Xprog.map ~key_size:4 ~value_size:4 ()))
        [ ("main", assemble items) ]
    in
    Result.is_ok (Xbgp.Vmm.register vmm xp)
  in
  let lookup = [ call Xbgp.Api.h_map_lookup; movi r0 0; exit_ ] in
  check_bool "map helper without declared maps" false
    (registers ~maps:0 "nomaps" (movi r1 0 :: lookup));
  check_bool "in-range index" true (registers "inrange" (movi r1 0 :: lookup));
  check_bool "out-of-range index" false
    (registers "direct" (movi r1 1 :: lookup));
  check_bool "out-of-range index reaching a join" false
    (registers "joined"
       ([ movi r1 1; jeqi r0 0 "join"; movi r0 1; label "join" ] @ lookup));
  check_bool "disagreeing paths: left to the runtime check" true
    (registers "either"
       ([ movi r1 0; jeqi r0 0 "join"; movi r1 1; label "join" ] @ lookup));
  check_bool "index read as its low 32 bits" true
    (registers "wide" (lddw r1 0x1_0000_0000L :: lookup))

let test_attach_errors () =
  let vmm = fresh_vmm () in
  ok (Xbgp.Vmm.register vmm (const_prog "p" 1));
  check_bool "unknown program" true
    (match
       Xbgp.Vmm.attach vmm ~program:"q" ~bytecode:"main"
         ~point:Xbgp.Api.Bgp_decision ~order:0
     with
    | Error _ -> true
    | Ok () -> false);
  check_bool "unknown bytecode" true
    (match
       Xbgp.Vmm.attach vmm ~program:"p" ~bytecode:"nope"
         ~point:Xbgp.Api.Bgp_decision ~order:0
     with
    | Error _ -> true
    | Ok () -> false)

(* --- run semantics --- *)

let run_point ?(ops = Xbgp.Host_intf.null_ops) ?(args = []) vmm point default
    =
  Xbgp.Vmm.run vmm point ~ops ~args:(Xbgp.Host_intf.Args.of_list args) ~default

let test_no_attachment_runs_default () =
  let vmm = fresh_vmm () in
  check_i64 "default" 7L
    (run_point vmm Xbgp.Api.Bgp_inbound_filter (fun () -> 7L))

let test_chain_order_and_next () =
  let vmm = fresh_vmm () in
  ok (Xbgp.Vmm.register vmm (next_prog "first"));
  ok (Xbgp.Vmm.register vmm (const_prog "second" 22));
  (* attach out of order; manifest order decides *)
  ok
    (Xbgp.Vmm.attach vmm ~program:"second" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_inbound_filter ~order:10);
  ok
    (Xbgp.Vmm.attach vmm ~program:"first" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_inbound_filter ~order:1);
  check_i64 "first defers, second answers" 22L
    (run_point vmm Xbgp.Api.Bgp_inbound_filter (fun () -> 99L));
  check Alcotest.int "one next() recorded" 1 (Xbgp.Vmm.stats vmm).next_calls

let test_all_next_falls_to_native () =
  let vmm = fresh_vmm () in
  ok (Xbgp.Vmm.register vmm (next_prog "a"));
  ok (Xbgp.Vmm.register vmm (next_prog "b"));
  ok
    (Xbgp.Vmm.attach vmm ~program:"a" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_outbound_filter ~order:0);
  ok
    (Xbgp.Vmm.attach vmm ~program:"b" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_outbound_filter ~order:1);
  check_i64 "native default" 99L
    (run_point vmm Xbgp.Api.Bgp_outbound_filter (fun () -> 99L));
  check Alcotest.int "fallback recorded" 1
    (Xbgp.Vmm.stats vmm).native_fallbacks

let test_fault_notifies_and_falls_back () =
  let vmm = fresh_vmm () in
  let crash =
    Xbgp.Xprog.v ~name:"crash"
      [
        ( "main",
          assemble [ lddw r1 0xdeadL; ldxw r0 r1 0; exit_ ] );
      ]
  in
  ok (Xbgp.Vmm.register vmm crash);
  ok
    (Xbgp.Vmm.attach vmm ~program:"crash" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_inbound_filter ~order:0);
  let logged = ref [] in
  let ops =
    { Xbgp.Host_intf.null_ops with log = (fun m -> logged := m :: !logged) }
  in
  check_i64 "fell back" 5L
    (run_point ~ops vmm Xbgp.Api.Bgp_inbound_filter (fun () -> 5L));
  check Alcotest.int "fault counted" 1 (Xbgp.Vmm.stats vmm).faults;
  check_bool "host notified" true (!logged <> [])

let test_budget_fault_falls_back () =
  let vmm = Xbgp.Vmm.create ~host:"test" ~budget:1000 () in
  let spin =
    Xbgp.Xprog.v ~name:"spin"
      (* conditional that always loops at runtime: the verifier's
         reachability pass must see a path to [exit_] *)
      [ ("main", assemble [ movi r1 0; label "x"; jeqi r1 0 "x"; exit_ ]) ]
  in
  ok (Xbgp.Vmm.register vmm spin);
  ok
    (Xbgp.Vmm.attach vmm ~program:"spin" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_decision ~order:0);
  check_i64 "runaway bytecode stopped" 3L
    (run_point vmm Xbgp.Api.Bgp_decision (fun () -> 3L));
  (* and the budget is refilled for the next run *)
  check_i64 "stopped again (budget reset)" 3L
    (run_point vmm Xbgp.Api.Bgp_decision (fun () -> 3L));
  check Alcotest.int "two faults" 2 (Xbgp.Vmm.stats vmm).faults

(* --- memory model --- *)

let test_ephemeral_heap_reset () =
  (* memalloc the whole heap every run: only possible if the heap is
     reclaimed between runs *)
  let vmm = Xbgp.Vmm.create ~host:"test" ~heap_size:4096 () in
  let alloc =
    Xbgp.Xprog.v ~name:"alloc"
      [
        ( "main",
          assemble
            [
              movi r1 4000;
              call Xbgp.Api.h_memalloc;
              jnei r0 0 "good";
              movi r0 1;
              exit_;
              label "good";
              movi r0 0;
              exit_;
            ] );
      ]
  in
  ok (Xbgp.Vmm.register vmm alloc);
  ok
    (Xbgp.Vmm.attach vmm ~program:"alloc" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_decision ~order:0);
  for i = 1 to 10 do
    check_i64
      (Printf.sprintf "run %d allocation succeeds" i)
      0L
      (run_point vmm Xbgp.Api.Bgp_decision (fun () -> -1L))
  done

let test_scratch_persists () =
  (* a counter in scratch memory survives across runs *)
  let vmm = fresh_vmm () in
  let counter =
    Xbgp.Xprog.v ~name:"counter" ~scratch_size:64
      [
        ( "main",
          assemble
            [
              lddw r1 Xbgp.Api.scratch_base;
              ldxdw r0 r1 0;
              addi r0 1;
              stxdw r1 0 r0;
              exit_;
            ] );
      ]
  in
  ok (Xbgp.Vmm.register vmm counter);
  ok
    (Xbgp.Vmm.attach vmm ~program:"counter" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_decision ~order:0);
  for i = 1 to 5 do
    check_i64 "incrementing" (Int64.of_int i)
      (run_point vmm Xbgp.Api.Bgp_decision (fun () -> -1L))
  done

let test_isolation_no_foreign_scratch () =
  (* program B cannot reach A's scratch: the address is simply unmapped
     in B's VM, so the access faults and falls back to native *)
  let vmm = fresh_vmm () in
  let a =
    Xbgp.Xprog.v ~name:"a" ~scratch_size:64
      [
        ( "main",
          assemble
            [ lddw r1 Xbgp.Api.scratch_base; stdw r1 0 42; movi r0 1; exit_ ]
        );
      ]
  in
  let b =
    (* no scratch of its own; tries to read the scratch address *)
    Xbgp.Xprog.v ~name:"b"
      [
        ( "main",
          assemble [ lddw r1 Xbgp.Api.scratch_base; ldxdw r0 r1 0; exit_ ] );
      ]
  in
  ok (Xbgp.Vmm.register vmm a);
  ok (Xbgp.Vmm.register vmm b);
  ok
    (Xbgp.Vmm.attach vmm ~program:"a" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_decision ~order:0);
  ok
    (Xbgp.Vmm.attach vmm ~program:"b" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_receive_message ~order:0);
  check_i64 "a writes its scratch" 1L
    (run_point vmm Xbgp.Api.Bgp_decision (fun () -> -1L));
  check_i64 "b faults and falls back" (-7L)
    (run_point vmm Xbgp.Api.Bgp_receive_message (fun () -> -7L));
  check Alcotest.int "isolation fault recorded" 1 (Xbgp.Vmm.stats vmm).faults

(* --- helper plumbing --- *)

let test_get_arg_and_len () =
  let vmm = fresh_vmm () in
  let prog =
    (* return arg 3's second byte, or arg_len(9) when absent *)
    Xbgp.Xprog.v ~name:"args"
      [
        ( "main",
          assemble
            [
              movi r1 3;
              call Xbgp.Api.h_get_arg;
              jeqi r0 0 "absent";
              ldxb r0 r0 5;
              (* blob header 4 bytes + offset 1 *)
              exit_;
              label "absent";
              movi r1 9;
              call Xbgp.Api.h_arg_len;
              exit_;
            ] );
      ]
  in
  ok (Xbgp.Vmm.register vmm prog);
  ok
    (Xbgp.Vmm.attach vmm ~program:"args" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_decision ~order:0);
  check_i64 "reads arg content" 0x22L
    (run_point vmm Xbgp.Api.Bgp_decision
       ~args:[ (3, Bytes.of_string "\x11\x22\x33") ]
       (fun () -> -1L));
  check_i64 "arg_len of missing arg" (-1L)
    (run_point vmm Xbgp.Api.Bgp_decision ~args:[] (fun () -> -1L))

let test_peer_info_layout () =
  let vmm = fresh_vmm () in
  let prog =
    Xbgp.Xprog.v ~name:"pi"
      [
        ( "main",
          assemble
            [
              call Xbgp.Api.h_get_peer_info;
              jeqi r0 0 "none";
              mov r2 r0;
              ldxw r0 r2 Xbgp.Api.pi_peer_as;
              ldxw r1 r2 Xbgp.Api.pi_cluster_id;
              add r0 r1;
              ldxw r1 r2 Xbgp.Api.pi_rr_client;
              add r0 r1;
              exit_;
              label "none";
              movi r0 (-1);
              exit_;
            ] );
      ]
  in
  ok (Xbgp.Vmm.register vmm prog);
  ok
    (Xbgp.Vmm.attach vmm ~program:"pi" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_decision ~order:0);
  let ops =
    {
      Xbgp.Host_intf.null_ops with
      peer_info =
        (fun () ->
          Some
            {
              Xbgp.Host_intf.peer_type = Xbgp.Api.ibgp_session;
              peer_as = 65000;
              peer_router_id = 9;
              peer_addr = 8;
              local_as = 65000;
              local_router_id = 7;
              cluster_id = 1000;
              rr_client = true;
            });
    }
  in
  check_i64 "struct fields at documented offsets" 66001L
    (run_point ~ops vmm Xbgp.Api.Bgp_decision (fun () -> -1L))

let test_maps_across_runs () =
  let vmm = fresh_vmm () in
  let prog =
    (* run 1 (arg 1 = 0): store 99 under key 5; run 2: look it up *)
    Xbgp.Xprog.v ~name:"maps"
      ~maps:[ Xbgp.Xprog.map ~key_size:4 ~value_size:4 () ]
      [
        ( "main",
          assemble
            [
              stw Ebpf.Insn.R10 (-4) 5;
              movi r1 1;
              call Xbgp.Api.h_arg_len;
              jnei r0 (-1) "lookup";
              (* no arg: write *)
              stw Ebpf.Insn.R10 (-8) 99;
              movi r1 0;
              mov r2 Ebpf.Insn.R10;
              addi r2 (-4);
              mov r3 Ebpf.Insn.R10;
              addi r3 (-8);
              call Xbgp.Api.h_map_update;
              movi r0 0;
              exit_;
              label "lookup";
              movi r1 0;
              mov r2 Ebpf.Insn.R10;
              addi r2 (-4);
              call Xbgp.Api.h_map_lookup;
              jeqi r0 0 "missing";
              ldxw r0 r0 0;
              exit_;
              label "missing";
              movi r0 (-2);
              exit_;
            ] );
      ]
  in
  ok (Xbgp.Vmm.register vmm prog);
  ok
    (Xbgp.Vmm.attach vmm ~program:"maps" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_decision ~order:0);
  check_i64 "write run" 0L
    (run_point vmm Xbgp.Api.Bgp_decision ~args:[] (fun () -> -1L));
  check
    Alcotest.(option int)
    "map size" (Some 1)
    (Xbgp.Vmm.map_size vmm ~program:"maps" 0);
  check_i64 "read run sees the value" 99L
    (run_point vmm Xbgp.Api.Bgp_decision
       ~args:[ (1, Bytes.empty) ]
       (fun () -> -1L))

let test_run_init () =
  let vmm = fresh_vmm () in
  let init_prog =
    Xbgp.Xprog.v ~name:"init" ~scratch_size:8
      [
        ( "setup",
          assemble
            [ lddw r1 Xbgp.Api.scratch_base; stdw r1 0 77; movi r0 0; exit_ ]
        );
      ]
  in
  ok (Xbgp.Vmm.register vmm init_prog);
  ok
    (Xbgp.Vmm.attach vmm ~program:"init" ~bytecode:"setup"
       ~point:Xbgp.Api.Bgp_init ~order:0);
  Xbgp.Vmm.run_init vmm ~ops:Xbgp.Host_intf.null_ops;
  match Xbgp.Vmm.scratch vmm ~program:"init" with
  | Some scratch ->
    check_i64 "init ran" 77L (Bytes.get_int64_le scratch 0)
  | None -> Alcotest.fail "no scratch"


let test_detach_and_listing () =
  let vmm = fresh_vmm () in
  ok (Xbgp.Vmm.register vmm (const_prog "p" 1));
  ok (Xbgp.Vmm.register vmm (const_prog "q" 2));
  ok
    (Xbgp.Vmm.attach vmm ~program:"p" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_decision ~order:5);
  ok
    (Xbgp.Vmm.attach vmm ~program:"q" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_decision ~order:1);
  check_bool "listing ordered by order field" true
    (Xbgp.Vmm.attachments vmm Xbgp.Api.Bgp_decision
    = [ ("q", "main", 1); ("p", "main", 5) ]);
  (* q answers first *)
  check_i64 "q runs first" 2L
    (run_point vmm Xbgp.Api.Bgp_decision (fun () -> 0L));
  Xbgp.Vmm.detach vmm ~program:"q" ~point:Xbgp.Api.Bgp_decision;
  check_i64 "p after detach" 1L
    (run_point vmm Xbgp.Api.Bgp_decision (fun () -> 0L));
  Xbgp.Vmm.detach vmm ~program:"p" ~point:Xbgp.Api.Bgp_decision;
  check_bool "empty after detach" false
    (Xbgp.Vmm.has_attachment vmm Xbgp.Api.Bgp_decision);
  check_bool "programs still registered" true
    (List.sort compare (Xbgp.Vmm.registered vmm) = [ "p"; "q" ])

(* --- fault location and rekey on a block-engine chain --- *)

let test_chain_fault_location () =
  (* the second bytecode of a two-bytecode chain faults: dispatch falls
     back to the default and the fault record locates the faulting
     block's leader *)
  let vmm = Xbgp.Vmm.create ~host:"test" ~engine:Ebpf.Vm.Block () in
  let crash =
    Xbgp.Xprog.v ~name:"crash"
      [ ("main", assemble [ lddw r1 0xdeadL; ldxw r0 r1 0; exit_ ]) ]
  in
  ok (Xbgp.Vmm.register vmm (next_prog "front"));
  ok (Xbgp.Vmm.register vmm crash);
  ok
    (Xbgp.Vmm.attach vmm ~program:"front" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_inbound_filter ~order:0);
  ok
    (Xbgp.Vmm.attach vmm ~program:"crash" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_inbound_filter ~order:1);
  check_i64 "fault falls back to the default" 5L
    (run_point vmm Xbgp.Api.Bgp_inbound_filter (fun () -> 5L));
  check Alcotest.int "fault counted" 1 (Xbgp.Vmm.stats vmm).faults;
  match Xbgp.Vmm.last_fault_record vmm with
  | None -> Alcotest.fail "no fault record"
  | Some f ->
    check Alcotest.string "faulting program" "crash/main"
      (f.Xbgp.Vmm.fault_program ^ "/" ^ f.Xbgp.Vmm.fault_bytecode);
    check_bool "detail names engine, leader slot and insn" true
      (String.ends_with ~suffix:"[block, slot 0: lddw r1, 0xdead]"
         (Xbgp.Vmm.fault_detail f))

let test_rekey_swaps_chain_code () =
  (* replace_program swaps the code under a live attachment; the next
     dispatch runs the new code with preserved scratch and no dropped
     dispatch *)
  let vmm = Xbgp.Vmm.create ~host:"test" ~engine:Ebpf.Vm.Block () in
  let counter ~bonus =
    Xbgp.Xprog.v ~name:"ctr" ~scratch_size:8
      [
        ( "main",
          assemble
            [
              lddw r1 Xbgp.Api.scratch_base;
              ldxdw r0 r1 0;
              addi r0 1;
              stxdw r1 0 r0;
              addi r0 bonus;
              exit_;
            ] );
      ]
  in
  ok (Xbgp.Vmm.register vmm (counter ~bonus:0));
  ok
    (Xbgp.Vmm.attach vmm ~program:"ctr" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_decision ~order:0);
  check_i64 "v1 run 1" 1L
    (run_point vmm Xbgp.Api.Bgp_decision (fun () -> -1L));
  check_i64 "v1 run 2" 2L
    (run_point vmm Xbgp.Api.Bgp_decision (fun () -> -1L));
  ok (Xbgp.Vmm.replace_program vmm (counter ~bonus:100));
  (* counter reads 2, becomes 3: new code ran AND scratch survived *)
  check_i64 "v2 sees v1's scratch" 103L
    (run_point vmm Xbgp.Api.Bgp_decision (fun () -> -1L));
  check Alcotest.int "no dispatch dropped to native" 0
    (Xbgp.Vmm.stats vmm).native_fallbacks;
  check Alcotest.int "no faults" 0 (Xbgp.Vmm.stats vmm).faults;
  (* error paths: unregistered name; attached bytecode missing *)
  check_bool "unregistered program rejected" true
    (match Xbgp.Vmm.replace_program vmm (const_prog "ghost" 1) with
    | Error _ -> true
    | Ok () -> false);
  let renamed =
    Xbgp.Xprog.v ~name:"ctr" [ ("other", assemble [ movi r0 0; exit_ ]) ]
  in
  check_bool "missing attached bytecode rejected" true
    (match Xbgp.Vmm.replace_program vmm renamed with
    | Error _ -> true
    | Ok () -> false);
  (* and the rejected swaps left the live chain untouched *)
  check_i64 "chain still live after rejected swaps" 104L
    (run_point vmm Xbgp.Api.Bgp_decision (fun () -> -1L))

let () =
  Alcotest.run "xbgp"
    [
      ("api", [ Alcotest.test_case "names" `Quick test_api_names ]);
      ( "xprog",
        [ Alcotest.test_case "validation" `Quick test_xprog_validation ] );
      ( "manifest",
        [
          Alcotest.test_case "roundtrip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_manifest_parse_errors;
          Alcotest.test_case "load errors" `Quick test_manifest_load_errors;
        ] );
      ( "vmm",
        [
          Alcotest.test_case "duplicate registration" `Quick
            test_register_duplicate;
          Alcotest.test_case "registration verifies" `Quick
            test_register_verifies;
          Alcotest.test_case "attach errors" `Quick test_attach_errors;
          Alcotest.test_case "no attachment -> default" `Quick
            test_no_attachment_runs_default;
          Alcotest.test_case "chain order and next()" `Quick
            test_chain_order_and_next;
          Alcotest.test_case "all next -> native" `Quick
            test_all_next_falls_to_native;
          Alcotest.test_case "fault -> notify + fallback" `Quick
            test_fault_notifies_and_falls_back;
          Alcotest.test_case "budget fault + refill" `Quick
            test_budget_fault_falls_back;
          Alcotest.test_case "ephemeral heap reset" `Quick
            test_ephemeral_heap_reset;
          Alcotest.test_case "scratch persists" `Quick test_scratch_persists;
          Alcotest.test_case "isolation between programs" `Quick
            test_isolation_no_foreign_scratch;
          Alcotest.test_case "get_arg / arg_len" `Quick test_get_arg_and_len;
          Alcotest.test_case "peer_info layout" `Quick test_peer_info_layout;
          Alcotest.test_case "maps persist across runs" `Quick
            test_maps_across_runs;
          Alcotest.test_case "run_init" `Quick test_run_init;
          Alcotest.test_case "detach and listing" `Quick
            test_detach_and_listing;
          Alcotest.test_case "chain fault location" `Quick
            test_chain_fault_location;
          Alcotest.test_case "rekey swaps chain code" `Quick
            test_rekey_swaps_chain_code;
        ] );
    ]
