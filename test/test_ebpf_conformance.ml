(* Conformance vectors for the eBPF execution engines, in the style of
   the bpf_conformance project: each vector is a tiny program with a
   pinned expected outcome (a final r0 value or a fault), and every
   vector is asserted against both engines — interpreter and
   block-compiled. The table concentrates on the corners where
   implementations historically disagree: 32-bit zero-extension,
   unsigned div/mod by zero and by -1, shift-amount masking, byte
   swaps, slot-relative jump offsets and stack memory widths. *)

open Ebpf
module I = Insn

type expect = V of int64 | F

let i n = I.Imm (Int32.of_int n)
let a64 op d s = I.Alu (I.W64bit, op, d, s)
let a32 op d s = I.Alu (I.W32bit, op, d, s)
let mvi d n = a64 I.Mov d (i n)
let x = I.Exit

(* Helper 1 sums its five argument registers — enough to observe both
   argument marshalling and the result landing in r0. *)
let helpers =
  [
    ( 1,
      fun _ (a : int64 array) ->
        Array.fold_left Int64.add 0L (Array.sub a 0 5) );
  ]

let vectors : (string * I.t list * expect) list =
  [
    (* --- 64-bit ALU ------------------------------------------------ *)
    ( "alu64/add-wraps",
      [ I.Lddw (R0, Int64.max_int); a64 Add R0 (i 1); x ],
      V Int64.min_int );
    ("alu64/sub-wraps", [ mvi R0 0; a64 Sub R0 (i 1); x ], V (-1L));
    ( "alu64/mul-wraps",
      [ I.Lddw (R0, Int64.min_int); a64 Mul R0 (i 2); x ],
      V 0L );
    ("alu64/mul-neg-neg", [ mvi R0 (-1); a64 Mul R0 (i (-1)); x ], V 1L);
    ( "alu64/div-is-unsigned",
      [ mvi R0 (-1); a64 Div R0 (i 2); x ],
      V Int64.max_int );
    ("alu64/div-by-minus-one", [ mvi R0 5; a64 Div R0 (i (-1)); x ], V 0L);
    ("alu64/mod-by-minus-one", [ mvi R0 5; a64 Mod R0 (i (-1)); x ], V 5L);
    ( "alu64/min-div-minus-one",
      [ I.Lddw (R0, Int64.min_int); a64 Div R0 (i (-1)); x ],
      V 0L );
    ( "alu64/min-mod-minus-one",
      [ I.Lddw (R0, Int64.min_int); a64 Mod R0 (i (-1)); x ],
      V Int64.min_int );
    ("alu64/div-by-zero-imm", [ mvi R0 5; a64 Div R0 (i 0); x ], F);
    ( "alu64/div-by-zero-reg",
      [ mvi R0 5; mvi R1 0; a64 Div R0 (Reg R1); x ],
      F );
    ( "alu64/mod-by-zero-reg",
      [ mvi R0 5; mvi R1 0; a64 Mod R0 (Reg R1); x ],
      F );
    ( "alu64/lsh-64-is-masked",
      [ mvi R0 5; mvi R1 64; a64 Lsh R0 (Reg R1); x ],
      V 5L );
    ("alu64/lsh-63", [ mvi R0 1; a64 Lsh R0 (i 63); x ], V Int64.min_int);
    ( "alu64/rsh-is-logical",
      [ mvi R0 (-1); a64 Rsh R0 (i 1); x ],
      V Int64.max_int );
    ("alu64/arsh-keeps-sign", [ mvi R0 (-8); a64 Arsh R0 (i 1); x ], V (-4L));
    ( "alu64/arsh-65-is-masked",
      [ mvi R0 (-8); mvi R1 65; a64 Arsh R0 (Reg R1); x ],
      V (-4L) );
    ( "alu64/neg-min-is-min",
      [ I.Lddw (R0, Int64.min_int); a64 Neg R0 (i 0); x ],
      V Int64.min_int );
    ( "alu64/and-or-xor",
      [
        mvi R0 0b1100;
        a64 And R0 (i 0b1010);
        a64 Or R0 (i 1);
        a64 Xor R0 (i 0xFF);
        x;
      ],
      V 0xF6L );
    ("alu64/mov-reg", [ mvi R1 77; a64 Mov R0 (Reg R1); x ], V 77L);
    (* --- 32-bit ALU (always zero-extends the result) --------------- *)
    ("alu32/add-wraps", [ a32 Mov R0 (i (-1)); a32 Add R0 (i 1); x ], V 0L);
    ( "alu32/sub-zero-extends",
      [ mvi R0 0; a32 Sub R0 (i 1); x ],
      V 0xFFFFFFFFL );
    ( "alu32/mov-reg-truncates",
      [ I.Lddw (R1, 0xAABBCCDD11223344L); a32 Mov R0 (Reg R1); x ],
      V 0x11223344L );
    ("alu32/mov-imm-neg", [ a32 Mov R0 (i (-1)); x ], V 0xFFFFFFFFL);
    ( "alu32/mul-wraps",
      [ mvi R0 0x10000; a32 Mul R0 (i 0x10000); x ],
      V 0L );
    ( "alu32/div-is-unsigned",
      [ a32 Mov R0 (i (-1)); a32 Div R0 (i 2); x ],
      V 0x7FFFFFFFL );
    ("alu32/div-by-minus-one", [ mvi R0 5; a32 Div R0 (i (-1)); x ], V 0L);
    ("alu32/mod-by-minus-one", [ mvi R0 5; a32 Mod R0 (i (-1)); x ], V 5L);
    ("alu32/div-by-zero-imm", [ mvi R0 5; a32 Div R0 (i 0); x ], F);
    ( "alu32/mod-by-zero-reg",
      [ mvi R0 5; mvi R1 0; a32 Mod R0 (Reg R1); x ],
      F );
    ( "alu32/lsh-31-zero-extends",
      [ mvi R0 1; a32 Lsh R0 (i 31); x ],
      V 0x80000000L );
    ( "alu32/lsh-32-is-masked",
      [ mvi R0 7; mvi R1 32; a32 Lsh R0 (Reg R1); x ],
      V 7L );
    ( "alu32/rsh-on-low-word",
      [ mvi R0 (-8); a32 Rsh R0 (i 1); x ],
      V 0x7FFFFFFCL );
    ( "alu32/arsh-sign-extends-operand",
      [ mvi R0 (-8); a32 Arsh R0 (i 1); x ],
      V 0xFFFFFFFCL );
    ( "alu32/arsh-33-is-masked",
      [ mvi R0 (-8); mvi R1 33; a32 Arsh R0 (Reg R1); x ],
      V 0xFFFFFFFCL );
    ("alu32/neg", [ mvi R0 1; a32 Neg R0 (i 0); x ], V 0xFFFFFFFFL);
    ( "alu32/clears-upper-bits",
      [ I.Lddw (R0, 0xFFFFFFFF00000004L); a32 Add R0 (i 1); x ],
      V 5L );
    (* --- byte swaps ------------------------------------------------ *)
    ("endian/be16", [ mvi R0 0x1234; I.Endian (Be, R0, 16); x ], V 0x3412L);
    ( "endian/be16-uses-low-16",
      [ I.Lddw (R0, 0xABCD1234L); I.Endian (Be, R0, 16); x ],
      V 0x3412L );
    ( "endian/be32",
      [ I.Lddw (R0, 0x12345678L); I.Endian (Be, R0, 32); x ],
      V 0x78563412L );
    ( "endian/be64",
      [ I.Lddw (R0, 0x0102030405060708L); I.Endian (Be, R0, 64); x ],
      V 0x0807060504030201L );
    ( "endian/le16-truncates",
      [ I.Lddw (R0, 0xFFFF1234L); I.Endian (Le, R0, 16); x ],
      V 0x1234L );
    ( "endian/le32-truncates",
      [ I.Lddw (R0, 0xFFFFFFFF12345678L); I.Endian (Le, R0, 32); x ],
      V 0x12345678L );
    ( "endian/le64-is-identity",
      [ I.Lddw (R0, Int64.min_int); I.Endian (Le, R0, 64); x ],
      V Int64.min_int );
    (* --- jumps (offsets are in slots; Lddw occupies two) ------------ *)
    ("jump/ja-zero-is-nop", [ mvi R0 7; I.Ja 0; x ], V 7L);
    ("jump/ja-over-lddw", [ I.Ja 2; I.Lddw (R0, 99L); x ], V 0L);
    ( "jump/taken-offset-zero",
      [ mvi R0 3; I.Jcond (W64bit, Eq, R0, i 3, 0); x ],
      V 3L );
    ( "jump/backward-loop",
      [ mvi R0 0; a64 Add R0 (i 1); I.Jcond (W64bit, Ne, R0, i 5, -2); x ],
      V 5L );
    ( "jump/into-lddw-middle-faults",
      [ I.Jcond (W64bit, Eq, R0, i 0, 1); I.Lddw (R0, 1L); x ],
      F );
    ("jump/ja-out-of-range-faults", [ I.Ja 5; x ], F);
    ("jump/fall-off-end-faults", [ mvi R0 1 ], F);
    ( "jump/jmp32-compares-low-words",
      [
        I.Lddw (R1, 0xFFFFFFFF00000005L);
        mvi R0 1;
        I.Jcond (W32bit, Eq, R1, i 5, 1);
        mvi R0 0;
        x;
      ],
      V 1L );
    ( "jump/jmp64-sees-high-words",
      [
        I.Lddw (R1, 0xFFFFFFFF00000005L);
        mvi R0 1;
        I.Jcond (W64bit, Eq, R1, i 5, 1);
        mvi R0 0;
        x;
      ],
      V 0L );
    ( "jump/jset-tests-bits",
      [ mvi R0 12; I.Jcond (W64bit, Set, R0, i 0b0100, 1); mvi R0 0; x ],
      V 12L );
    ( "jump/signed-lt-on-min",
      [
        I.Lddw (R1, Int64.min_int);
        mvi R0 1;
        I.Jcond (W64bit, Slt, R1, i 0, 1);
        mvi R0 0;
        x;
      ],
      V 1L );
    ( "jump/unsigned-lt-on-min",
      [
        I.Lddw (R1, Int64.min_int);
        mvi R0 1;
        I.Jcond (W64bit, Lt, R1, i 0, 1);
        mvi R0 0;
        x;
      ],
      V 0L );
    (* --- stack memory ---------------------------------------------- *)
    ( "mem/stack-is-little-endian",
      [
        I.Lddw (R1, 0x0807060504030201L);
        I.Stx (W64, R10, -8, R1);
        I.Ldx (W8, R0, R10, -8);
        x;
      ],
      V 1L );
    ( "mem/stack-high-byte",
      [
        I.Lddw (R1, 0x0807060504030201L);
        I.Stx (W64, R10, -8, R1);
        I.Ldx (W8, R0, R10, -1);
        x;
      ],
      V 8L );
    ( "mem/st-imm-w32-stores-all-ones",
      [ I.St (W32, R10, -4, -1l); I.Ldx (W32, R0, R10, -4); x ],
      V 0xFFFFFFFFL );
    ( "mem/st-imm-w64-sign-extends",
      [ I.St (W64, R10, -8, -1l); I.Ldx (W64, R0, R10, -8); x ],
      V (-1L) );
    ( "mem/stxb-truncates",
      [ mvi R1 0x1FF; I.Stx (W8, R10, -1, R1); I.Ldx (W8, R0, R10, -1); x ],
      V 0xFFL );
    ( "mem/ldxh-zero-extends",
      [ I.St (W16, R10, -2, 0xFFEEl); I.Ldx (W16, R0, R10, -2); x ],
      V 0xFFEEL );
    ( "mem/ldxw-zero-extends",
      [
        I.St (W32, R10, -4, Int32.min_int); I.Ldx (W32, R0, R10, -4); x;
      ],
      V 0x80000000L );
    ("mem/read-past-stack-top-faults", [ I.Ldx (W32, R0, R10, 0); x ], F);
    ("mem/write-below-stack-faults", [ I.St (W8, R10, -513, 1l); x ], F);
    (* --- helper calls ---------------------------------------------- *)
    ( "call/args-reach-helper",
      [ mvi R1 2; mvi R2 3; I.Call 1; x ],
      V 5L );
    ( "call/all-five-args",
      [ mvi R1 1; mvi R2 2; mvi R3 3; mvi R4 4; mvi R5 5; I.Call 1; x ],
      V 15L );
    ("call/unknown-helper-faults", [ I.Call 999; x ], F);
    ( "call/result-lands-in-r0",
      [ I.Call 1; a64 Add R0 (i 1); x ],
      V 1L );
    (* --- entry state ----------------------------------------------- *)
    ("init/exit-returns-zero", [ x ], V 0L);
    ("init/registers-start-zeroed", [ a64 Mov R0 (Reg R9); x ], V 0L);
  ]

let run_one engine prog =
  let vm = Vm.create ~budget:10_000 ~engine ~helpers prog in
  match Vm.run vm with v -> Ok v | exception Vm.Error m -> Error m

let check_vector (name, prog, expect) =
  let check () =
    List.iter
      (fun engine ->
        let label = Printf.sprintf "%s [%s]" name (Vm.engine_name engine) in
        match (run_one engine prog, expect) with
        | Ok got, V want ->
          Alcotest.(check int64) label want got
        | Error _, F -> ()
        | Ok got, F ->
          Alcotest.failf "%s: expected a fault, returned %Ld" label got
        | Error m, V want ->
          Alcotest.failf "%s: expected %Ld, faulted: %s" label want m)
      Vm.all_engines
  in
  Alcotest.test_case name `Quick check

(* The encoder round trip must preserve every vector — the engines all
   consume decoded instructions, and real deployments ship wire form. *)
let test_wire_round_trip () =
  List.iter
    (fun (name, prog, _) ->
      Alcotest.(check (list string))
        name
        (List.map I.to_string prog)
        (List.map I.to_string (I.decode (I.encode prog))))
    vectors

(* --- map conformance ------------------------------------------------- *)

(* The map helpers live above the raw VM, in the VMM, so these vectors
   pin their semantics through a full register/attach/run round trip —
   still once per engine. Expected outcomes: a final r0 (MV), a runtime
   fault swallowed into the native default (MF: default returned, fault
   counted), or a clean verifier rejection at registration (MREJ). *)

module A = Asm

type mexpect = MV of int64 | MF | MREJ

let hash_map ?(kind = Map.Hash) ?(max_entries = 4) () =
  [ Xbgp.Xprog.map ~name:"m" ~kind ~max_entries ~key_size:4 ~value_size:8 () ]

(* store key [k] (u32 LE) at r10-4 and point r1/r2 at (map 0, key) *)
let key k =
  A.[ stw R10 (-4) k; movi R1 0; mov R2 R10; addi R2 (-4) ]

(* additionally store value [v] (u64 LE) at r10-16 and point r3 at it *)
let key_value k v =
  key k @ A.[ stdw R10 (-16) v; mov R3 R10; addi R3 (-16) ]

let upd = A.[ call Xbgp.Api.h_map_update ]
let look = A.[ call Xbgp.Api.h_map_lookup ]
let del = A.[ call Xbgp.Api.h_map_delete ]
let bad = A.[ label "bad"; movi R0 (-1); exit_ ]

let map_vectors : (string * Xbgp.Xprog.map_spec list * Insn.t list * mexpect) list
    =
  [
    ( "map/update-lookup-roundtrip",
      hash_map (),
      A.assemble
        (key_value 5 42 @ upd @ key 5 @ look
        @ A.[ jeqi R0 0 "bad"; ldxdw R0 R0 0; exit_ ]
        @ bad),
      MV 42L );
    ( "map/lookup-miss-is-null",
      hash_map (),
      A.assemble
        (key 5 @ look @ A.[ jnei R0 0 "bad"; movi R0 7; exit_ ] @ bad),
      MV 7L );
    ( "map/delete-then-miss",
      hash_map (),
      A.assemble
        (key_value 5 42 @ upd @ key 5 @ del
        @ A.[ jnei R0 0 "bad" ]
        (* a second delete finds nothing and reports -1 *)
        @ key 5 @ del
        @ A.[ jeqi R0 0 "bad" ]
        @ key 5 @ look
        @ A.[ jnei R0 0 "bad"; movi R0 3; exit_ ]
        @ bad),
      MV 3L );
    ( "map/full-hash-update-fails",
      hash_map ~max_entries:2 (),
      A.assemble
        (key_value 1 11 @ upd @ key_value 2 22 @ upd @ key_value 3 33 @ upd
        @ A.[ exit_ ]),
      MV (-1L) );
    ( "map/lru-evicts-least-recent",
      hash_map ~kind:Map.Lru ~max_entries:2 (),
      A.assemble
        (key_value 1 11 @ upd @ key_value 2 22 @ upd
        (* touch key 1 so key 2 is the eviction victim *)
        @ key 1 @ look
        @ key_value 3 33 @ upd
        @ key 2 @ look
        @ A.[ jnei R0 0 "bad" ]
        @ key 1 @ look
        @ A.[ jeqi R0 0 "bad"; ldxdw R0 R0 0; exit_ ]
        @ bad),
      MV 11L );
    ( "map/array-slot-always-exists",
      hash_map ~kind:Map.Per_peer_array (),
      A.assemble
        (key 2 @ look
        @ A.[ jeqi R0 0 "bad"; ldxdw R0 R0 0; addi R0 5; exit_ ]
        @ bad),
      MV 5L );
    ( "map/array-oob-index-rejected",
      hash_map ~kind:Map.Per_peer_array (),
      A.assemble
        (* update and lookup on slot 99 of a 4-slot array: the update
           reports -1 and the lookup reports null, neither faults *)
        (key_value 99 1 @ upd
        @ A.[ jeqi R0 0 "bad" ]
        @ key 99 @ look
        @ A.[ jnei R0 0 "bad"; movi R0 9; exit_ ]
        @ bad),
      MV 9L );
    ( "map/short-key-buffer-faults",
      hash_map (),
      (* key pointer at r10: reading key_size bytes crosses the stack
         top, so the helper faults and the chain falls back to native *)
      A.assemble A.[ movi R1 0; mov R2 R10; call Xbgp.Api.h_map_lookup; exit_ ],
      MF );
    ( "map/unresolvable-oob-index-faults",
      hash_map (),
      (* the index comes out of memory, so the verifier cannot prove it
         wrong statically; the runtime bounds check must fault instead *)
      A.assemble
        A.[
            stw R10 (-8) 9;
            ldxw R1 R10 (-8);
            stw R10 (-4) 0;
            mov R2 R10;
            addi R2 (-4);
            call Xbgp.Api.h_map_lookup;
            exit_;
          ],
      MF );
    ( "map/undeclared-index-rejected",
      hash_map (),
      A.assemble
        A.[
            movi R1 1;
            mov R2 R10;
            addi R2 (-4);
            call Xbgp.Api.h_map_lookup;
            exit_;
          ],
      MREJ );
    ( "map/no-maps-declared-rejected",
      [],
      A.assemble
        A.[
            movi R1 0;
            mov R2 R10;
            addi R2 (-4);
            call Xbgp.Api.h_map_lookup;
            exit_;
          ],
      MREJ );
  ]

let run_map_vector engine ~maps prog =
  let xp = Xbgp.Xprog.v ~name:"conformance" ~maps [ ("main", prog) ] in
  let vmm = Xbgp.Vmm.create ~budget:10_000 ~engine ~host:"conf" () in
  match Xbgp.Vmm.register vmm xp with
  | Error e -> Error e
  | Ok () -> (
    match
      Xbgp.Vmm.attach vmm ~program:"conformance" ~bytecode:"main"
        ~point:Xbgp.Api.Bgp_inbound_filter ~order:0
    with
    | Error e -> Error e
    | Ok () ->
      let v =
        Xbgp.Vmm.run vmm Xbgp.Api.Bgp_inbound_filter
          ~ops:Xbgp.Host_intf.null_ops
          ~args:
            (Xbgp.Host_intf.Args.of_list
               [ (Xbgp.Api.arg_prefix, Bytes.make 5 '\x00') ])
          ~default:(fun () -> 0L)
      in
      let st = Xbgp.Vmm.stats vmm in
      Ok (v, st.faults))

let check_map_vector (name, maps, prog, expect) =
  let check () =
    List.iter
      (fun engine ->
        let label = Printf.sprintf "%s [%s]" name (Vm.engine_name engine) in
        match (run_map_vector engine ~maps prog, expect) with
        | Ok (got, faults), MV want ->
          Alcotest.(check int64) label want got;
          Alcotest.(check int) (label ^ " fault count") 0 faults
        | Ok (got, faults), MF ->
          Alcotest.(check int64) (label ^ " native default") 0L got;
          Alcotest.(check bool) (label ^ " fault counted") true (faults > 0)
        | Error _, MREJ -> ()
        | Ok (got, _), MREJ ->
          Alcotest.failf "%s: expected a verifier rejection, ran to %Ld"
            label got
        | Error m, (MV _ | MF) ->
          Alcotest.failf "%s: rejected at registration: %s" label m)
      Vm.all_engines
  in
  Alcotest.test_case name `Quick check

let () =
  Alcotest.run "ebpf-conformance"
    [
      ("vectors", List.map check_vector vectors);
      ("map vectors", List.map check_map_vector map_vectors);
      ( "encoding",
        [ Alcotest.test_case "wire round trip" `Quick test_wire_round_trip ]
      );
    ]
