(* Unit and property tests for the eBPF substrate: instruction codec,
   assembler, verifier, memory and interpreter semantics. *)

open Ebpf

let check = Alcotest.check
let check_i64 = Alcotest.check Alcotest.int64
let check_bool = Alcotest.check Alcotest.bool

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

(* run a program fragment and return r0 *)
let eval ?(helpers = []) items =
  let vm = Vm.create ~helpers (Asm.assemble items) in
  Vm.run vm

let r0 = Insn.R0
let r1 = Insn.R1
let r2 = Insn.R2

(* --- instruction encode/decode --- *)

let test_encode_golden () =
  (* mov r1, 5  =>  b7 01 00 00 05 00 00 00 *)
  let b = Insn.encode [ Insn.Alu (W64bit, Mov, R1, Imm 5l) ] in
  check Alcotest.string "mov r1,5 wire form" "b701000005000000"
    (String.concat ""
       (List.init (Bytes.length b) (fun i ->
            Printf.sprintf "%02x" (Bytes.get_uint8 b i))));
  let b = Insn.encode [ Insn.Exit ] in
  check Alcotest.int "exit opcode" 0x95 (Bytes.get_uint8 b 0)

let test_lddw_two_slots () =
  let prog = [ Insn.Lddw (R0, 0x1122334455667788L); Insn.Exit ] in
  let b = Insn.encode prog in
  check Alcotest.int "three slots" 24 (Bytes.length b);
  check_bool "roundtrip" true (Insn.decode b = prog)

let test_decode_errors () =
  Alcotest.check_raises "length not multiple of 8"
    (Insn.Decode_error "program length 7 not a multiple of 8") (fun () ->
      ignore (Insn.decode (Bytes.create 7)));
  let b = Bytes.make 8 '\x00' in
  Bytes.set_uint8 b 0 0xff;
  check_bool "invalid alu opcode rejected" true
    (match Insn.decode b with
    | exception Insn.Decode_error _ -> true
    | _ -> false);
  let b = Bytes.make 8 '\x00' in
  Bytes.set_uint8 b 0 0x18;
  check_bool "truncated lddw rejected" true
    (match Insn.decode b with
    | exception Insn.Decode_error _ -> true
    | _ -> false)

(* random valid instruction generator for the roundtrip property *)
let gen_insn =
  let open QCheck2.Gen in
  let reg = map Insn.reg_of_index (int_range 0 10) in
  let size = oneofl [ Insn.W8; W16; W32; W64 ] in
  let width = oneofl [ Insn.W32bit; W64bit ] in
  let alu_op =
    oneofl
      [
        Insn.Add; Sub; Mul; Div; Or; And; Lsh; Rsh; Neg; Mod; Xor; Mov; Arsh;
      ]
  in
  let cond =
    oneofl [ Insn.Eq; Gt; Ge; Set; Ne; Sgt; Sge; Lt; Le; Slt; Sle ]
  in
  let imm = map Int32.of_int (int_range (-1000000) 1000000) in
  let off = int_range (-30000) 30000 in
  let src =
    oneof [ map (fun i -> Insn.Imm i) imm; map (fun r -> Insn.Reg r) reg ]
  in
  oneof
    [
      map3 (fun w op (d, s) -> Insn.Alu (w, op, d, s)) width alu_op
        (pair reg src);
      map2
        (fun e (r, b) -> Insn.Endian (e, r, b))
        (oneofl [ Insn.Le; Insn.Be ])
        (pair reg (oneofl [ 16; 32; 64 ]));
      map2 (fun r v -> Insn.Lddw (r, v)) reg (map Int64.of_int int);
      map3 (fun sz (d, s) o -> Insn.Ldx (sz, d, s, o)) size (pair reg reg) off;
      map3 (fun sz (d, o) i -> Insn.St (sz, d, o, i)) size (pair reg off) imm;
      map3 (fun sz (d, o) s -> Insn.Stx (sz, d, o, s)) size (pair reg off) reg;
      map (fun o -> Insn.Ja o) off;
      map3
        (fun (w, c) (d, s) o -> Insn.Jcond (w, c, d, s, o))
        (pair width cond) (pair reg src) off;
      map (fun i -> Insn.Call i) (int_range 0 1000);
      return Insn.Exit;
    ]

let prop_codec_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"insn encode/decode roundtrip"
    QCheck2.Gen.(list_size (int_range 1 50) gen_insn)
    (fun prog -> Insn.decode (Insn.encode prog) = prog)

let prop_decode_never_crashes =
  QCheck2.Test.make ~count:2000 ~name:"Insn.decode total on garbage"
    QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 64)))
    (fun b ->
      match Insn.decode b with
      | _ -> true
      | exception Insn.Decode_error _ -> true
      | exception _ -> false)

(* --- assembler --- *)

let test_asm_labels () =
  let prog =
    Asm.(
      assemble
        [
          movi r0 0;
          label "top";
          addi r0 1;
          jeqi r0 10 "end";
          ja "top";
          label "end";
          exit_;
        ])
  in
  let vm = Vm.create ~helpers:[] prog in
  check_i64 "loop ten times" 10L (Vm.run vm)

let test_asm_lddw_label_offsets () =
  let v =
    eval
      Asm.
        [
          lddw r1 0x100000000L;
          jnei r0 0 "skip";
          movi r0 7;
          label "skip";
          exit_;
        ]
  in
  check_i64 "offsets with lddw" 7L v

let test_asm_errors () =
  check_bool "unknown label" true
    (match Asm.assemble [ Asm.ja "nowhere"; Asm.exit_ ] with
    | exception Asm.Asm_error _ -> true
    | _ -> false);
  check_bool "duplicate label" true
    (match Asm.assemble [ Asm.label "x"; Asm.label "x"; Asm.exit_ ] with
    | exception Asm.Asm_error _ -> true
    | _ -> false);
  check_bool "immediate too large" true
    (match Asm.movi r0 0x1_0000_0000 with
    | exception Asm.Asm_error _ -> true
    | _ -> false)

let prop_encode_stable =
  QCheck2.Test.make ~count:200 ~name:"encode stable under decode"
    QCheck2.Gen.(list_size (int_range 1 40) gen_insn)
    (fun prog ->
      let b = Insn.encode prog in
      Bytes.equal b (Insn.encode (Insn.decode b)))

(* --- interpreter: ALU semantics --- *)

let test_alu64 () =
  let t name expect items = check_i64 name expect (eval items) in
  t "add" 12L Asm.[ movi r0 5; addi r0 7; exit_ ];
  t "sub wraps" (-2L) Asm.[ movi r0 5; subi r0 7; exit_ ];
  t "mul" 35L Asm.[ movi r0 5; muli r0 7; exit_ ];
  t "div unsigned" 3L Asm.[ movi r0 7; divi r0 2; exit_ ];
  t "mod" 1L Asm.[ movi r0 7; modi r0 2; exit_ ];
  t "and" 4L Asm.[ movi r0 6; andi r0 12; exit_ ];
  t "or" 14L Asm.[ movi r0 6; ori r0 12; exit_ ];
  t "xor" 10L Asm.[ movi r0 6; xori r0 12; exit_ ];
  t "lsh" 24L Asm.[ movi r0 3; lshi r0 3; exit_ ];
  t "rsh" 3L Asm.[ movi r0 24; rshi r0 3; exit_ ];
  t "neg" (-5L) Asm.[ movi r0 5; neg r0; exit_ ];
  t "arsh sign" (-1L) Asm.[ movi r0 (-8); arshi r0 3; exit_ ];
  t "lsh masked" 2L Asm.[ movi r0 1; lshi r0 65; exit_ ];
  t "div unsigned semantics" 0x7FFFFFFFFFFFFFFFL
    Asm.[ movi r0 (-2); divi r0 2; exit_ ]

let test_alu32 () =
  let t name expect items = check_i64 name expect (eval items) in
  t "add32 wraps at 2^32" 0L Asm.[ movi32 r0 (-1); addi32 r0 1; exit_ ];
  t "mov32 zero-extends" 0xFFFFFFFFL Asm.[ movi32 r0 (-1); exit_ ];
  t "add32 keeps low bits" 5L
    Asm.[ lddw r0 0xFFFFFFFF00000004L; addi32 r0 1; exit_ ]

let test_div_by_zero_faults () =
  check_bool "div by zero reg" true
    (match eval Asm.[ movi r0 5; movi r1 0; div r0 r1; exit_ ] with
    | exception Vm.Error _ -> true
    | _ -> false);
  check_bool "mod by zero reg" true
    (match eval Asm.[ movi r0 5; movi r1 0; mod_ r0 r1; exit_ ] with
    | exception Vm.Error _ -> true
    | _ -> false)

let test_endian () =
  let t name expect items = check_i64 name expect (eval items) in
  t "be16" 0x3412L Asm.[ movi r0 0x1234; be16 r0; exit_ ];
  t "be32" 0x78563412L Asm.[ movi r0 0x12345678; be32 r0; exit_ ];
  t "be64" 0xEFCDAB8967452301L
    Asm.[ lddw r0 0x0123456789ABCDEFL; be64 r0; exit_ ];
  t "le16 truncates" 0x1234L Asm.[ lddw r0 0xFFFF1234L; le16 r0; exit_ ];
  t "le32 truncates" 0x12345678L Asm.[ lddw r0 0xFF12345678L; le32 r0; exit_ ]

(* ALU property: interpreter agrees with an Int64 reference model *)
let alu_model op a b =
  let open Int64 in
  match (op : Insn.alu_op) with
  | Add -> Some (add a b)
  | Sub -> Some (sub a b)
  | Mul -> Some (mul a b)
  | Div -> if b = 0L then None else Some (unsigned_div a b)
  | Mod -> if b = 0L then None else Some (unsigned_rem a b)
  | Or -> Some (logor a b)
  | And -> Some (logand a b)
  | Xor -> Some (logxor a b)
  | Lsh -> Some (shift_left a (to_int b land 63))
  | Rsh -> Some (shift_right_logical a (to_int b land 63))
  | Arsh -> Some (shift_right a (to_int b land 63))
  | Mov -> Some b
  | Neg -> Some (neg a)

let prop_alu64_model =
  let open QCheck2 in
  Test.make ~count:1000 ~name:"alu64 matches Int64 model"
    Gen.(
      triple
        (oneofl
           [
             Insn.Add; Sub; Mul; Div; Or; And; Lsh; Rsh; Mod; Xor; Mov; Arsh;
           ])
        (map Int64.of_int int) (map Int64.of_int int))
    (fun (op, a, b) ->
      match alu_model op a b with
      | None -> true
      | Some expect ->
        let prog =
          [
            Insn.Lddw (R0, a);
            Insn.Lddw (R1, b);
            Insn.Alu (W64bit, op, R0, Reg R1);
            Insn.Exit;
          ]
        in
        let vm = Vm.create ~helpers:[] prog in
        Vm.run vm = expect)

(* --- jumps --- *)

let test_cond_jumps () =
  let jump_taken cond a b =
    let prog =
      [
        Insn.Lddw (R1, a);
        Insn.Lddw (R2, b);
        Insn.Alu (W64bit, Mov, R0, Imm 0l);
        Insn.Jcond (W64bit, cond, R1, Reg R2, 1);
        Insn.Ja 1;
        Insn.Alu (W64bit, Mov, R0, Imm 1l);
        Insn.Exit;
      ]
    in
    Vm.run (Vm.create ~helpers:[] prog) = 1L
  in
  check_bool "jeq taken" true (jump_taken Insn.Eq 5L 5L);
  check_bool "jeq not taken" false (jump_taken Insn.Eq 5L 6L);
  check_bool "jgt unsigned: -1 > 1" true (jump_taken Insn.Gt (-1L) 1L);
  check_bool "jsgt signed: -1 < 1" false (jump_taken Insn.Sgt (-1L) 1L);
  check_bool "jlt unsigned" true (jump_taken Insn.Lt 1L (-1L));
  check_bool "jslt signed" true (jump_taken Insn.Slt (-1L) 1L);
  check_bool "jset" true (jump_taken Insn.Set 6L 2L);
  check_bool "jset clear" false (jump_taken Insn.Set 4L 2L);
  check_bool "jge equal" true (jump_taken Insn.Ge 5L 5L);
  check_bool "jle equal" true (jump_taken Insn.Le 5L 5L);
  check_bool "jsge" true (jump_taken Insn.Sge 1L (-1L));
  check_bool "jsle" true (jump_taken Insn.Sle (-1L) 1L);
  check_bool "jne" true (jump_taken Insn.Ne 1L 2L)

let test_jmp32 () =
  let prog =
    [
      Insn.Lddw (R1, 0xFFFFFFFF00000005L);
      Insn.Alu (W64bit, Mov, R0, Imm 0l);
      Insn.Jcond (W32bit, Eq, R1, Imm 5l, 1);
      Insn.Ja 1;
      Insn.Alu (W64bit, Mov, R0, Imm 1l);
      Insn.Exit;
    ]
  in
  check_i64 "jeq32 low word" 1L (Vm.run (Vm.create ~helpers:[] prog))

(* --- memory --- *)

let test_stack_load_store () =
  let v =
    eval
      Asm.
        [
          movi r1 0x1234;
          stxh Insn.R10 (-2) r1;
          ldxh r0 Insn.R10 (-2);
          exit_;
        ]
  in
  check_i64 "stack roundtrip u16" 0x1234L v;
  let v =
    eval
      Asm.
        [
          lddw r1 0x1122334455667788L;
          stxdw Insn.R10 (-8) r1;
          ldxb r0 Insn.R10 (-8);
          exit_;
        ]
  in
  check_i64 "little-endian memory" 0x88L v

let test_memory_faults () =
  let faults items =
    match eval items with exception Vm.Error _ -> true | _ -> false
  in
  check_bool "load below stack" true
    (faults Asm.[ ldxw r0 Insn.R10 (-600); exit_ ]);
  check_bool "load above stack top" true
    (faults Asm.[ ldxw r0 Insn.R10 0; exit_ ]);
  check_bool "load straddling stack top" true
    (faults Asm.[ ldxw r0 Insn.R10 (-2); exit_ ]);
  check_bool "store out of range" true
    (faults Asm.[ movi r1 0; stxw r1 0 r1; exit_ ]);
  check_bool "unknown helper" true (faults Asm.[ call 999; exit_ ])

let test_read_only_region () =
  let mem = Memory.create () in
  let _ =
    Memory.add_region mem ~name:"ro" ~base:0x5000L ~writable:false
      (Bytes.of_string "abcd")
  in
  let prog =
    Asm.(assemble [ lddw r1 0x5000L; stb r1 0 7; movi r0 0; exit_ ])
  in
  let vm = Vm.create ~mem ~helpers:[] prog in
  check_bool "write to read-only faults" true
    (match Vm.run vm with exception Vm.Error _ -> true | _ -> false);
  let mem2 = Memory.create () in
  let _ =
    Memory.add_region mem2 ~name:"ro" ~base:0x5000L ~writable:false
      (Bytes.of_string "abcd")
  in
  let prog2 = Asm.(assemble [ lddw r1 0x5000L; ldxb r0 r1 1; exit_ ]) in
  check_i64 "read from read-only ok"
    (Int64.of_int (Char.code 'b'))
    (Vm.run (Vm.create ~mem:mem2 ~helpers:[] prog2))

let test_region_overlap_rejected () =
  let mem = Memory.create () in
  let _ =
    Memory.add_region mem ~name:"a" ~base:0x100L ~writable:true
      (Bytes.create 16)
  in
  check_bool "overlap rejected" true
    (match
       Memory.add_region mem ~name:"b" ~base:0x108L ~writable:true
         (Bytes.create 16)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_read_cstring () =
  let mem = Memory.create () in
  let _ =
    Memory.add_region mem ~name:"s" ~base:0x100L ~writable:false
      (Bytes.of_string "hello\x00world")
  in
  check Alcotest.string "cstring" "hello" (Memory.read_cstring mem 0x100L)

(* --- budget and helpers --- *)

let test_budget_exhaustion () =
  let prog = Asm.(assemble [ label "x"; ja "x"; exit_ ]) in
  let vm = Vm.create ~budget:1000 ~helpers:[] prog in
  check_bool "infinite loop stopped" true
    (match Vm.run vm with exception Vm.Error _ -> true | _ -> false);
  check_bool "executed roughly budget" true (Vm.executed vm >= 999)

let test_helper_args_and_result () =
  let seen = ref [] in
  let helpers =
    [
      ( 7,
        fun _ args ->
          seen := Array.to_list args;
          99L );
    ]
  in
  let v =
    eval ~helpers
      Asm.
        [
          movi r1 11;
          movi r2 22;
          movi Insn.R3 33;
          movi Insn.R4 44;
          movi Insn.R5 55;
          call 7;
          exit_;
        ]
  in
  check_i64 "helper result in r0" 99L v;
  check_bool "helper saw r1..r5" true (!seen = [ 11L; 22L; 33L; 44L; 55L ])

let test_vm_reuse_zeroes_regs () =
  let prog = Asm.(assemble [ mov r0 r1; exit_ ]) in
  let vm = Vm.create ~helpers:[] prog in
  Vm.set_reg vm r1 42L;
  check_i64 "run sees 0 (regs zeroed on entry)" 0L (Vm.run vm)

(* --- engine equivalence --- *)

let outcome engine prog =
  let vm = Vm.create ~budget:10_000 ~engine ~helpers:[ (7, fun _ a -> Int64.add a.(0) 1L) ] prog in
  match Vm.run vm with v -> Ok v | exception Vm.Error _ -> Error ()

let prop_engines_agree =
  QCheck2.Test.make ~count:500
    ~name:"every engine = interpreter (result or fault)"
    QCheck2.Gen.(list_size (int_range 1 40) gen_insn)
    (fun prog ->
      let base = outcome Vm.Interpreted prog in
      List.for_all (fun e -> outcome e prog = base) Vm.all_engines)

(* The verifier is the single gate: a rejected program is refused at VMM
   registration on every engine (nothing ever executes it), and an
   accepted program runs to the same outcome on every engine. *)
let prop_verifier_single_gate =
  QCheck2.Test.make ~count:300 ~name:"verifier gates all engines identically"
    QCheck2.Gen.(list_size (int_range 1 40) gen_insn)
    (fun prog ->
      match Verifier.check prog with
      | Error _ ->
        List.for_all
          (fun e ->
            let vmm = Xbgp.Vmm.create ~engine:e ~host:"test" () in
            let xp = Xbgp.Xprog.v ~name:"gate" [ ("main", prog) ] in
            match Xbgp.Vmm.register vmm xp with
            | Error _ -> (Xbgp.Vmm.stats vmm).runs = 0
            | Ok () -> false)
          Vm.all_engines
      | Ok _ ->
        let base = outcome Vm.Interpreted prog in
        List.for_all (fun e -> outcome e prog = base) Vm.all_engines)

let test_compiled_full_programs () =
  (* every registered xBGP bytecode builds a VM on every engine *)
  List.iter
    (fun (p : Xbgp.Xprog.t) ->
      List.iter
        (fun (_, code) ->
          List.iter
            (fun engine -> ignore (Vm.create ~engine ~helpers:[] code))
            Vm.all_engines)
        p.bytecodes)
    Xprogs.Registry.all

(* --- block-compiled engine --- *)

let test_block_smoke () =
  let prog =
    Asm.(
      assemble
        [
          movi r0 0;
          movi r1 100;
          label "top";
          addi r0 7;
          subi r1 1;
          jnei r1 0 "top";
          exit_;
        ])
  in
  let vm = Vm.create ~engine:Vm.Block ~helpers:[] prog in
  check_i64 "block loop" 700L (Vm.run vm);
  check_bool "engine reported" true (Vm.engine vm = Vm.Block);
  check_i64 "second run" 700L (Vm.run vm)

let test_block_retired_matches_interpreter () =
  (* per-block budget charging must not change the retired-instruction
     count on successful runs *)
  let prog =
    Asm.(
      assemble
        [
          movi r0 0;
          movi r1 10;
          label "top";
          addi r0 3;
          subi r1 1;
          jnei r1 0 "top";
          exit_;
        ])
  in
  let run engine =
    let vm = Vm.create ~engine ~helpers:[] prog in
    let v = Vm.run vm in
    (v, Vm.executed vm)
  in
  let vi, ei = run Vm.Interpreted in
  let vb, eb = run Vm.Block in
  check_i64 "same result" vi vb;
  check Alcotest.int "same retired count" ei eb

let test_block_budget_fallback () =
  (* a budget that dies mid-block: the block engine must fall back to
     per-instruction interpretation and exhaust at the interpreter's
     exact point *)
  let prog =
    Asm.(assemble [ movi r0 1; movi r1 2; movi r2 3; movi Insn.R3 4; exit_ ])
  in
  let run engine =
    let vm = Vm.create ~engine ~budget:2 ~helpers:[] prog in
    let r = match Vm.run vm with v -> Ok v | exception Vm.Error e -> Error e in
    (r, Vm.executed vm)
  in
  let ri, ei = run Vm.Interpreted in
  let rb, eb = run Vm.Block in
  check_bool "both exhaust" true (ri = rb && Result.is_error ri);
  check Alcotest.int "fallback retires like the interpreter" ei eb;
  (* and an infinite loop still hits the budget *)
  let spin = Asm.(assemble [ label "x"; ja "x"; exit_ ]) in
  let vm = Vm.create ~engine:Vm.Block ~budget:1000 ~helpers:[] spin in
  check_bool "budget stops block loop" true
    (match Vm.run vm with exception Vm.Error _ -> true | _ -> false)

let test_block_fusions () =
  (* exercise each fusion pattern and the static stack fast path against
     the interpreter *)
  let progs =
    [
      (* ldx+alu fusion and the r10 stack fast path *)
      Asm.
        [
          movi r1 0x1234;
          stxh Insn.R10 (-2) r1;
          ldxh r0 Insn.R10 (-2);
          addi r0 1;
          exit_;
        ];
      (* mov-imm burst feeding a helper call *)
      Asm.[ movi r1 41; movi r2 1; call 7; exit_ ];
      (* trailing alu fused into the branch *)
      Asm.
        [
          movi r0 0;
          movi r1 5;
          label "top";
          addi r0 2;
          subi r1 1;
          jnei r1 0 "top";
          exit_;
        ];
      (* st-imm through r10, read back *)
      Asm.[ sth Insn.R10 (-4) 0xBEE; ldxh r0 Insn.R10 (-4); exit_ ];
    ]
  in
  List.iteri
    (fun i items ->
      let prog = Asm.assemble items in
      check_bool
        (Printf.sprintf "fusion prog %d agrees" i)
        true
        (outcome Vm.Interpreted prog = outcome Vm.Block prog
        && Result.is_ok (outcome Vm.Block prog)))
    progs

let test_block_faults () =
  let oob = Asm.(assemble [ ldxw r0 Insn.R10 0; exit_ ]) in
  let vm = Vm.create ~engine:Vm.Block ~helpers:[] oob in
  check_bool "block memory fault" true
    (match Vm.run vm with exception Vm.Error _ -> true | _ -> false);
  (* statically out-of-stack r10 offset goes through the generic path
     and faults like the interpreter *)
  let below = Asm.(assemble [ ldxw r0 Insn.R10 (-600); exit_ ]) in
  check_bool "below stack" true
    (outcome Vm.Interpreted below = outcome Vm.Block below);
  let unknown = Asm.(assemble [ call 999; exit_ ]) in
  check_bool "unknown helper" true
    (outcome Vm.Interpreted unknown = outcome Vm.Block unknown)

let test_block_entry_offset () =
  (* a non-leader entry point falls back to the interpreter *)
  let prog =
    Asm.(assemble [ movi r0 1; movi r1 9; mov r0 r1; exit_ ])
  in
  let run engine entry =
    let vm = Vm.create ~engine ~helpers:[] prog in
    Vm.run ~entry vm
  in
  List.iter
    (fun entry ->
      check_i64
        (Printf.sprintf "entry %d" entry)
        (run Vm.Interpreted entry) (run Vm.Block entry))
    [ 0; 1; 2 ]

(* --- verifier --- *)

let rejected ?allowed_helpers prog =
  match Verifier.check ?allowed_helpers prog with
  | Ok _ -> false
  | Error _ -> true

let test_verifier () =
  check_bool "empty program" true (rejected []);
  check_bool "fall off end" true
    (rejected [ Insn.Alu (W64bit, Mov, R0, Imm 0l) ]);
  check_bool "jump out of range" true (rejected [ Insn.Ja 5; Insn.Exit ]);
  check_bool "jump into lddw" true
    (rejected [ Insn.Ja 1; Insn.Lddw (R0, 0L); Insn.Exit ]);
  check_bool "write to r10" true
    (rejected [ Insn.Alu (W64bit, Mov, R10, Imm 0l); Insn.Exit ]);
  check_bool "div by zero imm" true
    (rejected [ Insn.Alu (W64bit, Div, R0, Imm 0l); Insn.Exit ]);
  check_bool "helper not whitelisted" true
    (rejected ~allowed_helpers:[ 1 ] [ Insn.Call 2; Insn.Exit ]);
  check_bool "whitelisted helper ok" false
    (rejected ~allowed_helpers:[ 2 ] [ Insn.Call 2; Insn.Exit ]);
  check_bool "conditional at end" true
    (rejected [ Insn.Jcond (W64bit, Eq, R0, Imm 0l, -1) ]);
  check_bool "valid program accepted" false
    (rejected [ Insn.Alu (W64bit, Mov, R0, Imm 0l); Insn.Exit ])

let test_verifier_unreachable () =
  check_bool "code after exit" true
    (rejected
       [
         Insn.Alu (W64bit, Mov, R0, Imm 0l);
         Insn.Exit;
         Insn.Alu (W64bit, Mov, R0, Imm 1l);
         Insn.Exit;
       ]);
  check_bool "code skipped by ja" true
    (rejected [ Insn.Ja 1; Insn.Alu (W64bit, Mov, R0, Imm 0l); Insn.Exit ]);
  check_bool "exit after unconditional self-loop" true
    (rejected [ Insn.Ja (-1); Insn.Exit ]);
  (* both branches of a conditional count as reachable *)
  check_bool "jcond fall-through reachable" false
    (rejected
       [
         Insn.Alu (W64bit, Mov, R0, Imm 0l);
         Insn.Jcond (W64bit, Eq, R0, Imm 0l, 1);
         Insn.Alu (W64bit, Mov, R0, Imm 1l);
         Insn.Exit;
       ]);
  (* a backward conditional loop whose fall-through exits is legal:
     termination is the budget's job, not the verifier's *)
  check_bool "conditional self-loop accepted" false
    (rejected
       [
         Insn.Alu (W64bit, Mov, R1, Imm 0l);
         Insn.Jcond (W64bit, Eq, R1, Imm 0l, -1);
         Insn.Exit;
       ])

let test_verifier_size_limit () =
  let prog n =
    List.init n (fun _ -> Insn.Alu (Insn.W64bit, Insn.Mov, R0, Insn.Imm 0l))
    @ [ Insn.Exit ]
  in
  (* [Verifier.max_insns] counts slots, and Exit takes one *)
  check_bool "at the limit accepted" false (rejected (prog (Verifier.max_insns - 1)));
  check_bool "one over the limit rejected" true
    (rejected (prog Verifier.max_insns))

let test_verifier_accepts_all_registered () =
  List.iter
    (fun (p : Xbgp.Xprog.t) ->
      List.iter
        (fun (name, result) ->
          match result with
          | Ok _ -> ()
          | Error es ->
            Alcotest.failf "%s/%s rejected: %s" p.name name
              (Fmt.str "%a" (Fmt.list Verifier.pp_error) es))
        (Xbgp.Vmm.verify p))
    Xprogs.Registry.all

(* The path walk's call-site facts: r1 survives a join only when every
   incoming edge carries the same constant, and a constant is r1's raw
   64-bit value as the VM computes it. *)
let test_verifier_facts () =
  let r1_at_call items =
    match Verifier.check (Asm.assemble items) with
    | Ok [ c ] -> c.Verifier.r1
    | Ok cs -> Alcotest.failf "expected one call site, got %d" (List.length cs)
    | Error es -> Alcotest.failf "rejected: %a" (Fmt.list Verifier.pp_error) es
  in
  let r1 = Alcotest.(option int64) in
  Alcotest.check r1 "constant before a branch reaches the join" (Some 7L)
    (r1_at_call
       Asm.
         [ movi R1 7; jeqi R0 0 "join"; movi R0 1; label "join"; call 2; exit_ ]);
  Alcotest.check r1 "paths that disagree leave r1 unresolved" None
    (r1_at_call
       Asm.
         [ movi R1 1; jeqi R0 0 "join"; movi R1 2; label "join"; call 2; exit_ ]);
  Alcotest.check r1 "a loop body clobbering r1 leaves it unresolved" None
    (r1_at_call
       Asm.
         [
           movi R6 0;
           movi R1 3;
           label "loop";
           call 2;
           mov R1 R0;
           addi R6 1;
           jlti R6 4 "loop";
           exit_;
         ]);
  Alcotest.check r1 "a loop resetting r1 before the call keeps it" (Some 3L)
    (r1_at_call
       Asm.
         [
           movi R6 0;
           label "loop";
           movi R1 3;
           call 2;
           addi R6 1;
           jlti R6 4 "loop";
           exit_;
         ]);
  Alcotest.check r1 "lddw keeps all 64 bits" (Some 0x1_0000_0002L)
    (r1_at_call Asm.[ lddw R1 0x1_0000_0002L; call 2; exit_ ]);
  Alcotest.check r1 "64-bit mov sign-extends" (Some (-1L))
    (r1_at_call Asm.[ movi R1 (-1); call 2; exit_ ]);
  Alcotest.check r1 "32-bit mov zero-extends" (Some 0xFFFF_FFFFL)
    (r1_at_call Asm.[ movi32 R1 (-1); call 2; exit_ ]);
  Alcotest.check r1 "an unfolded write forgets r1" None
    (r1_at_call Asm.[ movi R1 3; addi R1 1; call 2; exit_ ]);
  Alcotest.check r1 "r1 on entry is unknown" None
    (r1_at_call Asm.[ call 2; exit_ ])

(* [gen_insn] programs repaired into verifier-clean shape, so that a
   property over accepted programs is not vacuous (raw [gen_insn] lists
   almost never pass the structural checks): every jump becomes a
   conditional one whose offset is folded onto an instruction boundary
   (backward edges make loops, the budget ends them), a mid-program exit
   is dropped, memory accesses go to the stack, a write to r10 goes to
   r1 instead, a zero immediate divisor becomes 1, and an exit closes
   the program. Every instruction stays reachable by fall-through. To
   give the analysis constants to track, every immediate [mov] and every
   [lddw] targets r1. *)
let repair_prog body =
  let stack off = -8 * (1 + (abs off mod 63)) in
  let body =
    List.filter_map
      (fun (i : Insn.t) ->
        match i with
        | Exit -> None
        | Ja off -> Some (Insn.Jcond (W64bit, Ne, R0, Imm 0l, off))
        | Alu (w, ((Div | Mod) as op), d, Imm 0l) ->
          Some (Insn.Alu (w, op, d, Imm 1l))
        | Alu (w, Mov, _, (Imm _ as src)) | Alu (w, Mov, R10, src) ->
          Some (Insn.Alu (w, Mov, R1, src))
        | Alu (w, op, R10, src) -> Some (Insn.Alu (w, op, R1, src))
        | Endian (e, R10, b) -> Some (Insn.Endian (e, R1, b))
        | Lddw (_, v) -> Some (Insn.Lddw (R1, v))
        | Ldx (sz, d, _, off) ->
          Some (Insn.Ldx (sz, (if d = R10 then R1 else d), R10, stack off))
        | St (sz, _, off, imm) -> Some (Insn.St (sz, R10, stack off, imm))
        | Stx (sz, _, off, src) -> Some (Insn.Stx (sz, R10, stack off, src))
        | i -> Some i)
      body
  in
  let insns = Array.of_list (body @ [ Insn.Exit ]) in
  let n = Array.length insns in
  let slot = Array.make (n + 1) 0 in
  Array.iteri (fun i x -> slot.(i + 1) <- slot.(i) + Insn.slots x) insns;
  Array.to_list
    (Array.mapi
       (fun i (x : Insn.t) ->
         match x with
         | Jcond (w, c, d, s, off) ->
           Insn.Jcond (w, c, d, s, slot.(abs off mod n) - slot.(i) - 1)
         | x -> x)
       insns)

(* Soundness of the call-site facts against the interpreter: every
   helper call a verifier-accepted program makes is one of its call
   sites, and when every site of that helper resolves r1, the traced r1
   is one of those values. *)
let prop_verifier_facts_sound =
  QCheck2.Test.make ~count:500
    ~name:"verifier facts cover the interpreter's helper calls"
    QCheck2.Gen.(map repair_prog (list_size (int_range 1 40) gen_insn))
    (fun prog ->
      match Verifier.check prog with
      | Error _ -> true
      | Ok facts ->
        let trace = ref [] in
        let helpers =
          List.filter_map
            (function
              | Insn.Call id ->
                Some
                  ( id,
                    fun _ (a : int64 array) ->
                      trace := (id, a.(0)) :: !trace;
                      Int64.add a.(0) 1L )
              | _ -> None)
            prog
          |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
        in
        let vm = Vm.create ~budget:10_000 ~helpers prog in
        (try ignore (Vm.run vm) with Vm.Error _ | Memory.Fault _ -> ());
        List.for_all
          (fun (id, r1) ->
            let sites = List.filter (fun c -> c.Verifier.helper = id) facts in
            sites <> []
            && List.exists
                 (fun c -> c.Verifier.r1 = None || c.Verifier.r1 = Some r1)
                 sites)
          !trace)

(* --- disassembler --- *)

let test_disasm_text () =
  let text =
    Disasm.program_to_string
      [
        Insn.Alu (W64bit, Mov, R1, Imm 5l);
        Insn.Ldx (W32, R0, R1, 4);
        Insn.Exit;
      ]
  in
  check_bool "mentions mov" true (contains text "mov r1, 5");
  check_bool "mentions ldxw" true (contains text "ldxw r0, [r1+4]");
  check_bool "mentions exit" true (contains text "exit")

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "ebpf"
    [
      ( "insn",
        [
          Alcotest.test_case "golden encodings" `Quick test_encode_golden;
          Alcotest.test_case "lddw two slots" `Quick test_lddw_two_slots;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          qc prop_codec_roundtrip;
          qc prop_decode_never_crashes;
        ] );
      ( "asm",
        [
          Alcotest.test_case "labels" `Quick test_asm_labels;
          Alcotest.test_case "lddw offsets" `Quick test_asm_lddw_label_offsets;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          qc prop_encode_stable;
        ] );
      ( "vm",
        [
          Alcotest.test_case "alu64" `Quick test_alu64;
          Alcotest.test_case "alu32" `Quick test_alu32;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero_faults;
          Alcotest.test_case "endian" `Quick test_endian;
          Alcotest.test_case "cond jumps" `Quick test_cond_jumps;
          Alcotest.test_case "jmp32" `Quick test_jmp32;
          Alcotest.test_case "stack" `Quick test_stack_load_store;
          Alcotest.test_case "memory faults" `Quick test_memory_faults;
          Alcotest.test_case "read-only region" `Quick test_read_only_region;
          Alcotest.test_case "region overlap" `Quick
            test_region_overlap_rejected;
          Alcotest.test_case "cstring" `Quick test_read_cstring;
          Alcotest.test_case "budget" `Quick test_budget_exhaustion;
          Alcotest.test_case "helper args" `Quick test_helper_args_and_result;
          Alcotest.test_case "reuse zeroes regs" `Quick
            test_vm_reuse_zeroes_regs;
          qc prop_alu64_model;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "all registered bytecodes compile" `Quick
            test_compiled_full_programs;
          qc prop_engines_agree;
          qc prop_verifier_single_gate;
        ] );
      ( "block",
        [
          Alcotest.test_case "smoke" `Quick test_block_smoke;
          Alcotest.test_case "retired count" `Quick
            test_block_retired_matches_interpreter;
          Alcotest.test_case "budget fallback" `Quick test_block_budget_fallback;
          Alcotest.test_case "fusions" `Quick test_block_fusions;
          Alcotest.test_case "faults" `Quick test_block_faults;
          Alcotest.test_case "entry offset" `Quick test_block_entry_offset;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "structural checks" `Quick test_verifier;
          Alcotest.test_case "unreachable code" `Quick
            test_verifier_unreachable;
          Alcotest.test_case "size limit" `Quick test_verifier_size_limit;
          Alcotest.test_case "all registered programs verify" `Quick
            test_verifier_accepts_all_registered;
          Alcotest.test_case "call-site facts" `Quick test_verifier_facts;
          qc prop_verifier_facts_sound;
        ] );
      ( "disasm",
        [ Alcotest.test_case "text output" `Quick test_disasm_text ] );
    ]
