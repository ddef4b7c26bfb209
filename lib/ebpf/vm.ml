(* The eBPF execution engines.

   Faithful to the classic eBPF execution model: eleven 64-bit registers,
   a 512-byte stack addressed through the read-only frame pointer r10,
   little-endian memory, unsigned div/mod-by-zero trapping, and helper
   calls dispatched on the CALL immediate. Jump offsets are expressed in
   8-byte slots, so LDDW counts for two, exactly as in the wire format.

   Execution is metered by an instruction budget. Exhausting the budget,
   touching memory outside a granted region or dividing by zero raises
   [Error]; the caller (the xBGP virtual machine manager) catches it and
   falls back to the host's native code, as §2.1 of the paper specifies.

   Two engines share these semantics bit for bit:
   - [Interpreted]: a classic decode-and-dispatch loop over the slots,
     the reference oracle the other engine is checked against;
   - [Block]: a basic-block pre-compiler (see [Block] the module). The
     program is partitioned once into basic blocks with fused
     instruction pairs; each block is one closure that charges its whole
     retired-instruction count against the budget on entry, runs with no
     per-instruction metering, dispatch, or generic memory lookup for
     statically-bounded r10 accesses, and tail-calls the next block
     directly. Helper calls resolve their target at compile time and
     reuse a preallocated argument buffer. When the remaining budget
     cannot cover a whole block the engine re-enters the interpreter at
     the block's leader, so budget-exhaustion faults (including partial
     helper side effects) are bit-identical to the interpreter's.

   Engine equivalence on success is exact: same r0, same final register
   file, same helper-call sequence, same retired-instruction count. On a
   fault the engines agree on the fault itself but may differ in the
   retired-instruction counter ([Block] charges a faulting block up
   front) — the fuzz oracle therefore compares outcomes, registers and
   host-visible state, not the meters, on faulting runs. *)

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type engine = Interpreted | Block

let engine_name = function Interpreted -> "interpreted" | Block -> "block"
let all_engines = [ Interpreted; Block ]

type slot = I of Insn.t | Pad

type t = {
  mem : Memory.t;
  regs : int64 array;
  helpers : (int, helper) Hashtbl.t;
  program : slot array;
  stack : Memory.region;
  engine : engine;
  mutable budget : int;
  mutable executed : int;  (** instructions retired over the VM lifetime *)
  mutable helper_calls : int;
  mutable last_pc : int;
      (** slot of the most recent instruction entered, for fault
          attribution; -1 before any run. [Interpreted] tracks exactly;
          [Block] records the block leader on entry (exact again once it
          falls back to the interpreter on budget exhaustion). *)
  mutable blocks : (unit -> int64) array;
      (** per-basic-block entry points; empty unless the engine is
          [Block] *)
  mutable block_index : int array;
      (** slot -> block id (-1 when not a leader); empty unless [Block] *)
}

and helper = t -> int64 array -> int64

let default_budget = 50_000_000
let stack_size = 512
let stack_base = 0x1000_0000L

let slots_of_program prog =
  let n = List.fold_left (fun acc i -> acc + Insn.slots i) 0 prog in
  let arr = Array.make n Pad in
  let pos = ref 0 in
  List.iter
    (fun insn ->
      arr.(!pos) <- I insn;
      pos := !pos + Insn.slots insn)
    prog;
  arr

let memory t = t.mem
let reg t r = t.regs.(Insn.reg_index r)
let set_reg t r v = t.regs.(Insn.reg_index r) <- v
let executed t = t.executed
let helper_calls t = t.helper_calls
let set_budget t b = t.budget <- b
let budget t = t.budget
let fault_pc t = if t.last_pc < 0 then None else Some t.last_pc

let insn_at t pc =
  if pc < 0 || pc >= Array.length t.program then None
  else match t.program.(pc) with I i -> Some i | Pad -> None

let u32 v = Int64.logand v 0xFFFFFFFFL
let sx32 v = Int64.of_int32 (Int64.to_int32 v)

let bswap16 v =
  let v = Int64.to_int v land 0xffff in
  Int64.of_int (((v land 0xff) lsl 8) lor (v lsr 8))

let bswap32 v =
  let v = u32 v in
  let b i = Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL in
  Int64.logor
    (Int64.shift_left (b 0) 24)
    (Int64.logor
       (Int64.shift_left (b 1) 16)
       (Int64.logor (Int64.shift_left (b 2) 8) (b 3)))

let bswap64 v =
  Int64.logor
    (Int64.shift_left (bswap32 v) 32)
    (bswap32 (Int64.shift_right_logical v 32))

let alu64 op a b =
  let open Int64 in
  match (op : Insn.alu_op) with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> if b = 0L then error "division by zero" else unsigned_div a b
  | Mod -> if b = 0L then error "modulo by zero" else unsigned_rem a b
  | Or -> logor a b
  | And -> logand a b
  | Xor -> logxor a b
  | Lsh -> shift_left a (to_int b land 63)
  | Rsh -> shift_right_logical a (to_int b land 63)
  | Arsh -> shift_right a (to_int b land 63)
  | Neg -> neg a
  | Mov -> b

let alu32 op a b =
  match (op : Insn.alu_op) with
  | Arsh ->
    (* sign-extend the operand, arithmetic shift, then zero-extend *)
    u32 (Int64.shift_right (sx32 a) (Int64.to_int b land 31))
  | Lsh -> u32 (Int64.shift_left (u32 a) (Int64.to_int b land 31))
  | Rsh -> Int64.shift_right_logical (u32 a) (Int64.to_int b land 31)
  | _ -> u32 (alu64 op (u32 a) (u32 b))

let cond_holds w c a b =
  let a, b =
    match (w : Insn.width) with
    | W64bit -> (a, b)
    | W32bit -> (u32 a, u32 b)
  in
  let sa, sb = match w with W64bit -> (a, b) | W32bit -> (sx32 a, sx32 b) in
  let ucmp = Int64.unsigned_compare a b in
  match (c : Insn.cond) with
  | Eq -> a = b
  | Ne -> a <> b
  | Gt -> ucmp > 0
  | Ge -> ucmp >= 0
  | Lt -> ucmp < 0
  | Le -> ucmp <= 0
  | Set -> Int64.logand a b <> 0L
  | Sgt -> Int64.compare sa sb > 0
  | Sge -> Int64.compare sa sb >= 0
  | Slt -> Int64.compare sa sb < 0
  | Sle -> Int64.compare sa sb <= 0

let src_value t = function
  | Insn.Imm i -> Int64.of_int32 i
  | Insn.Reg r -> t.regs.(Insn.reg_index r)

let endian_apply e bits v =
  match ((e : Insn.endianness), bits) with
  | Le, 16 -> Int64.logand v 0xFFFFL
  | Le, 32 -> u32 v
  | Le, 64 -> v
  | Be, 16 -> bswap16 v
  | Be, 32 -> bswap32 v
  | Be, 64 -> bswap64 v
  | _ -> error "endian width %d" bits

let do_call t id =
  match Hashtbl.find_opt t.helpers id with
  | None -> error "call to unknown helper %d" id
  | Some f ->
    t.helper_calls <- t.helper_calls + 1;
    let args =
      [| t.regs.(1); t.regs.(2); t.regs.(3); t.regs.(4); t.regs.(5) |]
    in
    t.regs.(0) <- f t args

(* --- the interpreter proper --- *)

(* Decode-and-dispatch from slot [entry]. Shared by the [Interpreted]
   engine and by the [Block] engine's budget-exhaustion fallback, which
   re-enters here at a block leader so metering faults are bit-identical
   to the interpreter's. *)
let interp_from t entry =
  let n = Array.length t.program in
  let rec step pc =
    if pc < 0 || pc >= n then error "pc %d out of program (0..%d)" pc (n - 1);
    t.last_pc <- pc;
    if t.budget <= 0 then error "instruction budget exhausted";
    t.budget <- t.budget - 1;
    t.executed <- t.executed + 1;
    match t.program.(pc) with
    | Pad -> error "jump into the middle of lddw at slot %d" pc
    | I insn -> (
      match insn with
      | Alu (w, op, dst, src) ->
        let d = Insn.reg_index dst in
        if d = 10 then error "write to frame pointer r10";
        let a = t.regs.(d) and b = src_value t src in
        let v =
          match w with W64bit -> alu64 op a b | W32bit -> alu32 op a b
        in
        t.regs.(d) <- v;
        step (pc + 1)
      | Endian (e, dst, bits) ->
        let d = Insn.reg_index dst in
        if d = 10 then error "write to frame pointer r10";
        t.regs.(d) <- endian_apply e bits t.regs.(d);
        step (pc + 1)
      | Lddw (dst, v) ->
        let d = Insn.reg_index dst in
        if d = 10 then error "write to frame pointer r10";
        t.regs.(d) <- v;
        step (pc + 2)
      | Ldx (sz, dst, src, off) ->
        let addr = Int64.add t.regs.(Insn.reg_index src) (Int64.of_int off) in
        let d = Insn.reg_index dst in
        if d = 10 then error "write to frame pointer r10";
        (try t.regs.(d) <- Memory.load t.mem sz addr
         with Memory.Fault m -> error "load: %s" m);
        step (pc + 1)
      | St (sz, dst, off, imm) ->
        let addr = Int64.add t.regs.(Insn.reg_index dst) (Int64.of_int off) in
        (try Memory.store t.mem sz addr (Int64.of_int32 imm)
         with Memory.Fault m -> error "store: %s" m);
        step (pc + 1)
      | Stx (sz, dst, off, src) ->
        let addr = Int64.add t.regs.(Insn.reg_index dst) (Int64.of_int off) in
        (try Memory.store t.mem sz addr t.regs.(Insn.reg_index src)
         with Memory.Fault m -> error "store: %s" m);
        step (pc + 1)
      | Ja off -> step (pc + 1 + off)
      | Jcond (w, c, dst, src, off) ->
        let a = t.regs.(Insn.reg_index dst) and b = src_value t src in
        if cond_holds w c a b then step (pc + 1 + off) else step (pc + 1)
      | Call id ->
        do_call t id;
        step (pc + 1)
      | Exit -> t.regs.(0))
  in
  step entry

(* --- basic-block compilation --- *)

(* Turn the [Block.analyze] result into one closure per block. Each
   closure charges the block's whole retired-instruction count against
   the budget on entry (falling back to [interp_from] at the leader when
   the budget cannot cover the block, which reproduces the interpreter's
   exhaustion point and partial side effects exactly), then runs the
   fused body with no per-instruction metering and tail-calls the next
   block through a direct reference.

   Fast paths, both justified by r10 being read-only and pinned to the
   VM's own stack top by [run]:
   - LDX/ST/STX through r10 with a statically in-bounds offset compile
     to direct byte accesses on the stack buffer, skipping the region
     walk; statically out-of-bounds r10 offsets keep the generic
     bounds-checked path (the address may legitimately resolve into
     another region).
   - CALL resolves the helper once at compile time and refills one
     preallocated argument buffer per call site instead of allocating. *)
let compile_blocks t : (unit -> int64) array * int array =
  let n = Array.length t.program in
  let slots =
    Array.map (function I i -> Block.Op i | Pad -> Block.Pad) t.program
  in
  let blocks, block_of_slot = Block.analyze slots in
  let bfns = Array.make (max (Array.length blocks) 1) (fun () -> error "unreachable") in
  let resolve target =
    if target < 0 || target >= n then fun () ->
      error "pc %d out of program (0..%d)" target (n - 1)
    else
      match t.program.(target) with
      | Pad ->
        fun () -> error "jump into the middle of lddw at slot %d" target
      | I _ ->
        (* every in-range jump target on an instruction is a leader *)
        let bid = block_of_slot.(target) in
        fun () -> bfns.(bid) ()
  in
  let source = function
    | Insn.Imm i ->
      let v = Int64.of_int32 i in
      fun () -> v
    | Insn.Reg r ->
      let s = Insn.reg_index r in
      fun () -> t.regs.(s)
  in
  let sbytes = Memory.region_bytes t.stack in
  (* static r10-relative stack access: Some index when the whole access
     provably stays inside the stack buffer *)
  let stack_index off sz =
    let idx = stack_size + off in
    if idx >= 0 && idx + Insn.size_bytes sz <= stack_size then Some idx
    else None
  in
  let trap fmt = Printf.ksprintf (fun s () -> raise (Error s)) fmt in
  let emit_alu w op d src =
    let get = source src in
    let f = match w with Insn.W64bit -> alu64 op | Insn.W32bit -> alu32 op in
    fun () -> t.regs.(d) <- f t.regs.(d) (get ())
  in
  let emit_call id =
    match Hashtbl.find_opt t.helpers id with
    | None -> trap "call to unknown helper %d" id
    | Some f ->
      let args = Array.make 5 0L in
      fun () ->
        t.helper_calls <- t.helper_calls + 1;
        args.(0) <- t.regs.(1);
        args.(1) <- t.regs.(2);
        args.(2) <- t.regs.(3);
        args.(3) <- t.regs.(4);
        args.(4) <- t.regs.(5);
        t.regs.(0) <- f t args
  in
  (* one instruction as a unit closure (no metering — the block already
     charged for it) *)
  let emit_insn insn : unit -> unit =
    let dst_checked r =
      let d = Insn.reg_index r in
      if d = 10 then None else Some d
    in
    let r10_trap = trap "write to frame pointer r10" in
    match (insn : Insn.t) with
    | Alu (w, op, dst, src) -> (
      match dst_checked dst with
      | None -> r10_trap
      | Some d -> emit_alu w op d src)
    | Endian (e, dst, bits) -> (
      match dst_checked dst with
      | None -> r10_trap
      | Some d -> fun () -> t.regs.(d) <- endian_apply e bits t.regs.(d))
    | Lddw (dst, v) -> (
      match dst_checked dst with
      | None -> r10_trap
      | Some d -> fun () -> t.regs.(d) <- v)
    | Ldx (sz, dst, src, off) -> (
      match dst_checked dst with
      | None -> r10_trap
      | Some d -> (
        match (src, stack_index off sz) with
        | Insn.R10, Some idx -> (
          match sz with
          | Insn.W8 ->
            fun () -> t.regs.(d) <- Int64.of_int (Bytes.get_uint8 sbytes idx)
          | Insn.W16 ->
            fun () ->
              t.regs.(d) <- Int64.of_int (Bytes.get_uint16_le sbytes idx)
          | Insn.W32 ->
            fun () ->
              t.regs.(d) <-
                Int64.logand
                  (Int64.of_int32 (Bytes.get_int32_le sbytes idx))
                  0xFFFFFFFFL
          | Insn.W64 -> fun () -> t.regs.(d) <- Bytes.get_int64_le sbytes idx)
        | _ ->
          let s = Insn.reg_index src in
          let offl = Int64.of_int off in
          fun () -> (
            try t.regs.(d) <- Memory.load t.mem sz (Int64.add t.regs.(s) offl)
            with Memory.Fault m -> error "load: %s" m)))
    | St (sz, dst, off, imm) -> (
      let v = Int64.of_int32 imm in
      match (dst, stack_index off sz) with
      | Insn.R10, Some idx -> (
        match sz with
        | Insn.W8 ->
          let b = Int64.to_int v land 0xff in
          fun () -> Bytes.set_uint8 sbytes idx b
        | Insn.W16 ->
          let h = Int64.to_int v land 0xffff in
          fun () -> Bytes.set_uint16_le sbytes idx h
        | Insn.W32 ->
          let w = Int64.to_int32 v in
          fun () -> Bytes.set_int32_le sbytes idx w
        | Insn.W64 -> fun () -> Bytes.set_int64_le sbytes idx v)
      | _ ->
        let d = Insn.reg_index dst in
        let offl = Int64.of_int off in
        fun () -> (
          try Memory.store t.mem sz (Int64.add t.regs.(d) offl) v
          with Memory.Fault m -> error "store: %s" m))
    | Stx (sz, dst, off, src) -> (
      let s = Insn.reg_index src in
      match (dst, stack_index off sz) with
      | Insn.R10, Some idx -> (
        match sz with
        | Insn.W8 ->
          fun () -> Bytes.set_uint8 sbytes idx (Int64.to_int t.regs.(s) land 0xff)
        | Insn.W16 ->
          fun () ->
            Bytes.set_uint16_le sbytes idx (Int64.to_int t.regs.(s) land 0xffff)
        | Insn.W32 ->
          fun () -> Bytes.set_int32_le sbytes idx (Int64.to_int32 t.regs.(s))
        | Insn.W64 -> fun () -> Bytes.set_int64_le sbytes idx t.regs.(s))
      | _ ->
        let d = Insn.reg_index dst in
        let offl = Int64.of_int off in
        fun () -> (
          try Memory.store t.mem sz (Int64.add t.regs.(d) offl) t.regs.(s)
          with Memory.Fault m -> error "store: %s" m))
    | Call id -> emit_call id
    | Ja _ | Jcond _ | Exit ->
      (* terminators never appear in a block body *)
      trap "unreachable: terminator in block body"
  in
  let emit_uop : Block.uop -> unit -> unit = function
    | Plain insn -> emit_insn insn
    | Load_alu (ld, alu) ->
      let l = emit_insn ld and a = emit_insn alu in
      fun () ->
        l ();
        a ()
    | Movi_call (moves, id) ->
      let call = emit_call id in
      let rec chain = function
        | [] -> call
        | (d, v) :: rest ->
          let k = chain rest in
          fun () ->
            t.regs.(d) <- v;
            k ()
      in
      chain moves
  in
  let emit_term : Block.terminator -> unit -> int64 = function
    | Exit_ -> fun () -> t.regs.(0)
    | Jump target -> resolve target
    | Fall target -> resolve target
    | Branch (w, c, dst, src, taken, fall) ->
      let d = Insn.reg_index dst in
      let get = source src in
      let tk = resolve taken and fl = resolve fall in
      fun () -> if cond_holds w c t.regs.(d) (get ()) then tk () else fl ()
    | Alu_branch (alu, (w, c, dst, src, taken, fall)) ->
      let a = emit_insn alu in
      let d = Insn.reg_index dst in
      let get = source src in
      let tk = resolve taken and fl = resolve fall in
      fun () ->
        a ();
        if cond_holds w c t.regs.(d) (get ()) then tk () else fl ()
  in
  (* fuse the uop list and the terminator into one closure chain at
     compile time — no per-run loop, no separate terminator dispatch *)
  let rec seq fs term =
    match fs with
    | [] -> term
    | [ f ] ->
      fun () ->
        f ();
        term ()
    | [ f; g ] ->
      fun () ->
        f ();
        g ();
        term ()
    | f :: rest ->
      let r = seq rest term in
      fun () ->
        f ();
        r ()
  in
  Array.iteri
    (fun bid (b : Block.t) ->
      let body = seq (List.map emit_uop b.uops) (emit_term b.term) in
      let retired = b.retired and start = b.start in
      bfns.(bid) <-
        (fun () ->
          t.last_pc <- start;
          if t.budget < retired then interp_from t start
          else begin
            t.budget <- t.budget - retired;
            t.executed <- t.executed + retired;
            body ()
          end))
    blocks;
  (bfns, block_of_slot)

(** Create a VM for [program]. [mem] defaults to a fresh memory into which
    only the stack is mapped; callers add argument/heap regions as needed.
    Helpers are given as [(id, fn)] pairs; [engine] picks the execution
    engine (default [Interpreted]). *)
let create ?(budget = default_budget) ?(engine = Interpreted) ?mem ~helpers
    program =
  let mem = match mem with Some m -> m | None -> Memory.create () in
  let stack =
    (* zeroed, not [Bytes.create]: a program reading stack slots it never
       wrote must see deterministic zeros, not host allocation garbage *)
    Memory.add_region mem ~name:"stack" ~base:stack_base ~writable:true
      (Bytes.make stack_size '\x00')
  in
  let table = Hashtbl.create 17 in
  List.iter (fun (id, f) -> Hashtbl.replace table id f) helpers;
  let t =
    {
      mem;
      regs = Array.make 11 0L;
      helpers = table;
      program = slots_of_program program;
      stack;
      engine;
      budget;
      executed = 0;
      helper_calls = 0;
      last_pc = -1;
      blocks = [||];
      block_index = [||];
    }
  in
  (match engine with
  | Interpreted -> ()
  | Block ->
    let bfns, index = compile_blocks t in
    t.blocks <- bfns;
    t.block_index <- index);
  t

let engine t = t.engine

(** Execute the program from slot [entry] (default 0) until EXIT; the result
    is the final value of r0. A VM may be reused across runs (the xBGP VMM
    keeps one VM attached per insertion point): registers r0..r9 are zeroed
    on entry — callers set up arguments afterwards through [set_reg] or
    helpers — and r10 is (re)pointed at the top of the stack. *)
let run ?(entry = 0) t =
  let n = Array.length t.program in
  t.last_pc <- -1;
  Array.fill t.regs 0 10 0L;
  t.regs.(10) <-
    Int64.add (Memory.region_addr t.stack) (Int64.of_int stack_size);
  match t.engine with
  | Interpreted -> interp_from t entry
  | Block ->
    if entry < 0 || entry >= n then
      error "pc %d out of program (0..%d)" entry (n - 1);
    let bid = t.block_index.(entry) in
    (* a non-leader entry (possible only through an explicit [~entry])
       runs interpreted; block dispatch needs a leader *)
    if bid >= 0 then t.blocks.(bid) () else interp_from t entry
