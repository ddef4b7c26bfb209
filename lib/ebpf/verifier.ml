(* Static checks performed before bytecode may be attached to an insertion
   point. These mirror the structural subset of the Linux verifier that
   matters for an interpreter with fully bounds-checked memory:

   - every jump lands on an instruction boundary inside the program;
   - control flow cannot fall off the end of the program;
   - every instruction is reachable from the entry slot (the kernel
     verifier's dead-code rejection);
   - the frame pointer r10 is never written;
   - helper calls are restricted to the whitelist from the manifest
     (the paper's manifest "lists the different xBGP API functions that
     the bytecode uses");
   - immediate division/modulo by zero is rejected outright;
   - the program fits the size limit.

   The reachability walk also yields the program's facts: every reachable
   helper call with the constant r1 (the first argument register) carries
   into it. Callers that know what a helper's first argument means (an
   argument id, a map index) read them; this library does not.

   Dynamic properties (memory safety, termination) are enforced at run
   time by [Memory] bounds checks and the [Vm] instruction budget. *)

type error = { slot : int; message : string }

let pp_error ppf { slot; message } = Fmt.pf ppf "slot %d: %s" slot message

let max_insns = 65536

type call_site = { slot : int; helper : int; r1 : int64 option }
type facts = call_site list

(* r1 on entry to an instruction, joined over every path reaching it *)
type r1 = Unvisited | Const of int64 | Unknown

let writes_r10 (i : Insn.t) =
  match i with
  | Alu (_, _, R10, _) | Endian (_, R10, _) | Lddw (R10, _) | Ldx (_, R10, _, _)
    ->
    true
  | _ -> false

(* r1 after [i], given r1 before it. R1–R5 are caller-saved, so a call
   leaves r1 unknown; so does any write this analysis does not fold. *)
let r1_after (i : Insn.t) r1 =
  match i with
  | Alu (W64bit, Mov, R1, Imm v) -> Const (Int64.of_int32 v)
  | Alu (W32bit, Mov, R1, Imm v) ->
    Const (Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL)
  | Lddw (R1, v) -> Const v
  | Alu (_, _, R1, _) | Endian (_, R1, _) | Ldx (_, R1, _, _) | Call _ ->
    Unknown
  | _ -> r1

(** [check ?allowed_helpers prog] verifies [prog]; [allowed_helpers] is the
    manifest whitelist ([None] = all helpers allowed). *)
let check ?allowed_helpers (prog : Insn.t list) : (facts, error list) result =
  let errors = ref [] in
  let err slot fmt =
    Printf.ksprintf (fun message -> errors := { slot; message } :: !errors) fmt
  in
  let nslots = List.fold_left (fun a i -> a + Insn.slots i) 0 prog in
  if prog = [] then err 0 "empty program";
  if nslots > max_insns then
    err 0 "program too large: %d slots (max %d)" nslots max_insns;
  let insns = Array.of_list prog in
  (* slot of the i-th instruction, and instruction index at a slot (-1
     inside an lddw) *)
  let index_at = Array.make (max nslots 1) (-1) in
  let slot_of = Array.make (Array.length insns) 0 in
  ignore
    (Array.fold_left
       (fun (idx, slot) i ->
         index_at.(slot) <- idx;
         slot_of.(idx) <- slot;
         (idx + 1, slot + Insn.slots i))
       (0, 0) insns);
  let check_target slot off =
    let tgt = slot + 1 + off in
    if tgt < 0 || tgt >= nslots then
      err slot "jump target %d outside program" tgt
    else if index_at.(tgt) < 0 then
      err slot "jump target %d lands inside lddw" tgt
  in
  Array.iteri
    (fun idx (i : Insn.t) ->
      let slot = slot_of.(idx) in
      if writes_r10 i then err slot "write to frame pointer r10";
      (match i with
      | Ja off -> check_target slot off
      | Jcond (_, _, _, _, off) ->
        check_target slot off;
        (* fall-through must stay in range *)
        if slot + 1 >= nslots then err slot "conditional jump at end"
      | Call id -> (
        match allowed_helpers with
        | Some allowed when not (List.mem id allowed) ->
          err slot "helper %d not in manifest whitelist" id
        | _ -> ())
      | Alu (_, Div, _, Imm 0l) -> err slot "division by zero immediate"
      | Alu (_, Mod, _, Imm 0l) -> err slot "modulo by zero immediate"
      | Endian (_, _, bits) ->
        if bits <> 16 && bits <> 32 && bits <> 64 then
          err slot "invalid endian width %d" bits
      | _ -> ());
      (* no fall-off: any instruction whose successor would be past the
         end must be an exit or an unconditional jump *)
      match i with
      | Exit | Ja _ -> ()
      | _ ->
        if slot + Insn.slots i >= nslots then
          err slot "control flow falls off the end of the program")
    insns;
  (* The path walk, only meaningful once every edge is sound: a worklist
     over instruction indices, each holding r1 on entry. At a join a
     constant survives only when every incoming edge carries it; each
     state can only move Unvisited -> Const -> Unknown, so loops
     terminate. An index never visited is unreachable. *)
  let state = Array.make (Array.length insns) Unvisited in
  if !errors = [] then begin
    let work = ref [] in
    let flow idx v =
      let old = state.(idx) in
      let joined = if old = Unvisited || old = v then v else Unknown in
      if joined <> old then begin
        state.(idx) <- joined;
        work := idx :: !work
      end
    in
    flow 0 Unknown;
    while !work <> [] do
      let idx = List.hd !work in
      work := List.tl !work;
      let i = insns.(idx) in
      let out = r1_after i state.(idx) in
      let target off = index_at.(slot_of.(idx) + 1 + off) in
      match i with
      | Exit -> ()
      | Ja off -> flow (target off) out
      | Jcond (_, _, _, _, off) ->
        flow (target off) out;
        flow (idx + 1) out
      | _ -> flow (idx + 1) out
    done;
    Array.iteri
      (fun idx s ->
        if s = Unvisited then err slot_of.(idx) "unreachable instruction")
      state
  end;
  match !errors with
  | _ :: _ as es -> Error (List.rev es)
  | [] ->
    Ok
      (Array.to_seqi insns
      |> Seq.filter_map (fun (idx, (i : Insn.t)) ->
             match i with
             | Call helper ->
               let r1 = match state.(idx) with Const v -> Some v | _ -> None in
               Some { slot = slot_of.(idx); helper; r1 }
             | _ -> None)
      |> List.of_seq)
