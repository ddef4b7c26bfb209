(** Static checks performed before bytecode may be attached to an
    insertion point — the structural subset of the Linux verifier that
    matters for an interpreter with fully bounds-checked memory:

    - every jump lands on an instruction boundary inside the program;
    - control flow cannot fall off the end;
    - every instruction is reachable from the entry (dead code is
      rejected, as in the kernel verifier);
    - the frame pointer r10 is never written;
    - helper calls are restricted to the manifest's whitelist;
    - immediate division/modulo by zero is rejected;
    - the program fits {!max_insns}.

    The same path walk that proves reachability yields the program's
    {!facts}: what each reachable helper call receives in r1.

    Dynamic properties (memory safety, termination) are enforced at run
    time by {!Memory} bounds checks and the {!Vm} instruction budget. *)

type error = { slot : int; message : string }

val pp_error : Format.formatter -> error -> unit

val max_insns : int

type call_site = {
  slot : int;
  helper : int;  (** helper id *)
  r1 : int64 option;
      (** r1's 64-bit value at the call when every path reaching it
          carries the same constant ([mov r1, imm] or [lddw r1, imm]
          since the last write); [None] otherwise *)
}

type facts = call_site list
(** Every reachable [Call], in slot order. *)

val check : ?allowed_helpers:int list -> Insn.t list -> (facts, error list) result
(** Verify a program; [allowed_helpers] is the manifest whitelist ([None]
    = all helpers allowed). *)
