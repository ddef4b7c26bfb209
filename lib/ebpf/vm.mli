(** The eBPF interpreter.

    Faithful to the classic execution model: eleven 64-bit registers, a
    512-byte stack addressed through the read-only frame pointer r10,
    little-endian memory, trapping unsigned division by zero, and helper
    calls dispatched on the CALL immediate.

    Execution is metered by an instruction budget. Exhausting it, touching
    memory outside a granted region, or dividing by zero raises {!Error};
    the xBGP virtual machine manager catches the exception and falls back
    to the host's native code (§2.1 of the paper).

    A VM may be reused across runs — the xBGP VMM keeps one VM attached
    per insertion point; {!run} zeroes r0..r9 on entry. *)

exception Error of string

(** The execution engine: a classic interpreter, the reference oracle; or
    the basic-block pre-compiler, which decodes the program once into
    fused basic blocks, charges the instruction budget per block instead
    of per instruction, accesses statically-bounded r10 stack slots
    directly, and resolves helper calls at compile time. Both share the
    same semantics; the ablation bench measures the gap. *)
type engine = Interpreted | Block

val engine_name : engine -> string
(** ["interpreted"] or ["block"] — the names used by benches, telemetry
    labels and the fuzz oracle. *)

val all_engines : engine list
(** Every engine, in [Interpreted; Block] order — the set the
    differential oracle and the conformance suite quantify over. *)

type t

type helper = t -> int64 array -> int64
(** A helper receives the VM (for memory access) and the argument
    registers r1..r5; its result lands in r0. A helper may raise to abort
    the run (e.g. the xBGP [next()] control signal). *)

val default_budget : int
val stack_size : int
val stack_base : int64

val create :
  ?budget:int ->
  ?engine:engine ->
  ?mem:Memory.t ->
  helpers:(int * helper) list ->
  Insn.t list ->
  t
(** Create a VM for a program. [mem] defaults to a fresh memory; the
    512-byte stack region is always added to it. [engine] defaults to
    [Interpreted]. *)

val engine : t -> engine

val run : ?entry:int -> t -> int64
(** Execute from slot [entry] (default 0) until EXIT and return r0.
    Registers r0..r9 are zeroed on entry and r10 re-pointed at the stack
    top, so a VM can be reused. @raise Error on any fault. *)

val memory : t -> Memory.t
val reg : t -> Insn.reg -> int64
val set_reg : t -> Insn.reg -> int64 -> unit

val set_budget : t -> int -> unit
(** Refill the instruction budget (the VMM does this before each run). *)

val budget : t -> int
(** Remaining instruction budget — after a successful run, the headroom
    left over. *)

val fault_pc : t -> int option
(** Best-effort slot of the instruction being executed when the last run
    faulted: exact for [Interpreted] (and for [Block] once it has fallen
    back to the interpreter on budget exhaustion), the faulting block's
    leader for [Block], [None] before any run. Only meaningful right
    after {!run} raised. *)

val insn_at : t -> int -> Insn.t option
(** The decoded instruction at a slot ([None] out of range or on an LDDW
    pad slot) — lets fault reporters disassemble the faulting
    instruction. *)

val executed : t -> int
(** Instructions retired over the VM's lifetime. *)

val helper_calls : t -> int

(** Byte-swap primitives, exposed for helper implementations. *)

val bswap16 : int64 -> int64
val bswap32 : int64 -> int64
val bswap64 : int64 -> int64
