(** An xBGP program: the deployable unit an operator ships to routers.

    One program groups several bytecodes (the GeoLoc use case of Fig. 2
    is four), the maps and the persistent scratch memory they share, and
    the helper whitelist the manifest declares for them. Bytecodes of the
    same program share state; distinct programs are fully isolated
    (§2.1). *)

type map_spec = Ebpf.Map.spec = {
  name : string;
  kind : Ebpf.Map.kind;
  key_size : int;
  value_size : int;
  max_entries : int;
}

val map :
  ?name:string ->
  ?kind:Ebpf.Map.kind ->
  ?max_entries:int ->
  ?shared:bool ->
  key_size:int ->
  value_size:int ->
  unit ->
  map_spec
(** Spec builder; defaults to an anonymous 1024-entry hash map
    (anonymous maps are named ["map<i>"] by {!v}). Not validated here —
    {!v} validates via {!Ebpf.Map.validate}. [shared] is accepted for
    source compatibility and ignored: every map is a single instance
    per program. *)

type t = {
  name : string;
  bytecodes : (string * Ebpf.Insn.t list) list;  (** entry name -> code *)
  maps : map_spec list;  (** referenced by index from bytecode *)
  scratch_size : int;  (** persistent memory shared by the bytecodes *)
  allowed_helpers : int list option;
      (** helper whitelist ([None] = unrestricted), enforced by the
          verifier at registration *)
}

val v :
  ?maps:map_spec list ->
  ?scratch_size:int ->
  ?allowed_helpers:int list ->
  name:string ->
  (string * Ebpf.Insn.t list) list ->
  t
(** @raise Invalid_argument on an empty bytecode list, an invalid map
    spec (see {!Ebpf.Map.validate}) or a negative scratch size. *)

val bytecode : t -> string -> Ebpf.Insn.t list option

val total_slots : t -> int
(** Total instruction slots across all bytecodes. *)

(** {1 Batch-dispatch analysis} *)

type dispatch_summary = {
  arg_reads : int list option;
      (** argument ids the bytecode may fetch through
          [h_get_arg]/[h_arg_len]; [None] = statically unresolvable
          (treat as "could read any argument") *)
  effectful : bool;
      (** the bytecode has per-call observable effects beyond its return
          value and its route-attribute edits: map writes, RIB
          injection, message-buffer writes, logging *)
  helpers : int list;
      (** every helper id the bytecode calls, in first-call order. The
          raw set behind [effectful]: consumers with a different notion
          of invariance (the update-group engine treats the batchable
          [h_get_peer_info] as disqualifying and the effectful
          [h_write_buf] as allowed at the encode point) start from
          here. *)
  map_reads : int list option;
      (** map indices possibly passed to [h_map_lookup]; [None] =
          statically unresolvable. Consumers need the indices because a
          lookup on an LRU map refreshes recency (a write in disguise)
          while hash/array lookups are pure. *)
  map_writes : int list option;
      (** map indices possibly passed to [h_map_update]/[h_map_delete];
          [None] = unresolvable. Anything but [Some []] makes the
          number of runs observable. *)
}

val batchable_helpers : int list
(** Helpers whose effect is confined to the run's return value, the
    ephemeral heap, or the shared route record — the whitelist behind
    [dispatch_summary.effectful]. *)

val dispatch_summary : Ebpf.Insn.t list -> dispatch_summary
(** Conservative linear scan of one bytecode. Hosts use it (through
    {!Vmm.batch_invariant}) to share one import verdict across every
    prefix of an UPDATE: sound because any unresolvable argument read
    degrades to [None] and any non-whitelisted helper call sets
    [effectful]. Note the summary ignores the program's persistent
    scratch — callers must treat any bytecode of a program with
    [scratch_size > 0] as effectful (scratch read/write cannot be told
    apart statically). *)
