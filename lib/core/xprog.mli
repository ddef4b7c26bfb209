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
