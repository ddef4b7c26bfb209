(** The deployment manifest (§2.1): the VMM "is initialized with a
    manifest containing the extension bytecodes and the points where they
    must be inserted [...] the manifest defines in which order they are
    executed".

    Bytecode artifacts are resolved by program name through a registry;
    the manifest is the small operator-editable text deciding what runs
    where:

    {v
# GeoLoc on the edge routers
program geoloc
map    geoloc visited hash 8 4 1024
attach geoloc receive BGP_RECEIVE_MESSAGE 0
attach geoloc import  BGP_INBOUND_FILTER  10
    v}

    Every program runs on the VMM's execution engine. [map] directives
    declare the name, kind ([hash]/[lru]/[array]) and sizes of the maps
    the operator is willing to host for a program. *)

type attachment = {
  program : string;
  bytecode : string;
  point : Api.point;
  order : int;
}

type t = {
  programs : string list;
  attachments : attachment list;
  maps : (string * Ebpf.Map.spec) list;
      (** per-program map declarations ([map] directives:
          [map <program> <name> <kind> <key> <value> <entries>], kind
          one of [hash]/[lru]/[array]); when a program has any, they
          replace the program's built-in specs at {!load} time *)
}

val empty : t

val v : programs:string list -> attachments:attachment list -> t
(** A manifest with no map declarations; see {!with_maps}. *)

val with_maps : (string * Ebpf.Map.spec) list -> t -> t
(** Replace the per-program map declarations. *)

val to_string : t -> string
val parse : string -> (t, string) result

val load :
  Vmm.t -> registry:(string -> Xprog.t option) -> t -> (unit, string) result
(** Register every listed program and attach its bytecodes. Stops at the
    first error, leaving earlier registrations in place. *)
