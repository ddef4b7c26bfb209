(** FRRouting-style attribute storage: a fixed host-byte-order record
    with one field per known attribute, deduplicated ("interned") through
    a weak hash table so identical live attribute sets share one
    allocation.

    Nothing here is close to the wire format: every crossing of the xBGP
    boundary converts between this record and the neutral
    network-byte-order TLV — the conversion work that made the FRRouting
    adapter the larger of the two in the paper (§2.1).

    The [extra] field carries attributes "not defined by any standard" —
    the attribute API the paper's authors had to add to FRRouting. The
    native UPDATE parser still drops unknown attributes and the native
    encoder only emits known ones; recovering and re-emitting them is
    what the GeoLoc extension's receive/encode bytecodes are for. *)

type t = {
  origin : int;
  as_path : Bgp.Attr.segment list;
  as_path_len : int;  (** cached at intern time, like FRR *)
  next_hop : int;
  med : int option;
  local_pref : int option;
  atomic : bool;
  aggregator : (int * int) option;
  communities : int list;
  originator_id : int option;
  cluster_list : int list;
  extra : (int * int * string) list;
      (** (code, flags, payload) of non-standard attributes, sorted *)
}

val empty : t

val intern : t -> t
(** Canonicalize through the intern table (recomputes the cached path
    length). *)

val intern_table_size : unit -> int
(** Live interned records. The table holds them weakly: a record no
    route references is reclaimed by the collector. *)

val reset_intern_table : unit -> unit

val hash : t -> int
(** Full-structure hash (the stdlib polymorphic hash only explores a
    bounded number of nodes and collides badly on attribute records). *)

(** Hash tables keyed by {e interned} records (physical equality). *)
module Interned_tbl : Hashtbl.S with type key = t

val of_attrs : Bgp.Attr.t list -> t
(** Build (and intern) from parsed attributes; unknown attributes are
    dropped, as FRRouting's parser does. *)

val to_attrs : t -> Bgp.Attr.t list
(** The known attributes in canonical code order, for the native encoder;
    [extra] is deliberately not included. *)

(** {1 The xBGP adapter} — neutral TLV <-> interned record *)

val get_tlv : t -> int -> bytes option
(** Fetch one attribute as a neutral TLV, built from the host
    representation on every call — the FRR-side conversion cost. *)

val set_tlv : t -> bytes -> t
(** Install/replace an attribute from its TLV; parses, updates the record
    and re-interns. @raise Bgp.Attr.Parse_error *)

val remove : t -> int -> t
(** Drop one attribute and re-intern; ORIGIN, AS_PATH and NEXT_HOP are
    mandatory and stay in place. *)

val has_extra : t -> int -> bool

(** {1 Policy / decision accessors} *)

val local_pref_or_default : t -> int
val med_or_default : t -> int
val neighbor_as : t -> int
val origin_as : t -> int option
val contains_as : t -> int -> bool
val prepend_as : t -> int -> t

(** {1 Benchmark entry points}

    Kept only because the repository benchmark calls them. No conversion
    cache exists: every {!to_attrs} and {!get_tlv} converts afresh. *)

val set_conversion_cache : bool -> unit
(** Ignored. *)

val conversion_cache_stats : unit -> int * int
(** Always [(0, 0)]: there are no cache hits or misses to count. *)

val reset_conversion_cache_stats : unit -> unit
(** Does nothing. *)
