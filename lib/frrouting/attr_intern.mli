(** FRRouting-style attribute storage: a fixed host-byte-order record
    with one field per known attribute, deduplicated ("interned") through
    a hash table so identical attribute sets share one allocation.

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
  uid : int;
      (** unique id assigned at intern time (0 = not interned) — the
          conversion-cache key; records built with [{ t with ... }] keep
          their source's uid until re-interned, and the cache ignores
          uid 0 *)
}

val empty : t

val intern : t -> t
(** Canonicalize through the intern table (recomputes the cached path
    length). *)

val intern_table_size : unit -> int
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
(** Fetch one attribute as a neutral TLV (builds the wire form from the
    host representation — the FRR-side conversion cost). Probing for an
    absent attribute is answered from the record fields for free; with
    the conversion cache enabled each present attribute's TLV is built
    once per canonical record (lazily, per requested code) and served
    from the memo after that. The returned bytes are shared and must be
    treated as read-only. *)

(** {2 The conversion cache}

    Interned records are immutable and canonical, so interned-set ->
    neutral-TLV conversion is a pure function of the record's physical
    identity; the cache memoizes {!to_attrs} and the {!get_tlv} snapshot
    per canonical record. The mutation APIs ({!set_tlv}, {!remove},
    {!prepend_as}) invalidate their result's entry explicitly, and
    {!reset_intern_table} drops the whole cache. *)

val set_conversion_cache : bool -> unit
(** Enable/disable the memo (enabled by default). Disabling clears it,
    so re-enabling starts cold — what the bench ablation and the fuzz
    force-on/off runs use. *)

val set_cache_gate : bool -> unit
(** The attachment gate (default on): the daemon lowers it while its
    VMM has no attachment anywhere, so the pure-native baseline never
    pays for memo bookkeeping no extension can read. Composes with
    {!set_conversion_cache} (the memo runs only when both are on);
    unlike it, flipping the gate keeps the memo table, so a
    detach/re-attach cycle restarts warm. *)

val conversion_cache_enabled : unit -> bool

val conversion_cache_stats : unit -> int * int
(** [(hits, misses)] since the last {!reset_conversion_cache_stats}. *)

val reset_conversion_cache_stats : unit -> unit

val invalidate_conversion : t -> unit
(** Drop the memo entry for one record (mutation APIs call this on their
    result; exposed for hosts with out-of-band mutations). *)

val set_tlv : t -> bytes -> t
(** Install/replace an attribute from its TLV; parses, updates the record
    and re-interns. @raise Bgp.Attr.Parse_error *)

val remove : t -> int -> t
val has_extra : t -> int -> bool

(** {1 Policy / decision accessors} *)

val local_pref_or_default : t -> int
val med_or_default : t -> int
val neighbor_as : t -> int
val origin_as : t -> int option
val contains_as : t -> int -> bool
val prepend_as : t -> int -> t
