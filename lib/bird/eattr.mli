(** BIRD-style attribute storage: a generic list of [eattr] records whose
    payloads stay in wire form, with one flexible API over all of them —
    why the paper's BIRD xBGP adapter was the thinner one (§2.1: "BIRD
    includes a flexible API to manage BGP attributes. xBGP simply extends
    this API").

    Consequences reproduced here: converting to/from the neutral TLV and
    the native encoding are nearly free (the payload {e is} the
    network-byte-order payload), any code is carried uniformly, sets are
    hash-consed as BIRD's [ea_lookup] does, and scalar readers parse the
    payload on access (only the AS-path length is cached). *)

type t = { code : int; flags : int; payload : string }

(** An interned attribute set: eattrs sorted by code, unique per code,
    one physical record per distinct eattr list among live sets (a weak
    table holds them, so unreferenced sets are reclaimed). [hash] is the
    eattrs' stored hash. *)
type set = private {
  eattrs : t list;
  path_len : int;  (** cached AS-path length *)
  hash : int;
}

val empty : set

val interned_count : unit -> int
(** Live interned sets (dead ones leave at the next major collection). *)

val equal : set -> set -> bool
(** Physical equality, which interning makes set equality. *)

val remove_code : int -> set -> set
(** Drop one code; ORIGIN, AS_PATH and NEXT_HOP are mandatory and stay
    in place, as on the record-based host. *)

val find_code : int -> set -> t option

(** {1 Edits} — list-level rewrites. A multi-step policy step chains them
    inside one {!edit}, which interns once. *)

val edit : set -> (t list -> t list) -> set
(** [edit s f] is the one live set for the eattrs [f s.eattrs], which
    must stay sorted by code and unique per code (as {!upsert} and
    {!drop} keep them) with every known code's payload well-formed; [s]
    itself when [f] returns its argument unchanged. *)

val upsert : t -> t list -> t list
val drop : int -> t list -> t list
(** Returns the list itself when the code is absent. *)

val push_as : int -> t list -> t list
(** Prepend an ASN to the AS_PATH payload (extending a leading
    AS_SEQUENCE below 255 hops). *)

val push_cluster : int -> t list -> t list
(** Prepend a cluster id to the CLUSTER_LIST payload. *)

(** {1 Wire payload helpers} *)

val read_u32 : string -> int -> int
val u32_payload : int -> string
val path_length_of_payload : string -> int
val path_asns_of_payload : string -> int list

(** {1 From/to the shared codec} *)

val of_attrs : Bgp.Attr.t list -> set
(** Admit parsed attributes; unknown codes are dropped by the native
    parser (see module header), known ones get their RFC-default flags,
    an empty COMMUNITIES or CLUSTER_LIST is no attribute, and a repeated
    code keeps its last occurrence — all as the record-based host. *)

val to_attrs : set -> Bgp.Attr.t list
(** The known attributes decoded to the shared codec form. *)

val encode_known : Buffer.t -> set -> unit
(** The native encoder: appends the wire form of the known attributes,
    each stored payload copied behind its header (extended length when
    over 255 bytes). Byte-identical to [Bgp.Attr.encode_into_buffer]
    over {!to_attrs}. *)

(** {1 The xBGP adapter} — near-zero-cost TLV conversion *)

val get_tlv : set -> int -> bytes option
val set_tlv : set -> bytes -> set
(** A known code's payload is validated by the shared codec and stored
    with the code's RFC-default flags (an empty COMMUNITIES or
    CLUSTER_LIST removes the attribute); any other code is stored as
    given. @raise Invalid_argument on a malformed TLV. *)

(** {1 Scalar accessors} (parse on demand) *)

val origin : set -> int
val next_hop : set -> int
val med : set -> int
val local_pref : set -> int
val originator_id : set -> int
val cluster_list_len : set -> int
val path_asns : set -> int list
val neighbor_as : set -> int
val origin_as : set -> int option
val contains_as : set -> int -> bool

(** {1 Wire-level mutations} *)

val prepend_as : set -> int -> set
(** {!push_as}, interned. *)

val prepend_cluster : set -> int -> set
val append_community : set -> int -> set

(** {1 Benchmark entry points}

    Kept only because the repository benchmark calls them. No conversion
    cache exists: every {!to_attrs} decodes afresh. *)

val set_conversion_cache : bool -> unit
(** Ignored. *)

val conversion_cache_stats : unit -> int * int
(** Always [(0, 0)]: there are no cache hits or misses to count. *)

val reset_conversion_cache_stats : unit -> unit
(** Does nothing. *)
