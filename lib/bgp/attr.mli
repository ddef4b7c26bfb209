(** BGP path attributes (RFC 4271 §4.3, route-reflection attributes from
    RFC 4456, 32-bit AS numbers per RFC 6793).

    Two representations coexist:
    - the typed view {!t} used by daemon code;
    - the {e neutral} TLV form (flag byte, code byte, 16-bit big-endian
      length, payload in network byte order) that crosses the xBGP API
      boundary — "the neutral xBGP representation" of §2.1 of the
      paper. *)

(** {1 Attribute type codes} *)

val code_origin : int
val code_as_path : int
val code_next_hop : int
val code_med : int
val code_local_pref : int
val code_atomic_aggregate : int
val code_aggregator : int
val code_communities : int
val code_originator_id : int
val code_cluster_list : int

(** {1 Flag bits} *)

val flag_optional : int
val flag_transitive : int
val flag_partial : int
val flag_extended : int

type origin = Igp | Egp | Incomplete

val origin_code : origin -> int
val origin_of_code : int -> origin option
val pp_origin : Format.formatter -> origin -> unit

(** An AS-path segment; ASNs are 32-bit. *)
type segment = Seq of int list | Set of int list

type value =
  | Origin of origin
  | As_path of segment list
  | Next_hop of int  (** IPv4 address as int *)
  | Med of int
  | Local_pref of int
  | Atomic_aggregate
  | Aggregator of int * int  (** ASN, router id *)
  | Communities of int list  (** 32-bit community values *)
  | Originator_id of int
  | Cluster_list of int list
  | Unknown of { code : int; payload : bytes }
      (** any attribute this codec does not interpret *)

type t = { flags : int; value : value }

exception Parse_error of string

val v : value -> t
(** Wrap a value with its RFC-default flags. *)

val with_flags : int -> value -> t
val code : t -> int
val code_of_value : value -> int
val default_flags : value -> int
val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order on the neutral wire form: attribute code, then flags,
    then payload bytes. *)

val sort_canonical : t list -> t list
(** Sort by {!compare} — the canonical attribute-list shape used when
    comparing routes produced by different hosts. *)

val pp : Format.formatter -> t -> unit

(** {1 AS-path helpers} *)

val as_path_length : segment list -> int
(** Path length as used by the decision process: an AS_SET counts 1. *)

val as_path_asns : segment list -> int list
(** All ASNs in the path, leftmost first. *)

val as_path_prepend : int -> segment list -> segment list
(** Prepend an ASN: a leading AS_SEQUENCE is extended below 255 ASNs,
    else a new one starts (the wire count is one byte). *)

val as_path_first : segment list -> int option
(** Leftmost ASN — the neighbouring AS. *)

val as_path_origin : segment list -> int option
(** Rightmost ASN — the origin AS. *)

(** {1 Wire form} *)

val encode_payload : value -> bytes
(** The network-byte-order payload of an attribute value. *)

val decode_payload : code:int -> flags:int -> bytes -> t
(** Decode a payload given its attribute code; unrecognized codes become
    [Unknown]. @raise Parse_error on malformed known attributes. *)

val encode_into_buffer : Buffer.t -> t -> unit
(** Append the full wire form (flags, code, length, payload); the
    extended-length flag is set automatically for payloads over 255
    bytes. *)

val decode_from : bytes -> int -> int -> t * int
(** [decode_from buf pos limit] decodes one attribute; returns it and the
    next position. @raise Parse_error *)

(** {1 Neutral xBGP TLV}: flags(1) code(1) length(2, big-endian)
    payload. *)

val to_tlv : t -> bytes
val of_tlv : bytes -> t
(** @raise Parse_error *)

(**/**)

(* low-level readers shared with tests *)
val get_u8 : bytes -> int -> int -> int
val get_u32 : bytes -> int -> int -> int
