(** eBPF maps: persistent state store behind the map helpers.

    Keys and values cross the boundary as immutable [string]s, so map
    entries never alias bytecode-visible VM memory. Each map keeps its
    own operation counters for telemetry export. *)

type kind =
  | Hash  (** bounded hash table; insert into a full table fails *)
  | Lru
      (** hash table that evicts the least-recently-used entry when
          full; recency is refreshed by lookups {e and} updates, which
          makes lookups stateful *)
  | Per_peer_array
      (** [max_entries] zero-initialised slots indexed by a u32
          little-endian key; in-range slots always exist *)

val kind_name : kind -> string
val kind_of_name : string -> kind option

type spec = {
  name : string;
  kind : kind;
  key_size : int;
  value_size : int;
  max_entries : int;
}

val max_key_size : int
val max_value_size : int
val max_max_entries : int

val validate : spec -> (unit, string) result
(** Size/name bounds; array maps additionally require [key_size = 4]. *)

type stats = {
  mutable lookups : int;
  mutable hits : int;
  mutable updates : int;
  mutable deletes : int;
  mutable evictions : int;
  mutable rejected : int;
      (** inserts of a new key refused because a [Hash] map was full *)
}

type t

val create : spec -> t
(** @raise Invalid_argument when {!validate} rejects the spec. *)

val spec : t -> spec
val stats : t -> stats

val lookup : t -> string -> string option
(** [None] on wrong-size key, absent hash/LRU key, or out-of-range
    array index. Refreshes LRU recency on hit. *)

val update : t -> string -> string -> bool
(** [false] on wrong-size key/value, a full [Hash] map (new key), or an
    out-of-range array index. [Lru] evicts instead of failing. *)

val delete : t -> string -> bool
(** [false] when nothing was deleted. Array delete zeroes the slot and
    succeeds only when the slot held a non-zero value. *)

val length : t -> int
(** Live entries; for array maps, the number of non-zero slots. *)

val dump : t -> (string * string) list
(** Canonical contents for the fuzz oracles: entries sorted by key
    bytes; array maps report non-zero slots only (key rendered as the
    4-byte LE index). Recency ticks are excluded on purpose. *)

val clear : t -> unit
(** Drop all entries (stats are preserved). *)

val pp_spec : Format.formatter -> spec -> unit
