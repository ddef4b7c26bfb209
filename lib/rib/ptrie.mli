(** A path-compressed binary trie (Patricia trie) keyed by IPv4 prefix.

    The workhorse behind the Loc-RIB and Adj-RIBs — and, deliberately,
    the data structure the FRR-like daemon uses for its native ROA store
    (§3.4 of the paper observes FRRouting "browses a dedicated trie for
    validated ROAs each time a prefix needs to be checked").

    Like FRR's [route_node] table, it holds one node per stored prefix
    plus one where two stored prefixes diverge, so a trie of n bindings
    has fewer than 2n nodes. A node packs its prefix into one immediate
    int (no [Bgp.Prefix.t] is kept) and holds its value unboxed; a glue
    node has no value field and a childless node no child fields, so n
    bindings of immediate values take at most 9n words. The walks that
    report bindings rebuild each prefix. Values are replaced in place;
    [remove] splices out the nodes a binding no longer needs, so memory
    follows the current size, not the history of inserts. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool

val replace : 'a t -> Bgp.Prefix.t -> 'a -> 'a option
(** Insert or replace a binding; returns the previous value. One walk
    from the root, inserting or not. *)

val find_or_add : 'a t -> Bgp.Prefix.t -> (Bgp.Prefix.t -> 'a) -> 'a
(** The value bound to a prefix, binding [make prefix] first when there
    is none; one walk either way. [make] must not raise. *)

val find : 'a t -> Bgp.Prefix.t -> 'a option
val mem : 'a t -> Bgp.Prefix.t -> bool

val remove : 'a t -> Bgp.Prefix.t -> 'a option
(** Remove a binding; returns the removed value. *)

val update : 'a t -> Bgp.Prefix.t -> ('a option -> 'a option) -> unit
(** Functional update: [f None] inserts, returning [None] removes. *)

val longest_match : ?max_len:int -> 'a t -> int -> (Bgp.Prefix.t * 'a) option
(** Most specific binding covering an address, searched down to
    [max_len] (default 32). *)

val iter : 'a t -> (Bgp.Prefix.t -> 'a -> unit) -> unit
(** In-order: prefixes by address, shorter first on a shared path. *)

val fold : 'a t -> (Bgp.Prefix.t -> 'a -> 'b -> 'b) -> 'b -> 'b
val to_list : 'a t -> (Bgp.Prefix.t * 'a) list

val covering : 'a t -> Bgp.Prefix.t -> (Bgp.Prefix.t -> 'a -> unit) -> unit
(** Visit every binding whose prefix covers the argument, least specific
    first. *)

val overlaps : 'a t -> Bgp.Prefix.t -> bool
(** Some binding covers the argument or lies inside it. *)
