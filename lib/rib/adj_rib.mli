(** Adj-RIB-Out: one prefix-keyed store per peer (RFC 4271 §3.2) of what
    was advertised to it, enabling implicit-withdraw suppression. The
    daemons keep no separate Adj-RIB-In: their Loc-RIB candidates are the
    post-policy Adj-RIB-In, one record per (prefix, peer) as in FRR and
    BIRD, and soft-reconfiguration inbound (a pre-policy copy) is not
    modelled. *)

type 'r t

val create : unit -> 'r t

val set : 'r t -> peer:int -> Bgp.Prefix.t -> 'r -> 'r option
(** Store (or replace) a route; returns the previous one. *)

val clear : 'r t -> peer:int -> Bgp.Prefix.t -> 'r option
(** Remove a route; returns the removed one. *)

val find : 'r t -> peer:int -> Bgp.Prefix.t -> 'r option

val drop_peer : 'r t -> int -> unit
(** Drop a peer's whole table (session reset). *)

val count_peer : 'r t -> peer:int -> int
val peers : 'r t -> int list
val total : 'r t -> int
(** Live bindings across every peer table. O(1) — maintained as a
    running counter rather than folded over the peer tables. *)
