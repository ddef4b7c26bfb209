(** The Loc-RIB: per prefix, the candidate routes contributed by each
    peer and the current best under the decision process. Updates are
    incremental: a daemon feeds the post-import-filter route (or a
    withdrawal) and learns whether the best changed — which drives
    re-advertisement towards the Adj-RIB-Out side. *)

type 'r t

type 'r change =
  | Unchanged
  | New_best of 'r  (** best route (re)selected for the prefix *)
  | Withdrawn  (** no candidate left for the prefix *)

val create : 'r Decision.view -> 'r t

val set_compare : 'r t -> ('r -> 'r -> int) option -> unit
(** Override the route order — the hook behind the xBGP BGP_DECISION
    insertion point. [None] restores the RFC 4271 decision process.
    Affects subsequent updates only. *)

val invalidate_best : 'r t -> unit
(** Signal that the installed compare closure's behaviour may have
    changed behind the RIB's back (e.g. a BGP_DECISION chain was
    attached or detached inside it). The incumbent fast path skips the
    full re-selection fold while the route order is stable; after this
    call each prefix re-selects in full on its next update. *)

val update : 'r t -> peer:int -> Bgp.Prefix.t -> 'r option -> 'r change
(** Replace ([Some r]) or withdraw ([None]) the candidate contributed by
    [peer] for a prefix. *)

val best : 'r t -> Bgp.Prefix.t -> 'r option
val best_with_peer : 'r t -> Bgp.Prefix.t -> (int * 'r) option
val candidates : 'r t -> Bgp.Prefix.t -> (int * 'r) list

val has_candidate : 'r t -> peer:int -> Bgp.Prefix.t -> bool
(** [peer] contributes a candidate for the prefix. *)

val peer_prefixes : 'r t -> peer:int -> Bgp.Prefix.t list
(** Every prefix [peer] contributes a candidate for, last prefix first
    (the reverse of {!iter_best}'s order): what a session reset
    withdraws, found by one walk over the table. *)

val count : 'r t -> int
(** Number of prefixes that currently have a best route. O(1). *)

val iter_best : 'r t -> (Bgp.Prefix.t -> 'r -> unit) -> unit
val fold_best : 'r t -> (Bgp.Prefix.t -> 'r -> 'b -> 'b) -> 'b -> 'b
