(* Adj-RIB-Out: one prefix-keyed store per peer (RFC 4271 §3.2) of what
   has been advertised to it, which lets a daemon send implicit
   withdraws only when something actually changed. There is no
   Adj-RIB-In: the Loc-RIB candidates are the post-policy Adj-RIB-In
   (see [Pipeline]), and soft-reconfiguration inbound is not modelled.

   A running size counter makes [total] O(1): it is read from stats
   snapshots and [show rib] on every query, where folding [Ptrie.size]
   over each peer table was O(peers x prefixes). *)

type 'r t = {
  tables : (int, 'r Ptrie.t) Hashtbl.t;
  mutable total : int;  (** live bindings across every peer table *)
}

let create () = { tables = Hashtbl.create 8; total = 0 }

let table t peer =
  match Hashtbl.find_opt t.tables peer with
  | Some tr -> tr
  | None ->
    let tr = Ptrie.create () in
    Hashtbl.replace t.tables peer tr;
    tr

(** Store (or replace) the route for [p] learned from / sent to [peer];
    returns the previous route if any. *)
let set t ~peer p r =
  let prev = Ptrie.replace (table t peer) p r in
  if prev = None then t.total <- t.total + 1;
  prev

(** Remove the route for [p]; returns the removed route if any. *)
let clear t ~peer p =
  let prev = Ptrie.remove (table t peer) p in
  if prev <> None then t.total <- t.total - 1;
  prev

let find t ~peer p = Ptrie.find (table t peer) p

(** Drop the whole table of [peer] (session reset). *)
let drop_peer t peer =
  (match Hashtbl.find_opt t.tables peer with
  | Some tr -> t.total <- t.total - Ptrie.size tr
  | None -> ());
  Hashtbl.remove t.tables peer

let count_peer t ~peer = Ptrie.size (table t peer)

let peers t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tables []

(** Live bindings across every peer table. O(1). *)
let total t = t.total
