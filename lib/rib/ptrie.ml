(* A path-compressed binary trie (Patricia trie) keyed by IPv4 prefix.

   This is the workhorse behind the Loc-RIB, the Adj-RIB-Out and the
   update groups' RIBs, and it is also — deliberately — the data
   structure the FRR-like daemon uses for its native ROA store (§3.4
   of the paper observes FRRouting "browses a dedicated trie for
   validated ROAs each time a prefix needs to be checked", which the
   paper credits for the hash-based extension beating it).

   Every node carries its full key, so a chain of one-child bit nodes
   collapses into a single edge: a node exists for each stored prefix,
   plus one valueless "glue" node wherever two stored keys diverge (the
   layout of FRR's [route_node] table). Invariants:
   - a node's key covers every key in its subtree, and the subtree under
     [zero] ([one]) holds keys whose bit at the node's length is 0 (1);
   - a valueless node has two children, so every non-empty subtree
     holds at least one binding and a trie of n bindings has < 2n nodes.
   [remove] restores the second invariant by splicing nodes out, so a
   removed prefix gives its memory back.

   Walks test "does this node's key cover the search key" with one mask
   per step; leading common bits are only counted when an insert has to
   split an edge. *)

type 'a node =
  | Empty
  | Node of {
      mutable key : Bgp.Prefix.t;
          (** the caller's prefix; a trie-made copy only on glue nodes *)
      mutable value : 'a option;
      mutable zero : 'a node;  (** keys whose next bit is 0 *)
      mutable one : 'a node;
    }

type 'a t = { mutable root : 'a node; mutable size : int }

let create () = { root = Empty; size = 0 }
let size t = t.size
let is_empty t = t.size = 0

(* netmask of a prefix length: the top [len] of 32 bits *)
let mask len = (-1 lsl (32 - len)) land 0xFFFFFFFF

(* bit [i] (0 = most significant) of a 32-bit address *)
let bit addr i = (addr lsr (31 - i)) land 1

(* leading bits two 32-bit addresses share (32 when equal) *)
let common_bits a b =
  let x = ref ((a lxor b) land 0xFFFFFFFF) in
  if !x = 0 then 32
  else begin
    let n = ref 0 in
    if !x land 0xFFFF0000 = 0 then (n := !n + 16; x := !x lsl 16);
    if !x land 0xFF000000 = 0 then (n := !n + 8; x := !x lsl 8);
    if !x land 0xF0000000 = 0 then (n := !n + 4; x := !x lsl 4);
    if !x land 0xC0000000 = 0 then (n := !n + 2; x := !x lsl 2);
    if !x land 0x80000000 = 0 then incr n;
    !n
  end

(* Does key [k] cover [addr/len]? *)
let[@inline] covers k addr len =
  let klen = Bgp.Prefix.len k in
  klen <= len && (addr lxor Bgp.Prefix.addr k) land mask klen = 0

(* The node whose key is [addr/len] (valued or glue), or [Empty]. *)
let rec locate node addr len =
  match node with
  | Empty -> Empty
  | Node n ->
    let klen = Bgp.Prefix.len n.key in
    if not (covers n.key addr len) then Empty
    else if klen = len then node
    else locate (if bit addr klen = 0 then n.zero else n.one) addr len

(* A node for [p] hung where [node] was, [node] being neither keyed [p]
   nor covering it: above [node] when [p] covers it, else beside it
   under a glue node keyed where the two diverge. Returns [p]'s node,
   valueless, and the subtree's new root. *)
let graft node p =
  let fresh zero one = Node { key = p; value = None; zero; one } in
  match node with
  | Empty ->
    let leaf = fresh Empty Empty in
    (leaf, leaf)
  | Node n ->
    let addr = Bgp.Prefix.addr p and len = Bgp.Prefix.len p in
    let kaddr = Bgp.Prefix.addr n.key in
    let c = min (common_bits addr kaddr) (min len (Bgp.Prefix.len n.key)) in
    if c = len then
      let hit = if bit kaddr len = 0 then fresh node Empty else fresh Empty node in
      (hit, hit)
    else
      let leaf = fresh Empty Empty and key = Bgp.Prefix.v addr c in
      if bit addr c = 0 then (leaf, Node { key; value = None; zero = leaf; one = node })
      else (leaf, Node { key; value = None; zero = node; one = leaf })

(* The node keyed [p] = [addr/len] at or below [node] (a child of
   [parent]), grafted in when absent: one walk. A grafted node is
   valueless and may have fewer than two children, so the caller binds
   it at once. *)
let rec walk t p addr len parent node =
  match node with
  | Node n when covers n.key addr len ->
    let klen = Bgp.Prefix.len n.key in
    if klen = len then node
    else walk t p addr len node (if bit addr klen = 0 then n.zero else n.one)
  | _ ->
    let hit, sub = graft node p in
    (match parent with
    | Node pn ->
      if bit addr (Bgp.Prefix.len pn.key) = 0 then pn.zero <- sub
      else pn.one <- sub
    | Empty -> t.root <- sub);
    hit

let node_for t p = walk t p (Bgp.Prefix.addr p) (Bgp.Prefix.len p) Empty t.root

(* A valueless node keeps its place only with two children. *)
let collapse node =
  match node with
  | Node { value = None; zero = Empty; one = c; _ }
  | Node { value = None; zero = c; one = Empty; _ } ->
    c
  | _ -> node

(* Put [sub] where [node], [parent]'s child on [addr]'s side, was. *)
let relink t parent node sub addr =
  if sub != node then
    match parent with
    | Node pn ->
      if bit addr (Bgp.Prefix.len pn.key) = 0 then pn.zero <- sub
      else pn.one <- sub
    | Empty -> t.root <- sub

(* Drop the binding of [addr/len] at or below [node] (a child of
   [parent]) and splice out every node on the way back up that this
   leaves valueless with fewer than two children: one walk. Returns the
   dropped value; an absent key leaves the trie untouched. *)
let rec unlink t addr len parent node =
  match node with
  | Node n when covers n.key addr len ->
    let klen = Bgp.Prefix.len n.key in
    let old =
      if klen = len then begin
        let v = n.value in
        n.value <- None;
        v
      end
      else unlink t addr len node (if bit addr klen = 0 then n.zero else n.one)
    in
    (match old with
    | Some _ -> relink t parent node (collapse node) addr
    | None -> ());
    old
  | _ -> None

(* Bind a valueless node: a glue node, or one [node_for] grafted. *)
let bind t node p v =
  match node with
  | Node n ->
    n.key <- p;
    n.value <- Some v;
    t.size <- t.size + 1
  | Empty -> ()

(** Insert or replace the binding of [p]; returns the previous value. *)
let replace t p v =
  match node_for t p with
  | Node ({ value = Some _ as old; _ } as n) ->
    n.value <- Some v;
    old
  | node ->
    bind t node p v;
    None

(** The value bound to [p], binding [make p] first when there is none;
    one walk either way. *)
let find_or_add t p make =
  match node_for t p with
  | Node { value = Some v; _ } -> v
  | node ->
    let v = make p in
    bind t node p v;
    v

let find t p =
  match locate t.root (Bgp.Prefix.addr p) (Bgp.Prefix.len p) with
  | Node { value; _ } -> value
  | Empty -> None

let mem t p = find t p <> None

(** Remove the binding of [p]; returns the removed value. *)
let remove t p =
  let old = unlink t (Bgp.Prefix.addr p) (Bgp.Prefix.len p) Empty t.root in
  (match old with Some _ -> t.size <- t.size - 1 | None -> ());
  old

(** Update the binding of [p] through [f]; [f None] inserts, returning
    [None] from [f] removes. *)
let update t p f =
  match locate t.root (Bgp.Prefix.addr p) (Bgp.Prefix.len p) with
  | Node ({ value = Some _ as old; _ } as n) -> (
    match f old with Some _ as v -> n.value <- v | None -> ignore (remove t p))
  | _ -> ( match f None with Some v -> ignore (replace t p v) | None -> ())

(** Longest-prefix match: the most specific binding covering address
    [addr], searched down to [max_len] (default 32). *)
let longest_match ?(max_len = 32) t addr =
  let rec go node best =
    match node with
    | Empty -> best
    | Node n ->
      let k = n.key in
      let klen = Bgp.Prefix.len k in
      if klen > max_len || (addr lxor Bgp.Prefix.addr k) land mask klen <> 0
      then best
      else
        let best = match n.value with Some _ -> node | None -> best in
        if klen >= max_len then best
        else go (if bit addr klen = 0 then n.zero else n.one) best
  in
  match go t.root Empty with
  | Node { key; value = Some v; _ } -> Some (key, v)
  | _ -> None

(** In-order iteration: prefixes in (address, shorter-first) order — a
    node's key precedes its subtree, the [zero] side precedes [one]. *)
let iter t f =
  let rec go = function
    | Empty -> ()
    | Node n ->
      (match n.value with Some v -> f n.key v | None -> ());
      go n.zero;
      go n.one
  in
  go t.root

let fold t f acc =
  let rec go node acc =
    match node with
    | Empty -> acc
    | Node n ->
      let acc = match n.value with Some v -> f n.key v acc | None -> acc in
      go n.one (go n.zero acc)
  in
  go t.root acc

let to_list t =
  let rec go node acc =
    match node with
    | Empty -> acc
    | Node n -> (
      let acc = go n.zero (go n.one acc) in
      match n.value with Some v -> (n.key, v) :: acc | None -> acc)
  in
  go t.root []

(** [overlaps t p]: some binding covers [p] or lies inside [p] (i.e. the
    two prefixes share addresses). A non-empty subtree always holds a
    binding, so reaching one inside [p] answers [true]. *)
let overlaps t p =
  let addr = Bgp.Prefix.addr p and len = Bgp.Prefix.len p in
  let rec go = function
    | Empty -> false
    | Node n ->
      let k = n.key in
      let kaddr = Bgp.Prefix.addr k and klen = Bgp.Prefix.len k in
      if klen > len then (addr lxor kaddr) land mask len = 0
      else
        (addr lxor kaddr) land mask klen = 0
        && (klen = len
           || (match n.value with Some _ -> true | None -> false)
           || go (if bit addr klen = 0 then n.zero else n.one))
  in
  go t.root

(** All bindings on the path from the root to [p] (i.e. every prefix that
    covers [p]), least specific first. *)
let covering t p f =
  let addr = Bgp.Prefix.addr p and len = Bgp.Prefix.len p in
  let rec go = function
    | Empty -> ()
    | Node n ->
      let k = n.key in
      let klen = Bgp.Prefix.len k in
      if klen <= len && (addr lxor Bgp.Prefix.addr k) land mask klen = 0
      then begin
        (match n.value with Some v -> f k v | None -> ());
        if klen < len then go (if bit addr klen = 0 then n.zero else n.one)
      end
  in
  go t.root
