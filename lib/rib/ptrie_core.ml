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
   - a glue node has two children and a [Node] at least one (a valued
     node without children is a [Tip]), so every non-empty subtree
     holds at least one binding and a trie of n bindings has < 2n
     nodes.
   [remove] restores the second invariant by splicing nodes out, so a
   removed prefix gives its memory back.

   Nodes are compact, since a RIB holds one per prefix and a daemon
   several RIBs: the key is one immediate int ([addr lsl 6 lor len], no
   [Bgp.Prefix.t] is kept), a valued node holds its value unboxed, and
   each node kind carries only the fields it uses: a childless valued
   node (a tip, most bindings of a routing table) has 2 fields, a glue
   node 3 and a valued node with children 4. A trie of n immediate
   values thus takes at most 9n words. Binding a glue node, hanging a
   child under a tip, or unbinding a node rebuilds that one node and
   relinks it; the walks that report bindings rebuild each
   [Bgp.Prefix.t].

   Walks test "does this node's key cover the search key" with one mask
   per step; leading common bits are only counted when an insert has to
   split an edge.

   This module is private to the RIB library. {!Ptrie} is its public
   face; the Loc-RIB and the update groups also use the lookups below
   that report absence by raising instead of through an option, so
   their hot paths allocate nothing. *)

type 'a node =
  | Empty
  | Tip of { key : int; mutable value : 'a }  (** a valued node, childless *)
  | Glue of {
      key : int;
      mutable zero : 'a node;  (** keys whose next bit is 0 *)
      mutable one : 'a node;
    }
  | Node of {
      key : int;
      mutable value : 'a;
      mutable zero : 'a node;
      mutable one : 'a node;  (** one of the two children is not [Empty] *)
    }

type 'a t = { mutable root : 'a node; mutable size : int }

let create () = { root = Empty; size = 0 }
let size t = t.size
let is_empty t = t.size = 0

(* a key packs a normalized prefix: address above, length in 6 bits *)
let[@inline] pack addr len = (addr lsl 6) lor len
let[@inline] key_len k = k land 63
let[@inline] key_addr k = k lsr 6
let prefix_of k = Bgp.Prefix.v (key_addr k) (key_len k)

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
  let klen = key_len k in
  klen <= len && (addr lxor key_addr k) land mask klen = 0

(* the value of a valued node *)
let value_of = function
  | Tip tp -> tp.value
  | Node n -> n.value
  | Empty | Glue _ -> assert false

let set_value node v =
  match node with
  | Tip tp -> tp.value <- v
  | Node n -> n.value <- v
  | Empty | Glue _ -> assert false

(* The node whose key is [addr/len] (valued or glue), or [Empty]. *)
let rec locate node addr len =
  match node with
  | Empty -> Empty
  | Tip { key; _ } ->
    if covers key addr len && key_len key = len then node else Empty
  | Glue { key; zero; one } | Node { key; zero; one; _ } ->
    let klen = key_len key in
    if not (covers key addr len) then Empty
    else if klen = len then node
    else locate (if bit addr klen = 0 then zero else one) addr len

(* Put [sub] in [parent]'s child slot on [addr]'s side ([parent] is
   [Empty] at the root). *)
let set_child t parent addr sub =
  match parent with
  | Empty -> t.root <- sub
  | Glue g ->
    if bit addr (key_len g.key) = 0 then g.zero <- sub else g.one <- sub
  | Node n ->
    if bit addr (key_len n.key) = 0 then n.zero <- sub else n.one <- sub
  | Tip _ -> assert false

(* The subtree that replaces [node] once [key] = [addr/len] is bound to
   [v] there, [node] being neither keyed [addr/len] nor covering it: the
   new node above [node] when it covers [node], else a tip beside it
   under a glue node keyed where the two diverge. *)
let graft node key addr len v =
  match node with
  | Empty -> Tip { key; value = v }
  | Tip { key = k; _ } | Glue { key = k; _ } | Node { key = k; _ } ->
    let kaddr = key_addr k in
    let c = min (common_bits addr kaddr) (min len (key_len k)) in
    if c = len then
      if bit kaddr len = 0 then
        Node { key; value = v; zero = node; one = Empty }
      else Node { key; value = v; zero = Empty; one = node }
    else
      let leaf = Tip { key; value = v } in
      let key = pack (addr land mask c) c in
      if bit addr c = 0 then Glue { key; zero = leaf; one = node }
      else Glue { key; zero = node; one = leaf }

(* The valued node keyed [p] = [addr/len] at or below [node] (a child of
   [parent]), bound to [make arg p] first when [p] has no value: one
   walk. A glue node keyed [p] is rebuilt as a valued one, and a tip
   above [p] as a node with [p]'s tip as its child; otherwise the new
   node is grafted where the walk leaves the trie. [make] is a closed
   function of [arg], so a caller passing its value allocates no
   closure. *)
let rec bind_at t p key addr len make arg parent node =
  match node with
  | Tip tp when covers tp.key addr len ->
    let klen = key_len tp.key in
    if klen = len then node
    else begin
      let leaf = Tip { key; value = make arg p } in
      let key = tp.key and value = tp.value in
      set_child t parent addr
        (if bit addr klen = 0 then Node { key; value; zero = leaf; one = Empty }
         else Node { key; value; zero = Empty; one = leaf });
      t.size <- t.size + 1;
      leaf
    end
  | Node n when covers n.key addr len ->
    let klen = key_len n.key in
    if klen = len then node
    else
      bind_at t p key addr len make arg node
        (if bit addr klen = 0 then n.zero else n.one)
  | Glue g when covers g.key addr len ->
    let klen = key_len g.key in
    if klen = len then begin
      let fresh =
        Node { key; value = make arg p; zero = g.zero; one = g.one }
      in
      set_child t parent addr fresh;
      t.size <- t.size + 1;
      fresh
    end
    else
      bind_at t p key addr len make arg node
        (if bit addr klen = 0 then g.zero else g.one)
  | _ -> (
    let sub = graft node key addr len (make arg p) in
    set_child t parent addr sub;
    t.size <- t.size + 1;
    match sub with
    | Glue g -> if bit addr (key_len g.key) = 0 then g.zero else g.one
    | _ -> sub)

let bind t p make arg =
  let addr = Bgp.Prefix.addr p and len = Bgp.Prefix.len p in
  bind_at t p (pack addr len) addr len make arg Empty t.root

(** Insert or replace the binding of [p]; returns the previous value. *)
let replace t p v =
  let size = t.size in
  let node = bind t p (fun v _ -> v) v in
  (* [bind] grew the trie when [p] had no value, and then bound [v] *)
  if t.size = size then begin
    let old = value_of node in
    set_value node v;
    Some old
  end
  else None

(** The value bound to [p], binding [make p] first when there is none;
    one walk either way. *)
let find_or_add t p make = value_of (bind t p (fun make p -> make p) make)

(** The value bound to [p]. @raise Not_found when there is none. *)
let find_exn t p =
  match locate t.root (Bgp.Prefix.addr p) (Bgp.Prefix.len p) with
  | (Tip _ | Node _) as node -> value_of node
  | Empty | Glue _ -> raise_notrace Not_found

let find t p =
  match locate t.root (Bgp.Prefix.addr p) (Bgp.Prefix.len p) with
  | (Tip _ | Node _) as node -> Some (value_of node)
  | Empty | Glue _ -> None

let mem t p =
  match locate t.root (Bgp.Prefix.addr p) (Bgp.Prefix.len p) with
  | Tip _ | Node _ -> true
  | Empty | Glue _ -> false

(* What takes the place of a node that may have lost a child: for a
   glue node left with one child, that child; for a valued node left
   with none, a tip. *)
let collapse node =
  match node with
  | Glue { zero = Empty; one = c; _ } | Glue { zero = c; one = Empty; _ } -> c
  | Node { key; value; zero = Empty; one = Empty } -> Tip { key; value }
  | _ -> node

(* Drop the binding of [addr/len] at or below [node] (a child of
   [parent]) and, on the way back up, replace every node this leaves
   with too few children: one walk. Returns the unbound node, or
   [Empty] when [addr/len] has no value; an absent key leaves the trie
   untouched. *)
let rec unlink t addr len parent node =
  match node with
  | Tip tp when covers tp.key addr len && key_len tp.key = len ->
    set_child t parent addr Empty;
    node
  | Node n when covers n.key addr len && key_len n.key = len ->
    set_child t parent addr
      (match (n.zero, n.one) with
      | Empty, c | c, Empty -> c
      | zero, one -> Glue { key = n.key; zero; one });
    node
  | (Glue { key; zero; one } | Node { key; zero; one; _ })
    when covers key addr len && key_len key < len ->
    let hit =
      unlink t addr len node (if bit addr (key_len key) = 0 then zero else one)
    in
    (match hit with
    | Tip _ | Node _ ->
      let sub = collapse node in
      if sub != node then set_child t parent addr sub
    | Empty | Glue _ -> ());
    hit
  | _ -> Empty

let unbind t p =
  match unlink t (Bgp.Prefix.addr p) (Bgp.Prefix.len p) Empty t.root with
  | (Tip _ | Node _) as hit ->
    t.size <- t.size - 1;
    hit
  | hit -> hit

(** Remove the binding of [p]; returns the removed value. *)
let remove t p =
  match unbind t p with
  | (Tip _ | Node _) as hit -> Some (value_of hit)
  | Empty | Glue _ -> None

(** Remove the binding of [p]; returns the removed value.
    @raise Not_found when there is none. *)
let remove_exn t p =
  match unbind t p with
  | (Tip _ | Node _) as hit -> value_of hit
  | Empty | Glue _ -> raise_notrace Not_found

(** Update the binding of [p] through [f]; [f None] inserts, returning
    [None] from [f] removes. *)
let update t p f =
  match locate t.root (Bgp.Prefix.addr p) (Bgp.Prefix.len p) with
  | (Tip _ | Node _) as node -> (
    match f (Some (value_of node)) with
    | Some v -> set_value node v
    | None -> ignore (unbind t p))
  | Empty | Glue _ -> (
    match f None with Some v -> ignore (replace t p v) | None -> ())

(** Longest-prefix match: the most specific binding covering address
    [addr], searched down to [max_len] (default 32). *)
let longest_match ?(max_len = 32) t addr =
  let rec go node best =
    match node with
    | Empty -> best
    | Tip { key; _ } ->
      let klen = key_len key in
      if klen <= max_len && (addr lxor key_addr key) land mask klen = 0 then
        node
      else best
    | Glue { key; zero; one } | Node { key; zero; one; _ } ->
      let klen = key_len key in
      if klen > max_len || (addr lxor key_addr key) land mask klen <> 0 then
        best
      else
        let best = match node with Node _ -> node | _ -> best in
        if klen >= max_len then best
        else go (if bit addr klen = 0 then zero else one) best
  in
  match go t.root Empty with
  | Tip { key; value } | Node { key; value; _ } -> Some (prefix_of key, value)
  | Empty | Glue _ -> None

(** In-order iteration: prefixes in (address, shorter-first) order — a
    node's key precedes its subtree, the [zero] side precedes [one]. *)
let iter t f =
  let rec go = function
    | Empty -> ()
    | Tip tp -> f (prefix_of tp.key) tp.value
    | Glue g ->
      go g.zero;
      go g.one
    | Node n ->
      f (prefix_of n.key) n.value;
      go n.zero;
      go n.one
  in
  go t.root

let fold t f acc =
  let rec go node acc =
    match node with
    | Empty -> acc
    | Tip tp -> f (prefix_of tp.key) tp.value acc
    | Glue g -> go g.one (go g.zero acc)
    | Node n -> go n.one (go n.zero (f (prefix_of n.key) n.value acc))
  in
  go t.root acc

let to_list t =
  let rec go node acc =
    match node with
    | Empty -> acc
    | Tip tp -> (prefix_of tp.key, tp.value) :: acc
    | Glue g -> go g.zero (go g.one acc)
    | Node n -> (prefix_of n.key, n.value) :: go n.zero (go n.one acc)
  in
  go t.root []

(** [overlaps t p]: some binding covers [p] or lies inside [p] (i.e. the
    two prefixes share addresses). A non-empty subtree always holds a
    binding, so reaching one inside [p] answers [true]. *)
let overlaps t p =
  let addr = Bgp.Prefix.addr p and len = Bgp.Prefix.len p in
  let rec go node =
    match node with
    | Empty -> false
    | Tip { key; _ } | Glue { key; _ } | Node { key; _ } -> (
      let kaddr = key_addr key and klen = key_len key in
      if klen > len then (addr lxor kaddr) land mask len = 0
      else
        (addr lxor kaddr) land mask klen = 0
        &&
        match node with
        | Glue { zero; one; _ } ->
          klen = len || go (if bit addr klen = 0 then zero else one)
        | _ -> true)
  in
  go t.root

(** All bindings on the path from the root to [p] (i.e. every prefix that
    covers [p]), least specific first. *)
let covering t p f =
  let addr = Bgp.Prefix.addr p and len = Bgp.Prefix.len p in
  let rec go node =
    match node with
    | Empty -> ()
    | Tip { key; value } -> if covers key addr len then f (prefix_of key) value
    | Glue { key; zero; one } | Node { key; zero; one; _ } ->
      let klen = key_len key in
      if klen <= len && (addr lxor key_addr key) land mask klen = 0 then begin
        (match node with Node n -> f (prefix_of key) n.value | _ -> ());
        if klen < len then go (if bit addr klen = 0 then zero else one)
      end
  in
  go t.root
