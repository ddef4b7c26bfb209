(* The Loc-RIB: per prefix, the candidate routes contributed by each peer
   and the current best as picked by the decision process. Updates are
   incremental — a daemon feeds the post-import-filter route (or a
   withdrawal) and learns whether the best route changed, which is what
   drives re-advertisement to the Adj-RIB-Out side.

   Hot-path structure: candidates live in a small array sorted by peer
   id (binary search instead of [List.remove_assoc]'s linear scan), and
   the incumbent best is cached so the common cases — a new route that
   loses to the incumbent, a replacement from a non-best peer, a
   withdrawal of a shadowed candidate — cost one route comparison
   instead of a full re-selection fold. A full re-selection only runs
   when the incumbent itself is displaced or withdrawn, or when the
   route order may have changed since the best was picked
   ({!invalidate_best}).

   An entry is compact, since a RIB holds one per prefix: peer ids and
   routes sit in two parallel arrays (no pair per candidate), and the
   best is an index into them (no option). The trie lookups report an
   absent prefix by raising, so [update], [has_candidate] and [best]
   allocate nothing to find the entry. *)

type 'r entry = {
  mutable peers : int array;  (** peer ids, ascending *)
  mutable cands : 'r array;  (** [cands.(i)] is [peers.(i)]'s route *)
  mutable best : int;  (** index of the best candidate; -1 when none *)
  mutable sel_gen : int;
      (** {!t.cmp_gen} at the last full selection; a mismatch means the
          route order may have changed under the cached best *)
}

type 'r t = {
  trie : 'r entry Ptrie_core.t;
  view : 'r Decision.view;
  mutable best_count : int;  (** prefixes that currently have a best *)
  mutable compare : 'r -> 'r -> int;
      (** route order; defaults to [Decision.compare view] and may be
          overridden (the xBGP BGP_DECISION insertion point) *)
  mutable cmp_gen : int;
      (** bumped whenever the route order may have changed; entries
          whose [sel_gen] lags re-select in full on their next update *)
}

type 'r change =
  | Unchanged
  | New_best of 'r  (** best route (re)selected for the prefix *)
  | Withdrawn  (** no candidate left for the prefix *)

let create view =
  {
    trie = Ptrie_core.create ();
    view;
    best_count = 0;
    compare = Decision.compare view;
    cmp_gen = 0;
  }

(** Override the route order (pass [None] to restore the RFC 4271
    decision process). Affects subsequent updates only. *)
let set_compare t cmp =
  t.compare <-
    (match cmp with Some f -> f | None -> Decision.compare t.view);
  t.cmp_gen <- t.cmp_gen + 1

(** Signal that the installed compare closure's behaviour may have
    changed (e.g. a BGP_DECISION chain was attached or detached behind
    it): cached incumbents are re-validated by a full selection on each
    prefix's next update. *)
let invalidate_best t = t.cmp_gen <- t.cmp_gen + 1

(* --- sorted candidate array primitives --- *)

(* index of [peer] in [peers], or the insertion point encoded as
   [-(i+1)] when absent *)
let find_peer (peers : int array) peer =
  let lo = ref 0 and hi = ref (Array.length peers) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if peers.(mid) < peer then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length peers && peers.(!lo) = peer then !lo
  else -(!lo + 1)

let insert_at a i x =
  let n = Array.length a in
  let out = Array.make (n + 1) x in
  Array.blit a 0 out 0 i;
  Array.blit a i out (i + 1) (n - i);
  out

let remove_at a i =
  let n = Array.length a in
  if n = 1 then [||]
  else begin
    let out = Array.make (n - 1) a.(0) in
    Array.blit a 0 out 0 i;
    Array.blit a (i + 1) out i (n - 1 - i);
    out
  end

(* Full selection: index of the first minimal candidate under
   [t.compare], scanning in peer-id order; -1 when there is none. *)
let select t entry =
  entry.sel_gen <- t.cmp_gen;
  let cands = entry.cands in
  let n = Array.length cands in
  if n = 0 then -1
  else begin
    let best = ref 0 in
    for i = 1 to n - 1 do
      if t.compare cands.(i) cands.(!best) < 0 then best := i
    done;
    !best
  end

(* a new prefix's entry; its first update selects in full, since it
   has no incumbent, and so sets [sel_gen] *)
let new_entry _ = { peers = [||]; cands = [||]; best = -1; sel_gen = -1 }

(* The change from the best before an update — when there [had] been
   one, peer [op]'s route [or_] — to the entry's best now, keeping
   [best_count] in step. *)
let report t entry ~had op or_ =
  if entry.best < 0 then
    if had then begin
      t.best_count <- t.best_count - 1;
      Withdrawn
    end
    else Unchanged
  else begin
    let nr = entry.cands.(entry.best) in
    if not had then begin
      t.best_count <- t.best_count + 1;
      New_best nr
    end
    else if op = entry.peers.(entry.best) && or_ == nr then Unchanged
    else New_best nr
  end

(* [update] with [Some r] on the entry of its prefix *)
let announce t entry ~peer r =
  let ob = entry.best in
  let had = ob >= 0 in
  let op = if had then entry.peers.(ob) else peer in
  let or_ = if had then entry.cands.(ob) else r in
  let idx = find_peer entry.peers peer in
  let i = if idx >= 0 then idx else -idx - 1 in
  if idx >= 0 then entry.cands.(i) <- r
  else begin
    entry.peers <- insert_at entry.peers i peer;
    entry.cands <- insert_at entry.cands i r
  end;
  entry.best <-
    (if (not had) || entry.sel_gen <> t.cmp_gen || op = peer then
       (* no incumbent, a stale one, or the incumbent itself was
          replaced: re-select in full *)
       select t entry
     else if t.compare r or_ <= 0 then
       (* ties go to the arriving route, matching the historical fold
          order (newest candidate seeded the accumulator) *)
       i
     else if idx < 0 && i <= ob then ob + 1
     else ob);
  report t entry ~had op or_

(* [update] with [None] on the entry of [p] *)
let withdraw t entry ~peer p =
  let idx = find_peer entry.peers peer in
  if idx < 0 then Unchanged (* nothing to withdraw *)
  else begin
    let ob = entry.best in
    let had = ob >= 0 in
    let op = if had then entry.peers.(ob) else peer in
    let or_ = entry.cands.(if had then ob else idx) in
    entry.peers <- remove_at entry.peers idx;
    entry.cands <- remove_at entry.cands idx;
    entry.best <-
      (if had && entry.sel_gen = t.cmp_gen && op <> peer then
         if idx < ob then ob - 1 else ob
       else select t entry);
    if Array.length entry.cands = 0 then
      ignore (Ptrie_core.remove_exn t.trie p);
    report t entry ~had op or_
  end

(** [update t ~peer p route] replaces ([Some r]) or withdraws ([None]) the
    candidate contributed by [peer] for prefix [p]. *)
let update t ~peer p route =
  match route with
  | Some r -> announce t (Ptrie_core.find_or_add t.trie p new_entry) ~peer r
  | None -> (
    match Ptrie_core.find_exn t.trie p with
    | entry -> withdraw t entry ~peer p
    | exception Not_found -> Unchanged)

let best t p =
  match Ptrie_core.find_exn t.trie p with
  | { best; cands; _ } when best >= 0 -> Some cands.(best)
  | _ | (exception Not_found) -> None

let best_with_peer t p =
  match Ptrie_core.find_exn t.trie p with
  | { best; peers; cands; _ } when best >= 0 ->
    Some (peers.(best), cands.(best))
  | _ | (exception Not_found) -> None

let candidates t p =
  match Ptrie_core.find_exn t.trie p with
  | e -> List.init (Array.length e.cands) (fun i -> (e.peers.(i), e.cands.(i)))
  | exception Not_found -> []

let has_candidate t ~peer p =
  match Ptrie_core.find_exn t.trie p with
  | e -> find_peer e.peers peer >= 0
  | exception Not_found -> false

let peer_prefixes t ~peer =
  Ptrie_core.fold t.trie
    (fun p e acc -> if find_peer e.peers peer >= 0 then p :: acc else acc)
    []

(** Number of prefixes that currently have a best route. O(1). *)
let count t = t.best_count

let iter_best t f =
  Ptrie_core.iter t.trie (fun p e ->
      if e.best >= 0 then f p e.cands.(e.best))

let fold_best t f acc =
  Ptrie_core.fold t.trie
    (fun p e acc -> if e.best >= 0 then f p e.cands.(e.best) acc else acc)
    acc
