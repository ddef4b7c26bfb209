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
   ({!invalidate_best}). *)

type 'r entry = {
  mutable cands : (int * 'r) array;  (** sorted by peer id ascending *)
  mutable best : (int * 'r) option;
  mutable sel_gen : int;
      (** {!t.cmp_gen} at the last full selection; a mismatch means the
          route order may have changed under the cached best *)
}

type 'r t = {
  trie : 'r entry Ptrie.t;
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
    trie = Ptrie.create ();
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

(* index of [peer] in [cands], or the insertion point encoded as
   [-(i+1)] when absent *)
let find_peer (cands : (int * 'r) array) peer =
  let lo = ref 0 and hi = ref (Array.length cands) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst cands.(mid) < peer then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length cands && fst cands.(!lo) = peer then !lo
  else -(!lo + 1)

let insert_at (cands : (int * 'r) array) i binding =
  let n = Array.length cands in
  let out = Array.make (n + 1) binding in
  Array.blit cands 0 out 0 i;
  Array.blit cands i out (i + 1) (n - i);
  out

let remove_at (cands : (int * 'r) array) i =
  let n = Array.length cands in
  if n = 1 then [||]
  else begin
    let out = Array.make (n - 1) cands.(0) in
    Array.blit cands 0 out 0 i;
    Array.blit cands (i + 1) out i (n - 1 - i);
    out
  end

(* Full selection: first minimal binding under [t.compare], scanning in
   peer-id order. *)
let select t (cands : (int * 'r) array) =
  let n = Array.length cands in
  if n = 0 then None
  else begin
    let best = ref cands.(0) in
    for i = 1 to n - 1 do
      let (_, r) = cands.(i) in
      if t.compare r (snd !best) < 0 then best := cands.(i)
    done;
    Some !best
  end

(* a new prefix's entry; its first update selects in full, since it
   has no incumbent, and so sets [sel_gen] *)
let new_entry _ = { cands = [||]; best = None; sel_gen = -1 }

(* [update] on the entry of [p] *)
let apply t entry ~peer p route =
  let old_best = entry.best in
  let idx = find_peer entry.cands peer in
  let stale = entry.sel_gen <> t.cmp_gen in
  let new_best =
    match route with
    | Some r ->
      let binding = (peer, r) in
      if idx >= 0 then entry.cands.(idx) <- binding
      else entry.cands <- insert_at entry.cands (-idx - 1) binding;
      (match old_best with
      | Some ((bp, br) as b) when not stale ->
        if bp = peer then begin
          (* the incumbent itself was replaced: re-select in full *)
          entry.sel_gen <- t.cmp_gen;
          select t entry.cands
        end
        else if t.compare r br <= 0 then
          (* ties go to the arriving route, matching the historical
             fold order (newest candidate seeded the accumulator) *)
          Some binding
        else Some b
      | _ ->
        entry.sel_gen <- t.cmp_gen;
        select t entry.cands)
    | None ->
      if idx < 0 then old_best  (* nothing to withdraw *)
      else begin
        entry.cands <- remove_at entry.cands idx;
        match old_best with
        | Some (bp, _) when (not stale) && bp <> peer -> old_best
        | _ ->
          entry.sel_gen <- t.cmp_gen;
          select t entry.cands
      end
  in
  entry.best <- new_best;
  (match (old_best, new_best) with
  | None, Some _ -> t.best_count <- t.best_count + 1
  | Some _, None -> t.best_count <- t.best_count - 1
  | _ -> ());
  if entry.cands = [||] then ignore (Ptrie.remove t.trie p);
  match (old_best, new_best) with
  | None, None -> Unchanged
  | Some _, None -> Withdrawn
  | None, Some (_, r) -> New_best r
  | Some (op, or_), Some (np, nr) ->
    if op = np && or_ == nr then Unchanged else New_best nr

(** [update t ~peer p route] replaces ([Some r]) or withdraws ([None]) the
    candidate contributed by [peer] for prefix [p]. *)
let update t ~peer p route =
  match route with
  | Some _ -> apply t (Ptrie.find_or_add t.trie p new_entry) ~peer p route
  | None -> (
    match Ptrie.find t.trie p with
    | Some entry -> apply t entry ~peer p route
    | None -> Unchanged)

let best t p =
  match Ptrie.find t.trie p with
  | Some { best = Some (_, r); _ } -> Some r
  | _ -> None

let best_with_peer t p =
  match Ptrie.find t.trie p with Some { best; _ } -> best | _ -> None

let candidates t p =
  match Ptrie.find t.trie p with
  | Some e -> Array.to_list e.cands
  | None -> []

let has_candidate t ~peer p =
  match Ptrie.find t.trie p with
  | Some e -> find_peer e.cands peer >= 0
  | None -> false

let peer_prefixes t ~peer =
  Ptrie.fold t.trie
    (fun p e acc -> if find_peer e.cands peer >= 0 then p :: acc else acc)
    []

(** Number of prefixes that currently have a best route. O(1). *)
let count t = t.best_count

let iter_best t f =
  Ptrie.iter t.trie (fun p e ->
      match e.best with Some (_, r) -> f p r | None -> ())

let fold_best t f acc =
  Ptrie.fold t.trie
    (fun p e acc ->
      match e.best with Some (_, r) -> f p r acc | None -> acc)
    acc
