(* Greedy delta-debugging over index lists.

   The shrinker never mutates case data directly: it minimizes the list
   of *kept indices* into the deterministically regenerated input lists,
   so a shrunk case is exactly "the same case, restricted" — which is
   also what the replay file stores. *)

let remove_slice l start len =
  List.filteri (fun i _ -> i < start || i >= start + len) l

(* ddmin-style: try dropping chunk-sized slices, restarting greedily on
   success and halving the chunk when no slice can go; [still_fails]
   must be a pure predicate (it re-runs the oracle on the restriction). *)
let minimize ~still_fails idxs =
  let rec go idxs chunk =
    if chunk < 1 || idxs = [] then idxs
    else begin
      let n = List.length idxs in
      let rec slices start =
        if start >= n then None
        else
          let cand = remove_slice idxs start chunk in
          if List.length cand < n && still_fails cand then Some cand
          else slices (start + chunk)
      in
      match slices 0 with
      | Some cand -> go cand (min chunk (max 1 (List.length cand / 2)))
      | None -> go idxs (chunk / 2)
    end
  in
  go idxs (max 1 (List.length idxs / 2))

(* Coordinate-descent ddmin over several named index lists at once (a
   case's fault schedule, route table, frames and programs): each pass
   minimizes one list with the others pinned to their current kept
   sets, and passes repeat until a fixpoint (bounded, since every pass
   either shrinks something or stops). *)
let minimize_multi ~still_fails dims =
  let cur = ref dims in
  let changed = ref true and passes = ref 0 in
  while !changed && !passes < 4 do
    changed := false;
    incr passes;
    List.iter
      (fun (name, _) ->
        let set l = List.map (fun (n, l') -> (n, if n = name then l else l')) in
        let idxs = List.assoc name !cur in
        let kept =
          minimize ~still_fails:(fun cand -> still_fails (set cand !cur)) idxs
        in
        if List.length kept < List.length idxs then changed := true;
        cur := set kept !cur)
      dims
  done;
  !cur
