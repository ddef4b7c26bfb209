(* The BGP decision process (RFC 4271 §9.1.2.2 tie-breaking), written
   against an abstract *view* of a route so that both daemons can reuse it
   over their very different internal route representations — the reuse
   boundary mirrors what the protocol specification fixes, while each
   daemon keeps its own storage format (the asymmetry the paper leans on).

   Deviation noted in DESIGN.md: MED comparison is "always-compare-MED
   deterministic" only between routes from the same neighbouring AS, which
   matches the RFC; we apply it pairwise, so route selection is a total
   order (no MED-induced intransitivity). *)

type 'r view = {
  local_pref : 'r -> int;
  as_path_len : 'r -> int;
  origin : 'r -> int;  (** 0 = IGP, 1 = EGP, 2 = incomplete; lower wins *)
  med : 'r -> int;
  neighbor_as : 'r -> int;  (** leftmost AS of the path; 0 if local *)
  is_ebgp : 'r -> bool;
  igp_cost : 'r -> int;  (** IGP metric to NEXT_HOP; lower wins *)
  originator_id : 'r -> int;  (** ORIGINATOR_ID or peer router id *)
  cluster_list_len : 'r -> int;  (** RFC 4456 tie-break *)
  peer_addr : 'r -> int;
}

(* Each step returns the comparison for "a better than b => negative". *)
let steps =
  [
    (fun v a b -> Int.compare (v.local_pref b) (v.local_pref a));
    (fun v a b -> Int.compare (v.as_path_len a) (v.as_path_len b));
    (fun v a b -> Int.compare (v.origin a) (v.origin b));
    (fun v a b ->
      if v.neighbor_as a = v.neighbor_as b then
        Int.compare (v.med a) (v.med b)
      else 0);
    (fun v a b -> Bool.compare (v.is_ebgp b) (v.is_ebgp a));
    (fun v a b -> Int.compare (v.igp_cost a) (v.igp_cost b));
    (fun v a b -> Int.compare (v.originator_id a) (v.originator_id b));
    (fun v a b -> Int.compare (v.cluster_list_len a) (v.cluster_list_len b));
    (fun v a b -> Int.compare (v.peer_addr a) (v.peer_addr b));
  ]

(* A top-level loop taking the view and both routes as arguments: a
   local closure over them would cost 6 minor words per comparison, and
   the decision process compares on every Loc-RIB update. *)
let rec compare_from steps view a b =
  match steps with
  | [] -> 0
  | step :: rest -> (
    match step view a b with 0 -> compare_from rest view a b | c -> c)

(** Total order on routes; negative means [a] is preferred. *)
let compare view a b = compare_from steps view a b

(** Best route of a candidate list, [None] on empty input. *)
let best view = function
  | [] -> None
  | r :: rest ->
    Some
      (List.fold_left
         (fun acc r -> if compare view r acc < 0 then r else acc)
         r rest)

(** Index (1-based) of the first tie-break step that separates [a] and [b];
    0 when they are fully tied. Used by tests and debugging. *)
let deciding_step view a b =
  let rec go i = function
    | [] -> 0
    | step :: rest -> if step view a b <> 0 then i else go (i + 1) rest
  in
  go 1 steps

(* Operator-facing names, aligned with [steps] — provenance records and
   [show provenance] explain a win as "step 2 (as_path_len)". *)
let step_name = function
  | 0 -> "tied"
  | 1 -> "local_pref"
  | 2 -> "as_path_len"
  | 3 -> "origin"
  | 4 -> "med"
  | 5 -> "ebgp_over_ibgp"
  | 6 -> "igp_cost"
  | 7 -> "originator_id"
  | 8 -> "cluster_list_len"
  | 9 -> "peer_addr"
  | n -> Printf.sprintf "step_%d" n
