(** Greedy delta-debugging minimizer over kept-index lists. *)

val minimize : still_fails:(int list -> bool) -> int list -> int list
(** Smallest index subset (under greedy ddmin) for which [still_fails]
    holds; [still_fails] must already hold for the input list and must
    be deterministic. *)

val minimize_multi :
  still_fails:((string * int list) list -> bool) ->
  (string * int list) list ->
  (string * int list) list
(** Coordinate-descent {!minimize} over several named index lists at
    once — each list is minimized with the others pinned to their
    current kept sets, repeating until a (bounded) fixpoint. The
    campaign uses it to minimize a case's fault schedule, route table,
    hostile frames and programs together. [still_fails] must hold for
    the input. *)
