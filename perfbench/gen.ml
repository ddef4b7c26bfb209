(* Seeded workload inputs. Everything the program under test receives is
   built here from the --seed argument; nothing in lib/ is changed to
   produce it.

   [Dataset.Ris_gen] draws a fresh AS path for every route, so every
   route carries its own attribute set and travels in its own UPDATE,
   and neither batched NLRI processing nor update-group frame packing
   ever engages. Real tables are not like that: one origin announces
   many prefixes over one path. [table] post-processes the generator's
   output so consecutive runs of prefixes share one attribute set, in
   runs whose lengths are assumed (see [max_group]). *)

type route = Dataset.Ris_gen.route = {
  prefix : Bgp.Prefix.t;
  attrs : Bgp.Attr.t list;
}

type table = {
  routes : route array;  (** feed order; each group is a consecutive run *)
  groups : (int * int) array;  (** (first index, length) per shared set *)
}

(* How many prefixes share one attribute set is an assumption, not a
   measurement. The one public anchor is an upper bound: the CIDR
   Report's weekly table statistics put the IPv4 table at roughly a
   dozen prefixes per origin AS (on the order of a million prefixes
   from some 75,000 origins in the early 2020s), and one origin's
   prefixes can still differ in path or communities, so sharing per
   attribute set is lower. Group sizes here are log-uniform on
   [1, max_group): median 4, mean about 6.8, with a tail of larger
   announcers; the shape is chosen, not derived. *)
let max_group = 24

let table ~seed ~count ~disjoint =
  let base =
    Array.of_list
      (Dataset.Ris_gen.generate
         { Dataset.Ris_gen.default_config with seed; count; disjoint })
  in
  let rng = Dataset.Prng.create (seed lxor 0x5eed) in
  let groups = ref [] and i = ref 0 in
  while !i < count do
    let k =
      int_of_float (exp (Dataset.Prng.float rng *. log (float max_group)))
    in
    let k = max 1 (min k (count - !i)) in
    groups := (!i, k) :: !groups;
    i := !i + k
  done;
  let groups = Array.of_list (List.rev !groups) in
  let routes = Array.copy base in
  Array.iter
    (fun (first, k) ->
      let attrs = base.(first).attrs in
      for j = first to first + k - 1 do
        routes.(j) <- { (base.(j)) with attrs }
      done)
    groups;
  { routes; groups }

(* §3.4: 75% of the table valid, 13% invalid, the rest not found. *)
let roas ~seed (t : table) =
  Dataset.Ris_gen.roas_for ~seed:(seed + 1) ~valid_pct:75 ~invalid_pct:13
    (Array.to_list t.routes)

let replace_value pred v attrs =
  List.filter (fun (a : Bgp.Attr.t) -> not (pred a.value)) attrs
  @ [ Bgp.Attr.v v ]

let is_communities = function Bgp.Attr.Communities _ -> true | _ -> false
let is_med = function Bgp.Attr.Med _ -> true | _ -> false

(* A probe re-announces one table prefix with a single fresh community,
   so the change survives every export policy in the workloads. *)
let probe_community i = (64999 lsl 16) lor (i land 0xFFFF)

let with_probe_community i attrs =
  replace_value is_communities (Communities [ probe_community i ]) attrs

(* Attributes as a spoke announces them over eBGP: its own AS first, its
   own address as NEXT_HOP. *)
let from_spoke ~asn ~next_hop attrs =
  List.map
    (fun (a : Bgp.Attr.t) ->
      match a.value with
      | As_path [ Seq path ] -> Bgp.Attr.v (As_path [ Seq (asn :: path) ])
      | Next_hop _ -> Bgp.Attr.v (Next_hop next_hop)
      | _ -> a)
    attrs

(* --- churn-med: the closed-loop step schedule ---

   Two sources announce every prefix. [meds.(s).(p)] is source [s]'s
   MED for prefix [p], or -1 while [s] has it withdrawn. MEDs stay
   distinct, so the lower one is the unique best under med_compare.
   Every step flips the best path of its prefix:
   - both present: the loser re-announces below the winner's MED, or the
     winner withdraws (a coin flip);
   - one present: the absent source re-announces below it. *)

type step =
  | Announce of { source : int; prefix : int; med : int }
  | Withdraw of { source : int; prefix : int }

type churn = { rng : Dataset.Prng.t; meds : int array array }

let initial_med = 1_000_000_000

let churn ~seed ~prefixes =
  {
    rng = Dataset.Prng.create (seed lxor 0xc4c4);
    meds =
      Array.init 2 (fun s -> Array.make prefixes (initial_med + s));
  }

let best c p =
  let m0 = c.meds.(0).(p) and m1 = c.meds.(1).(p) in
  if m1 < 0 || (m0 >= 0 && m0 < m1) then 0 else 1

let next_step c =
  let n = Array.length c.meds.(0) in
  let p = Dataset.Prng.int c.rng n in
  let w = best c p in
  let l = 1 - w in
  let below () = c.meds.(w).(p) - 1 - Dataset.Prng.int c.rng 8 in
  let step =
    if c.meds.(l).(p) >= 0 && Dataset.Prng.bool c.rng then
      Withdraw { source = w; prefix = p }
    else Announce { source = l; prefix = p; med = below () }
  in
  (match step with
  | Withdraw { source; prefix } -> c.meds.(source).(prefix) <- -1
  | Announce { source; prefix; med } -> c.meds.(source).(prefix) <- med);
  step
