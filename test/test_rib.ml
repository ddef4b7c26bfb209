(* Tests for the RIB substrate: the prefix trie against a reference
   model, the RFC 4271 decision process, and the Loc-RIB container. *)

let check = Alcotest.check
let check_bool = Alcotest.check Alcotest.bool

let p = Bgp.Prefix.of_string

(* a small prefix universe makes collisions (and hence interesting
   replace/remove interleavings) likely *)
let gen_small_prefix =
  QCheck2.Gen.(
    map2
      (fun addr len -> Bgp.Prefix.v (addr lsl 24) len)
      (int_range 0 15) (int_range 0 8))

(* --- Ptrie vs reference model --- *)

(* the full depth: lengths 0-32 over addresses that share long prefixes
   and differ in their low bits, so inserts split edges anywhere down to
   bit 31 and /32s sit next to each other *)
let gen_full_prefix =
  QCheck2.Gen.(
    let* base = oneofl [ 0x00000000; 0x0A000000; 0xC0A80100; 0xFFFFFFFF ] in
    let* width = int_range 0 32 in
    let* low = int_bound ((1 lsl width) - 1) in
    let* len = frequency [ (3, int_range 24 32); (1, int_range 0 32) ] in
    return (Bgp.Prefix.v (base lxor low) len))

type op =
  | Insert of Bgp.Prefix.t * int
  | Remove of Bgp.Prefix.t
  | Update of Bgp.Prefix.t * int option
  | Find_or_add of Bgp.Prefix.t * int

let gen_ops_of gen_prefix =
  QCheck2.Gen.(
    list_size (int_range 0 200)
      (oneof
         [
           map2 (fun p v -> Insert (p, v)) gen_prefix (int_range 0 100);
           map (fun p -> Remove p) gen_prefix;
           map2
             (fun p v -> Update (p, v))
             gen_prefix
             (option (int_range 0 100));
           map2 (fun p v -> Find_or_add (p, v)) gen_prefix (int_range 0 100);
         ]))

let gen_ops = gen_ops_of gen_small_prefix
let gen_full_ops = gen_ops_of gen_full_prefix

let run_model ops =
  let trie = Rib.Ptrie.create () in
  let model = Hashtbl.create 16 in
  List.iter
    (fun op ->
      match op with
      | Insert (p, v) ->
        ignore (Rib.Ptrie.replace trie p v);
        Hashtbl.replace model p v
      | Remove p ->
        let expect = Hashtbl.find_opt model p in
        let words = Obj.reachable_words (Obj.repr trie) in
        if Rib.Ptrie.remove trie p <> expect then
          failwith "remove: not the removed value";
        if expect = None && Obj.reachable_words (Obj.repr trie) <> words then
          failwith "remove of an absent prefix changed the trie";
        Hashtbl.remove model p
      | Update (p, v) -> (
        let seen = ref None in
        Rib.Ptrie.update trie p (fun old ->
            seen := Some old;
            v);
        if !seen <> Some (Hashtbl.find_opt model p) then
          failwith "update: f saw a different old value";
        match v with
        | Some v -> Hashtbl.replace model p v
        | None -> Hashtbl.remove model p)
      | Find_or_add (p, v) ->
        let expect =
          match Hashtbl.find_opt model p with
          | Some old -> old
          | None ->
            Hashtbl.replace model p v;
            v
        in
        if Rib.Ptrie.find_or_add trie p (fun _ -> v) <> expect then
          failwith "find_or_add: not the bound value")
    ops;
  (trie, model)

let trie_matches_model (trie, model) =
  Rib.Ptrie.size trie = Hashtbl.length model
  && Hashtbl.fold
       (fun p v acc -> acc && Rib.Ptrie.find trie p = Some v)
       model true
  && Rib.Ptrie.fold trie
       (fun p v acc -> acc && Hashtbl.find_opt model p = Some v)
       true

let prop_trie_model =
  QCheck2.Test.make ~count:300 ~name:"ptrie agrees with Hashtbl model" gen_ops
    (fun ops -> trie_matches_model (run_model ops))

let prop_trie_model_full =
  QCheck2.Test.make ~count:300 ~name:"full depth: ptrie agrees with model"
    gen_full_ops
    (fun ops -> trie_matches_model (run_model ops))

let longest_match_agrees (ops, addr) =
  let trie, model = run_model ops in
  let expect =
    Hashtbl.fold
      (fun p v best ->
        if Bgp.Prefix.mem addr p then
          match best with
          | Some (q, _) when Bgp.Prefix.len q >= Bgp.Prefix.len p -> best
          | _ -> Some (p, v)
        else best)
      model None
  in
  Rib.Ptrie.longest_match trie addr = expect

let prop_trie_longest_match =
  QCheck2.Test.make ~count:300 ~name:"longest_match = linear scan"
    QCheck2.Gen.(pair gen_ops (int_range 0 0xFFFFFFFF))
    longest_match_agrees

(* probe addresses next to the stored keys, where the low bits decide *)
let prop_trie_longest_match_full =
  QCheck2.Test.make ~count:300 ~name:"full depth: longest_match = scan"
    QCheck2.Gen.(pair gen_full_ops (map Bgp.Prefix.addr gen_full_prefix))
    longest_match_agrees

let overlaps_agrees (ops, q) =
  let trie, model = run_model ops in
  let expect =
    Hashtbl.fold
      (fun stored _ acc ->
        acc || Bgp.Prefix.subset stored q || Bgp.Prefix.subset q stored)
      model false
  in
  Rib.Ptrie.overlaps trie q = expect

let prop_trie_overlaps =
  QCheck2.Test.make ~count:300 ~name:"overlaps = linear scan"
    QCheck2.Gen.(pair gen_ops gen_small_prefix)
    overlaps_agrees

let prop_trie_overlaps_full =
  QCheck2.Test.make ~count:300 ~name:"full depth: overlaps = scan"
    QCheck2.Gen.(pair gen_full_ops gen_full_prefix)
    overlaps_agrees

(* (address, shorter first): the order iteration promises *)
let by_addr_then_len (a, _) (b, _) =
  match Int.compare (Bgp.Prefix.addr a) (Bgp.Prefix.addr b) with
  | 0 -> Int.compare (Bgp.Prefix.len a) (Bgp.Prefix.len b)
  | c -> c

let prop_trie_covering =
  QCheck2.Test.make ~count:300 ~name:"full depth: covering = scan"
    QCheck2.Gen.(pair gen_full_ops gen_full_prefix)
    (fun (ops, q) ->
      let trie, model = run_model ops in
      let expect =
        Hashtbl.fold
          (fun p v acc -> if Bgp.Prefix.subset q p then (p, v) :: acc else acc)
          model []
        |> List.sort by_addr_then_len
      in
      let seen = ref [] in
      Rib.Ptrie.covering trie q (fun p v -> seen := (p, v) :: !seen);
      List.rev !seen = expect)

let prop_trie_iter_order =
  QCheck2.Test.make ~count:300 ~name:"full depth: iter order = sorted"
    gen_full_ops
    (fun ops ->
      let trie, model = run_model ops in
      let expect =
        Hashtbl.fold (fun p v acc -> (p, v) :: acc) model []
        |> List.sort by_addr_then_len
      in
      let seen = ref [] in
      Rib.Ptrie.iter trie (fun p v -> seen := (p, v) :: !seen);
      List.rev !seen = expect
      && Rib.Ptrie.to_list trie = expect
      && List.rev (Rib.Ptrie.fold trie (fun p v acc -> (p, v) :: acc) [])
         = expect)

(* [n] distinct prefixes from the full-depth universe, in a seeded
   order *)
let distinct_prefixes n =
  let rand = Random.State.make [| n |] in
  let seen = Hashtbl.create n in
  let rec fill acc k =
    if k = 0 then acc
    else
      let p = QCheck2.Gen.generate1 ~rand gen_full_prefix in
      if Hashtbl.mem seen p then fill acc k
      else begin
        Hashtbl.add seen p ();
        fill (p :: acc) (k - 1)
      end
  in
  fill [] n

(* Removing every binding gives all of the trie's memory back. *)
let test_trie_memory_bounded () =
  let fresh : int Rib.Ptrie.t = Rib.Ptrie.create () in
  let fresh = Obj.reachable_words (Obj.repr fresh) in
  let prefixes = distinct_prefixes 2000 in
  let t = Rib.Ptrie.create () in
  for round = 1 to 2 do
    List.iteri (fun i p -> ignore (Rib.Ptrie.replace t p i)) prefixes;
    check Alcotest.int "all inserted" 2000 (Rib.Ptrie.size t);
    (* last in first out, then first in first out *)
    let order = if round = 1 then List.rev prefixes else prefixes in
    List.iter (fun p -> ignore (Rib.Ptrie.remove t p)) order;
    check Alcotest.int "all removed" 0 (Rib.Ptrie.size t);
    check Alcotest.int
      (Printf.sprintf "round %d: words back to a fresh trie" round)
      fresh
      (Obj.reachable_words (Obj.repr t))
  done

(* The node layout, read through [Obj]: [Empty] is an immediate, a tip
   a block of 2 fields (key, value), a glue node one of 3 (key, zero,
   one) and a valued node with children one of 4 (key, value, zero,
   one). Every glue node must have two children, and a valued node
   with child fields at least one. With immediate values the walk below
   also steps into a tip's two int fields, which end it. *)
let rec nodes_canonical node =
  Obj.is_int node
  ||
  let n = Obj.size node in
  let zero = Obj.field node (n - 2) and one = Obj.field node (n - 1) in
  (n <> 3 || not (Obj.is_int zero || Obj.is_int one))
  && (n <> 4 || not (Obj.is_int zero && Obj.is_int one))
  && nodes_canonical zero && nodes_canonical one

(* A binding of an immediate value costs at most 9 words: its node (a
   tip 3, a node with children 5) and at most one glue node (4). The
   trie record adds 3. *)
let prop_trie_words =
  QCheck2.Test.make ~count:300
    ~name:"full depth: <= 9 words per binding, no node lacks children"
    gen_full_ops (fun ops ->
      let trie, _ = run_model ops in
      Obj.reachable_words (Obj.repr trie) <= (9 * Rib.Ptrie.size trie) + 3
      && nodes_canonical (Obj.field (Obj.repr trie) 0))

let test_trie_basics () =
  let t = Rib.Ptrie.create () in
  check_bool "empty" true (Rib.Ptrie.is_empty t);
  ignore (Rib.Ptrie.replace t (p "10.0.0.0/8") 1);
  ignore (Rib.Ptrie.replace t (p "10.1.0.0/16") 2);
  ignore (Rib.Ptrie.replace t (p "0.0.0.0/0") 0);
  check Alcotest.int "size" 3 (Rib.Ptrie.size t);
  check
    Alcotest.(option int)
    "exact" (Some 2)
    (Rib.Ptrie.find t (p "10.1.0.0/16"));
  (match Rib.Ptrie.longest_match t (Bgp.Prefix.addr_of_quad (10, 1, 2, 3)) with
  | Some (q, v) ->
    check Alcotest.int "lpm value" 2 v;
    check Alcotest.int "lpm len" 16 (Bgp.Prefix.len q)
  | None -> Alcotest.fail "lpm missed");
  let seen = ref [] in
  Rib.Ptrie.covering t (p "10.1.2.0/24") (fun q v ->
      seen := (Bgp.Prefix.len q, v) :: !seen);
  check_bool "covering order" true
    (List.rev !seen = [ (0, 0); (8, 1); (16, 2) ]);
  Rib.Ptrie.update t (p "10.1.0.0/16") (fun _ -> None);
  check
    Alcotest.(option int)
    "removed" None
    (Rib.Ptrie.find t (p "10.1.0.0/16"))

let test_trie_iter_order () =
  let t = Rib.Ptrie.create () in
  List.iter
    (fun s -> ignore (Rib.Ptrie.replace t (p s) ()))
    [ "10.0.0.0/8"; "9.0.0.0/8"; "10.0.0.0/16"; "11.0.0.0/8" ];
  let order = List.map fst (Rib.Ptrie.to_list t) in
  check_bool "address order, shorter first" true
    (order = [ p "9.0.0.0/8"; p "10.0.0.0/8"; p "10.0.0.0/16"; p "11.0.0.0/8" ])

(* --- decision process --- *)

type troute = {
  lp : int;
  plen : int;
  org : int;
  med : int;
  nas : int;
  ebgp : bool;
  igp : int;
  oid : int;
  clen : int;
  paddr : int;
}

let base =
  {
    lp = 100;
    plen = 3;
    org = 0;
    med = 0;
    nas = 1;
    ebgp = true;
    igp = 10;
    oid = 1;
    clen = 0;
    paddr = 1;
  }

let view : troute Rib.Decision.view =
  {
    local_pref = (fun r -> r.lp);
    as_path_len = (fun r -> r.plen);
    origin = (fun r -> r.org);
    med = (fun r -> r.med);
    neighbor_as = (fun r -> r.nas);
    is_ebgp = (fun r -> r.ebgp);
    igp_cost = (fun r -> r.igp);
    originator_id = (fun r -> r.oid);
    cluster_list_len = (fun r -> r.clen);
    peer_addr = (fun r -> r.paddr);
  }

let prefer name a b =
  check_bool name true (Rib.Decision.compare view a b < 0);
  check_bool (name ^ " (sym)") true (Rib.Decision.compare view b a > 0)

let test_decision_steps () =
  prefer "higher local-pref" { base with lp = 200 } base;
  prefer "shorter path" { base with plen = 2 } base;
  prefer "lower origin" base { base with org = 2 };
  prefer "lower med (same neighbor)" base { base with med = 5 };
  check Alcotest.int "med skipped across ASes" 8
    (Rib.Decision.deciding_step view
       { base with med = 5; nas = 2; clen = 1 }
       base);
  prefer "ebgp over ibgp" base { base with ebgp = false };
  prefer "lower igp cost" { base with igp = 1 } base;
  prefer "lower originator id" base { base with oid = 9 };
  prefer "shorter cluster list" base { base with clen = 2 };
  prefer "lower peer addr" base { base with paddr = 9 };
  check Alcotest.int "full tie" 0 (Rib.Decision.compare view base base)

let gen_troute =
  QCheck2.Gen.(
    let small = int_range 0 3 in
    map
      (fun (lp, plen, org, (med, nas, ebgp, igp), (oid, clen, paddr)) ->
        { lp; plen; org; med; nas; ebgp; igp; oid; clen; paddr })
      (tup5 small small (int_range 0 2)
         (tup4 small small bool small)
         (tup3 small small small)))

let prop_decision_total_order =
  QCheck2.Test.make ~count:1000 ~name:"decision compare is a strict order"
    QCheck2.Gen.(triple gen_troute gen_troute gen_troute)
    (fun (a, b, c) ->
      let cmp = Rib.Decision.compare view in
      Int.compare (cmp a b) 0 = -Int.compare (cmp b a) 0
      && (not (cmp a b < 0 && cmp b c < 0) || cmp a c < 0))

let prop_decision_best_is_min =
  QCheck2.Test.make ~count:500 ~name:"best route beats all candidates"
    QCheck2.Gen.(list_size (int_range 1 10) gen_troute)
    (fun routes ->
      match Rib.Decision.best view routes with
      | None -> false
      | Some b ->
        List.for_all (fun r -> Rib.Decision.compare view b r <= 0) routes)

(* --- Loc-RIB --- *)

let test_loc_rib_changes () =
  let rib = Rib.Loc_rib.create view in
  let px = p "10.0.0.0/8" in
  (match Rib.Loc_rib.update rib ~peer:0 px (Some base) with
  | Rib.Loc_rib.New_best r -> check_bool "first is best" true (r == base)
  | _ -> Alcotest.fail "expected New_best");
  let worse = { base with lp = 50 } in
  (match Rib.Loc_rib.update rib ~peer:1 px (Some worse) with
  | Rib.Loc_rib.Unchanged -> ()
  | _ -> Alcotest.fail "expected Unchanged");
  let better = { base with lp = 200 } in
  (match Rib.Loc_rib.update rib ~peer:2 px (Some better) with
  | Rib.Loc_rib.New_best r -> check_bool "better wins" true (r == better)
  | _ -> Alcotest.fail "expected New_best");
  check Alcotest.int "count" 1 (Rib.Loc_rib.count rib);
  check Alcotest.int "three candidates" 3
    (List.length (Rib.Loc_rib.candidates rib px));
  (match Rib.Loc_rib.update rib ~peer:2 px None with
  | Rib.Loc_rib.New_best r -> check_bool "fallback to base" true (r == base)
  | _ -> Alcotest.fail "expected New_best");
  ignore (Rib.Loc_rib.update rib ~peer:0 px None);
  (match Rib.Loc_rib.update rib ~peer:1 px None with
  | Rib.Loc_rib.Withdrawn -> ()
  | _ -> Alcotest.fail "expected Withdrawn");
  check Alcotest.int "empty again" 0 (Rib.Loc_rib.count rib)

let prop_loc_rib_count =
  QCheck2.Test.make ~count:200 ~name:"loc-rib count is consistent"
    QCheck2.Gen.(
      list_size (int_range 0 100)
        (triple gen_small_prefix (int_range 0 2) (option gen_troute)))
    (fun ops ->
      let rib = Rib.Loc_rib.create view in
      List.iter
        (fun (px, peer, r) -> ignore (Rib.Loc_rib.update rib ~peer px r))
        ops;
      let recount = Rib.Loc_rib.fold_best rib (fun _ _ n -> n + 1) 0 in
      Rib.Loc_rib.count rib = recount)

(* The Loc-RIB against a model of its rules, over random announce,
   withdraw and invalidate sequences from 1-4 peers on four prefixes
   (two nested). Routes come from a pool of four, so a peer re-sending
   the very route it holds is common. The model: an announcement from
   a peer other than a current (not invalidated) incumbent's is compared
   with the incumbent alone, ties going to the arriving route; a
   withdrawal of a shadowed candidate keeps the incumbent; anything
   else re-selects the first minimal candidate in peer-id order. The
   change is [Unchanged] when the best keeps its peer and its very
   route. *)
type loc_op = Ann of int * int * int | Wd of int * int | Invalidate

let loc_prefixes =
  [| p "10.0.0.0/8"; p "10.0.0.0/16"; p "10.1.0.0/16"; p "192.168.0.0/24" |]

let gen_loc_case =
  QCheck2.Gen.(
    let* npeers = int_range 1 4 in
    let* pool = list_repeat 4 gen_troute in
    let peer = int_bound (npeers - 1) and px = int_bound 3 in
    let+ ops =
      list_size (int_range 0 150)
        (frequency
           [
             (6, map3 (fun x pe r -> Ann (x, pe, r)) px peer (int_bound 3));
             (3, map2 (fun x pe -> Wd (x, pe)) px peer);
             (1, return Invalidate);
           ])
    in
    (npeers, Array.of_list pool, ops))

type loc_model = {
  mutable cands : (int * troute) list;  (* ascending peer *)
  mutable mbest : (int * troute) option;
  mutable stale : bool;
}

let first_min = function
  | [] -> None
  | c :: tl ->
    Some
      (List.fold_left
         (fun (bp, br) (pe, r) ->
           if Rib.Decision.compare view r br < 0 then (pe, r) else (bp, br))
         c tl)

let same_change a b =
  match (a, b) with
  | Rib.Loc_rib.Unchanged, Rib.Loc_rib.Unchanged
  | Rib.Loc_rib.Withdrawn, Rib.Loc_rib.Withdrawn ->
    true
  | New_best x, New_best y -> x == y
  | _ -> false

let loc_rib_follows_model (npeers, pool, ops) =
  let cmp = Rib.Decision.compare view in
  let rib = Rib.Loc_rib.create view in
  let model =
    Array.map (fun _ -> { cands = []; mbest = None; stale = false })
      loc_prefixes
  in
  let apply x peer route =
    let m = model.(x) in
    let before = m.mbest in
    let present = List.mem_assoc peer m.cands in
    let got = Rib.Loc_rib.update rib ~peer loc_prefixes.(x) route in
    (match route with
    | Some r ->
      m.cands <-
        List.sort
          (fun (a, _) (b, _) -> compare a b)
          ((peer, r) :: List.remove_assoc peer m.cands);
      m.mbest <-
        (match before with
        | Some (bp, br) when (not m.stale) && bp <> peer ->
          if cmp r br <= 0 then Some (peer, r) else before
        | _ -> first_min m.cands);
      m.stale <- false
    | None when present ->
      m.cands <- List.remove_assoc peer m.cands;
      m.mbest <-
        (match before with
        | Some (bp, _) when (not m.stale) && bp <> peer -> before
        | _ -> first_min m.cands);
      m.stale <- false
    | None -> ());
    let expect =
      match (before, m.mbest) with
      | None, None -> Rib.Loc_rib.Unchanged
      | Some _, None -> Withdrawn
      | None, Some (_, r) -> New_best r
      | Some (op, or_), Some (np, nr) ->
        if op = np && or_ == nr then Unchanged else New_best nr
    in
    same_change got expect
  in
  let step = function
    | Invalidate ->
      Rib.Loc_rib.invalidate_best rib;
      Array.iter (fun m -> m.stale <- true) model;
      true
    | Ann (x, peer, r) -> apply x peer (Some pool.(r))
    | Wd (x, peer) -> apply x peer None
  in
  let agrees x m =
    let px = loc_prefixes.(x) in
    let got = Rib.Loc_rib.candidates rib px in
    List.length got = List.length m.cands
    && List.for_all2 (fun (a, r) (b, s) -> a = b && r == s) got m.cands
    && (match (Rib.Loc_rib.best_with_peer rib px, m.mbest) with
       | None, None -> Rib.Loc_rib.best rib px = None
       | Some (a, r), Some (b, s) ->
         a = b && r == s
         && (match Rib.Loc_rib.best rib px with
            | Some r' -> r' == r
            | None -> false)
         && List.for_all (fun (_, c) -> cmp r c <= 0) got
       | _ -> false)
    && List.for_all
         (fun peer ->
           Rib.Loc_rib.has_candidate rib ~peer px = List.mem_assoc peer m.cands)
         (List.init npeers Fun.id)
  in
  List.for_all
    (fun op ->
      step op
      && Array.for_all Fun.id (Array.mapi agrees model)
      && Rib.Loc_rib.count rib
         = Array.fold_left
             (fun n m -> if m.cands = [] then n else n + 1)
             0 model)
    ops

let prop_loc_rib_model =
  QCheck2.Test.make ~count:300 ~name:"loc-rib follows its model"
    gen_loc_case loc_rib_follows_model

(* What one prefix costs the Loc-RIB beyond its routes: the trie's tip
   (3 words), the entry record (5) and its peer-id and route arrays (1
   word each plus 1 per candidate). *)
let test_loc_rib_entry_words () =
  let rib = Rib.Loc_rib.create view in
  let words () = Obj.reachable_words (Obj.repr rib) in
  let fresh = words () and route = Obj.reachable_words (Obj.repr base) in
  let px = p "10.0.0.0/8" in
  ignore (Rib.Loc_rib.update rib ~peer:3 px (Some base));
  check Alcotest.int "one candidate" 12 (words () - fresh - route);
  ignore (Rib.Loc_rib.update rib ~peer:1 px (Some base));
  check Alcotest.int "two candidates" 14 (words () - fresh - route)

(* Announce-then-withdraw over distinct prefixes, from several peers,
   leaves the Loc-RIB exactly as large as a fresh one. *)
let test_loc_rib_memory_bounded () =
  let fresh = Obj.reachable_words (Obj.repr (Rib.Loc_rib.create view)) in
  let rib = Rib.Loc_rib.create view in
  let prefixes = distinct_prefixes 1500 in
  for round = 1 to 2 do
    List.iter
      (fun px ->
        for peer = 0 to 2 do
          ignore
            (Rib.Loc_rib.update rib ~peer px
               (Some { base with lp = 100 + peer; paddr = peer }))
        done)
      prefixes;
    check Alcotest.int "all announced" 1500 (Rib.Loc_rib.count rib);
    List.iter
      (fun px ->
        for peer = 2 downto 0 do
          ignore (Rib.Loc_rib.update rib ~peer px None)
        done)
      (List.rev prefixes);
    check Alcotest.int "all withdrawn" 0 (Rib.Loc_rib.count rib);
    check Alcotest.int
      (Printf.sprintf "round %d: words back to a fresh Loc-RIB" round)
      fresh
      (Obj.reachable_words (Obj.repr rib))
  done

(* --- Adj-RIB --- *)

let test_adj_rib () =
  let adj = Rib.Adj_rib.create () in
  ignore (Rib.Adj_rib.set adj ~peer:0 (p "10.0.0.0/8") 1);
  ignore (Rib.Adj_rib.set adj ~peer:1 (p "10.0.0.0/8") 2);
  check
    Alcotest.(option int)
    "per-peer" (Some 1)
    (Rib.Adj_rib.find adj ~peer:0 (p "10.0.0.0/8"));
  check
    Alcotest.(option int)
    "per-peer 2" (Some 2)
    (Rib.Adj_rib.find adj ~peer:1 (p "10.0.0.0/8"));
  check Alcotest.int "total" 2 (Rib.Adj_rib.total adj);
  check
    Alcotest.(option int)
    "clear returns old" (Some 1)
    (Rib.Adj_rib.clear adj ~peer:0 (p "10.0.0.0/8"));
  Rib.Adj_rib.drop_peer adj 1;
  check Alcotest.int "dropped" 0 (Rib.Adj_rib.total adj)

(* [total] is an O(1) running counter: after every kind of change it
   must equal a recount over the peers *)
let test_adj_total_consistent () =
  let adj = Rib.Adj_rib.create () in
  let prefix k =
    if k mod 3 = 0 then Bgp.Prefix.v ((k lsl 16) * 256) 16
    else Bgp.Prefix.v (0x0A00_0000 lor (k lsl 8)) 24
  in
  let check_total ctx =
    let recount =
      List.fold_left
        (fun acc peer -> acc + Rib.Adj_rib.count_peer adj ~peer)
        0 (Rib.Adj_rib.peers adj)
    in
    check Alcotest.int ctx recount (Rib.Adj_rib.total adj)
  in
  check_total "empty";
  for peer = 0 to 3 do
    for k = 0 to 15 do
      ignore (Rib.Adj_rib.set adj ~peer (prefix k) (peer + k))
    done
  done;
  check_total "after 64 sets";
  (* replacing is not an insert *)
  ignore (Rib.Adj_rib.set adj ~peer:0 (prefix 0) 999);
  check_total "after replace";
  ignore (Rib.Adj_rib.clear adj ~peer:1 (prefix 3));
  (* double clear: the second is a no-op *)
  ignore (Rib.Adj_rib.clear adj ~peer:1 (prefix 3));
  check_total "after clear";
  Rib.Adj_rib.drop_peer adj 2;
  check_total "after drop_peer";
  check Alcotest.int "total reflects the drops" 47 (Rib.Adj_rib.total adj)

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "rib"
    [
      ( "ptrie",
        [
          Alcotest.test_case "basics" `Quick test_trie_basics;
          Alcotest.test_case "iteration order" `Quick test_trie_iter_order;
          qc prop_trie_model;
          qc prop_trie_longest_match;
          qc prop_trie_overlaps;
          qc prop_trie_model_full;
          qc prop_trie_longest_match_full;
          qc prop_trie_overlaps_full;
          qc prop_trie_covering;
          qc prop_trie_iter_order;
          qc prop_trie_words;
          Alcotest.test_case "memory bounded under churn" `Quick
            test_trie_memory_bounded;
        ] );
      ( "decision",
        [
          Alcotest.test_case "tie-break steps" `Quick test_decision_steps;
          qc prop_decision_total_order;
          qc prop_decision_best_is_min;
        ] );
      ( "loc-rib",
        [
          Alcotest.test_case "change reporting" `Quick test_loc_rib_changes;
          qc prop_loc_rib_count;
          qc prop_loc_rib_model;
          Alcotest.test_case "words per prefix" `Quick test_loc_rib_entry_words;
          Alcotest.test_case "memory bounded under churn" `Quick
            test_loc_rib_memory_bounded;
        ] );
      ("adj-rib", [ Alcotest.test_case "basics" `Quick test_adj_rib ]);
      ( "adj_rib",
        [
          Alcotest.test_case "total is a consistent running counter" `Quick
            test_adj_total_consistent;
        ] );
    ]
