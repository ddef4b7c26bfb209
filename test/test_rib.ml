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
