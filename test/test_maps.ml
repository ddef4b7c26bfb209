(* Model-based tests for the map subsystem (lib/ebpf/map.ml).

   Each map kind is driven with random operation sequences — including
   wrong-size keys and values — against a trivially-correct pure model;
   every operation's result and the final canonical dump must agree.
   Deterministic tests pin the corners the models glide over: exact LRU
   eviction/recency order, per-peer-array bounds, spec validation, and
   (through the VMM) the no-aliasing rule between map storage and the
   ephemeral bytes a lookup returns. *)

module Map = Ebpf.Map
module Qc = QCheck_alcotest

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let le32 n =
  String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

(* --- the models ------------------------------------------------------ *)

(* Hash and LRU share one model: an association list kept in recency
   order (most recent first). A plain hash map simply never consults
   recency; the LRU evicts the list's tail. *)
module Model = struct
  type t = {
    spec : Map.spec;
    mutable entries : (string * string) list;  (** most recent first *)
  }

  let create spec = { spec; entries = [] }

  let sized m k v =
    String.length k = m.spec.Map.key_size
    && String.length v = m.spec.Map.value_size

  let touch m k v =
    m.entries <- (k, v) :: List.remove_assoc k m.entries

  let lookup m k =
    if String.length k <> m.spec.Map.key_size then None
    else
      match List.assoc_opt k m.entries with
      | Some v ->
        (* LRU lookups refresh recency; harmless for plain hash *)
        if m.spec.Map.kind = Map.Lru then touch m k v;
        Some v
      | None -> None

  let update m k v =
    if not (sized m k v) then false
    else if List.mem_assoc k m.entries then (touch m k v; true)
    else if List.length m.entries < m.spec.Map.max_entries then (
      touch m k v;
      true)
    else
      match m.spec.Map.kind with
      | Map.Hash -> false
      | Map.Lru ->
        (* evict the least recently used entry, then insert *)
        m.entries <-
          (k, v)
          :: List.filteri
               (fun i _ -> i < List.length m.entries - 1)
               m.entries;
        true
      | Map.Per_peer_array -> assert false

  let delete m k =
    let had = List.mem_assoc k m.entries in
    m.entries <- List.remove_assoc k m.entries;
    had && String.length k = m.spec.Map.key_size

  let dump m = List.sort compare m.entries
end

module Array_model = struct
  type t = { spec : Map.spec; slots : string array }

  let create (spec : Map.spec) =
    { spec; slots = Array.make spec.max_entries (String.make spec.value_size '\x00') }

  let index m k =
    if String.length k <> 4 then None
    else
      let i =
        Char.code k.[0]
        lor (Char.code k.[1] lsl 8)
        lor (Char.code k.[2] lsl 16)
        lor (Char.code k.[3] lsl 24)
      in
      if i >= 0 && i < m.spec.Map.max_entries then Some i else None

  let zero m = String.make m.spec.Map.value_size '\x00'

  let lookup m k =
    Option.map (fun i -> m.slots.(i)) (index m k)

  let update m k v =
    match index m k with
    | Some i when String.length v = m.spec.Map.value_size ->
      m.slots.(i) <- v;
      true
    | _ -> false

  let delete m k =
    match index m k with
    | Some i when m.slots.(i) <> zero m ->
      m.slots.(i) <- zero m;
      true
    | _ -> false

  let dump m =
    Array.to_list m.slots
    |> List.mapi (fun i v -> (le32 i, v))
    |> List.filter (fun (_, v) -> v <> zero m)
    |> List.sort compare
end

(* --- random operation sequences -------------------------------------- *)

type op = Lookup of string | Update of string * string | Delete of string

let pp_op = function
  | Lookup k -> Printf.sprintf "lookup %S" k
  | Update (k, v) -> Printf.sprintf "update %S %S" k v
  | Delete k -> Printf.sprintf "delete %S" k

(* Keys mostly valid (small pool, so collisions and refreshes happen) with
   the occasional wrong-size key; same shape for values. *)
let gen_ops ~key_size ~value_size =
  let open QCheck2.Gen in
  let key =
    frequency
      [
        (8, map (fun i -> String.make key_size (Char.chr (65 + i))) (int_bound 7));
        (1, return (String.make (key_size + 1) 'X'));
        (1, return "");
      ]
  in
  let value =
    frequency
      [
        (8, map (fun i -> String.make value_size (Char.chr (97 + i))) (int_bound 7));
        (1, return (String.make (value_size - 1) 'y'));
      ]
  in
  let op =
    frequency
      [
        (3, map (fun k -> Lookup k) key);
        (4, map2 (fun k v -> Update (k, v)) key value);
        (2, map (fun k -> Delete k) key);
      ]
  in
  list_size (int_range 1 120) op

let agree_prop ~kind ~key_size ~value_size ~max_entries model_of lookup update
    delete dump =
  let spec =
    {
      Map.name = "m";
      kind;
      key_size;
      value_size;
      max_entries;
    }
  in
  QCheck2.Test.make ~count:300
    ~name:(Printf.sprintf "%s map matches its model" (Map.kind_name kind))
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    (gen_ops ~key_size ~value_size)
    (fun ops ->
      let real = Map.create spec and model = model_of spec in
      List.for_all
        (fun op ->
          match op with
          | Lookup k -> Map.lookup real k = lookup model k
          | Update (k, v) -> Map.update real k v = update model k v
          | Delete k -> Map.delete real k = delete model k)
        ops
      && Map.dump real = dump model
      && Map.length real = List.length (dump model))

let prop_hash_model =
  agree_prop ~kind:Map.Hash ~key_size:4 ~value_size:6 ~max_entries:5
    Model.create Model.lookup Model.update Model.delete Model.dump

let prop_lru_model =
  agree_prop ~kind:Map.Lru ~key_size:4 ~value_size:6 ~max_entries:5
    Model.create Model.lookup Model.update Model.delete Model.dump

let prop_array_model =
  agree_prop ~kind:Map.Per_peer_array ~key_size:4 ~value_size:6 ~max_entries:8
    Array_model.create Array_model.lookup Array_model.update
    Array_model.delete Array_model.dump

(* --- deterministic corners ------------------------------------------- *)

let spec ?(kind = Map.Hash) ?(key_size = 4) ?(value_size = 4)
    ?(max_entries = 4) () =
  { Map.name = "m"; kind; key_size; value_size; max_entries }

let test_validation () =
  let bad s = check_bool (Format.asprintf "%a" Map.pp_spec s) true
      (Result.is_error (Map.validate s))
  in
  bad (spec ~key_size:0 ());
  bad (spec ~key_size:(Map.max_key_size + 1) ());
  bad (spec ~value_size:0 ());
  bad (spec ~value_size:(Map.max_value_size + 1) ());
  bad (spec ~max_entries:0 ());
  bad (spec ~max_entries:(Map.max_max_entries + 1) ());
  bad (spec ~kind:Map.Per_peer_array ~key_size:8 ());
  check_bool "valid spec accepted" true (Result.is_ok (Map.validate (spec ())));
  match Map.create (spec ~key_size:0 ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create accepted an invalid spec"

let test_lru_order () =
  let m = Map.create (spec ~kind:Map.Lru ~max_entries:3 ()) in
  let k i = le32 i and v i = le32 (100 + i) in
  check_bool "insert 1" true (Map.update m (k 1) (v 1));
  check_bool "insert 2" true (Map.update m (k 2) (v 2));
  check_bool "insert 3" true (Map.update m (k 3) (v 3));
  (* recency now 1 < 2 < 3; a lookup refreshes 1, an update refreshes 2 *)
  check_bool "touch 1" true (Map.lookup m (k 1) <> None);
  check_bool "re-update 2" true (Map.update m (k 2) (v 22));
  (* 3 is now the least recently used: the next insert evicts it *)
  check_bool "insert 4 evicts" true (Map.update m (k 4) (v 4));
  check_bool "3 evicted" true (Map.lookup m (k 3) = None);
  check_bool "1 survives" true (Map.lookup m (k 1) = Some (v 1));
  check_bool "2 survives" true (Map.lookup m (k 2) = Some (v 22));
  check_int "evictions counted" 1 (Map.stats m).Map.evictions;
  check_int "still full" 3 (Map.length m)

let test_array_bounds () =
  let m = Map.create (spec ~kind:Map.Per_peer_array ~max_entries:4 ()) in
  check_bool "in-range slot exists" true
    (Map.lookup m (le32 3) = Some "\x00\x00\x00\x00");
  check_bool "oob lookup is None" true (Map.lookup m (le32 4) = None);
  check_bool "oob update fails" false (Map.update m (le32 99) "abcd");
  check_bool "short key is None" true (Map.lookup m "\x01" = None);
  check_bool "delete of zero slot fails" false (Map.delete m (le32 0));
  check_bool "update in range" true (Map.update m (le32 0) "abcd");
  check_int "one live slot" 1 (Map.length m);
  check_bool "delete zeroes" true (Map.delete m (le32 0));
  check_bool "slot back to zero" true
    (Map.lookup m (le32 0) = Some "\x00\x00\x00\x00");
  check_int "no live slots" 0 (Map.length m)

(* The ephemeral-memory rule: a lookup hands the bytecode a copy of the
   value in per-run heap memory. Scribbling on that copy must not change
   the map, and the map must survive into the next dispatch while the
   scribbled heap does not. *)
let test_lookup_no_aliasing () =
  let prog =
    (* NB: Asm.le32 (the byteswap) shadows our le32 helper, hence the
       local open *)
    let open Ebpf.Asm in
    assemble
      [
        (* update m[1] = 42 only when the slot is still empty, so run 2
           observes run 1's value, not its own *)
        stw R10 (-4) 1;
        movi R1 0;
        mov R2 R10;
        addi R2 (-4);
        call Xbgp.Api.h_map_lookup;
        jnei R0 0 "have";
        stdw R10 (-16) 42;
        movi R1 0;
        mov R2 R10;
        addi R2 (-4);
        mov R3 R10;
        addi R3 (-16);
        call Xbgp.Api.h_map_update;
        label "have";
        stw R10 (-4) 1;
        movi R1 0;
        mov R2 R10;
        addi R2 (-4);
        call Xbgp.Api.h_map_lookup;
        jeqi R0 0 "bad";
        mov R6 R0;
        ldxdw R7 R6 0;
        (* scribble on the returned ephemeral copy... *)
        stdw R6 0 999;
        (* ...and look the key up again: the map must be unchanged *)
        stw R10 (-4) 1;
        movi R1 0;
        mov R2 R10;
        addi R2 (-4);
        call Xbgp.Api.h_map_lookup;
        jeqi R0 0 "bad";
        ldxdw R0 R0 0;
        exit_;
        label "bad";
        movi R0 (-1);
        exit_;
      ]
  in
  let xp =
    Xbgp.Xprog.v ~name:"alias"
      ~maps:[ Xbgp.Xprog.map ~name:"m" ~key_size:4 ~value_size:8 () ]
      [ ("main", prog) ]
  in
  let vmm = Xbgp.Vmm.create ~budget:10_000 ~host:"test" () in
  (match Xbgp.Vmm.register vmm xp with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     Xbgp.Vmm.attach vmm ~program:"alias" ~bytecode:"main"
       ~point:Xbgp.Api.Bgp_inbound_filter ~order:0
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let run () =
    Xbgp.Vmm.run vmm Xbgp.Api.Bgp_inbound_filter ~ops:Xbgp.Host_intf.null_ops
      ~args:
        (Xbgp.Host_intf.Args.of_list
           [ (Xbgp.Api.arg_prefix, Bytes.make 5 '\x00') ])
      ~default:(fun () -> 0L)
  in
  Alcotest.(check int64) "first run sees its own write" 42L (run ());
  (* the map survives the dispatch; the scribbled heap did not *)
  Alcotest.(check int64) "second run sees the map, not the scribble" 42L
    (run ());
  check_int "no faults" 0 (Xbgp.Vmm.stats vmm).faults;
  match Xbgp.Vmm.map_dump vmm ~program:"alias" with
  | Some [ ("m", [ (k, v) ]) ] ->
    check_bool "key is 1 LE" true (k = le32 1);
    check_bool "value is 42 LE, not the scribble" true
      (v = "\x2a\x00\x00\x00\x00\x00\x00\x00")
  | _ -> Alcotest.fail "unexpected map dump"

let test_dump_canonical () =
  let m = Map.create (spec ~max_entries:8 ()) in
  List.iter
    (fun i -> check_bool "insert" true (Map.update m (le32 i) (le32 (i * 7))))
    [ 5; 1; 3; 2 ];
  let d = Map.dump m in
  check_bool "sorted by key bytes" true (d = List.sort compare d);
  check_int "all entries present" 4 (List.length d);
  Map.clear m;
  check_int "clear empties" 0 (Map.length m);
  check_int "stats survive clear" 4 (Map.stats m).Map.updates

(* --- a reached bound is counted, never silent ------------------------- *)

let test_full_hash_counts_rejections () =
  let m = Map.create (spec ~max_entries:1024 ()) in
  for i = 0 to 1099 do
    ignore (Map.update m (le32 i) (le32 i))
  done;
  check_int "capacity kept" 1024 (Map.length m);
  check_int "rejected inserts" 76 (Map.stats m).Map.rejected;
  check_bool "overwrite in a full map succeeds" true
    (Map.update m (le32 0) (le32 7));
  check_int "an overwrite is no rejection" 76 (Map.stats m).Map.rejected;
  let lru = Map.create (spec ~kind:Map.Lru ~max_entries:4 ()) in
  for i = 0 to 9 do
    ignore (Map.update lru (le32 i) (le32 i))
  done;
  check_int "an LRU map evicts instead" 0 (Map.stats lru).Map.rejected

(* Stock origin_validation loads its ROA table into a 1,024-entry hash
   map and ignores the helper's error return, so ROAs past the cap used
   to vanish without a trace. The VMM now counts each refusal in the
   map's stats and telemetry and records a [Map_full] event. *)
let test_roa_cap_reported () =
  let roas =
    List.init 1100 (fun i ->
        Rpki.Roa.v
          (Bgp.Prefix.v ((10 lsl 24) lor (i lsl 8)) 24)
          ~max_len:24 ~asn:(i + 1))
  in
  let tele = Telemetry.create () in
  let vmm = Xbgp.Vmm.create ~telemetry:tele ~host:"test" () in
  let rc = Obs.Recorder.create () in
  Xbgp.Vmm.set_recorder vmm (Some rc);
  let ok = function Ok () -> () | Error e -> Alcotest.fail e in
  let program = "origin_validation" in
  ok (Xbgp.Vmm.register vmm Xprogs.Origin_validation.program);
  ok
    (Xbgp.Vmm.attach vmm ~program ~bytecode:"init" ~point:Xbgp.Api.Bgp_init
       ~order:0);
  Xbgp.Vmm.run_init vmm
    ~ops:
      {
        Xbgp.Host_intf.null_ops with
        get_xtra =
          (fun key ->
            if key = "roa_table" then Some (Xprogs.Util.encode_roa_table roas)
            else None);
      };
  Alcotest.(check (option int))
    "map holds its capacity" (Some 1024)
    (Xbgp.Vmm.map_size vmm ~program 0);
  (match Xbgp.Vmm.map_stats vmm ~program 0 with
  | Some s -> check_int "map stats: rejected inserts" 76 s.Map.rejected
  | None -> Alcotest.fail "roa map not live");
  check_int "telemetry: rejected inserts" 76
    (Telemetry.counter_value tele ~name:"xbgp_map_rejected_inserts_total"
       ~labels:[ ("host", "test"); ("program", program); ("map", "roa") ]);
  let recorded =
    List.fold_left
      (fun n (e : Obs.Recorder.event) ->
        if e.kind = Obs.Recorder.Map_full then
          n + int_of_string (List.assoc "n" e.fields)
        else n)
      0 (Obs.Recorder.events rc)
  in
  check_int "recorder: rejected inserts" 76 recorded

let () =
  let qc = Qc.to_alcotest in
  Alcotest.run "maps"
    [
      ( "model",
        [ qc prop_hash_model; qc prop_lru_model; qc prop_array_model ] );
      ( "corners",
        [
          Alcotest.test_case "spec validation" `Quick test_validation;
          Alcotest.test_case "lru recency order" `Quick test_lru_order;
          Alcotest.test_case "array bounds" `Quick test_array_bounds;
          Alcotest.test_case "lookup no aliasing" `Quick
            test_lookup_no_aliasing;
          Alcotest.test_case "canonical dump" `Quick test_dump_canonical;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "full hash counts rejections" `Quick
            test_full_hash_counts_rejections;
          Alcotest.test_case "ROA cap is reported" `Quick
            test_roa_cap_reported;
        ] );
    ]
