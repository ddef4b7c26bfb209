(* The dispatch fast path: conversions after edits (an edited set must
   convert exactly as the same value rebuilt from scratch, for both
   hosts), batch-invariance analysis (which import chains may legally
   share one dispatch across an UPDATE's NLRI), batched NLRI processing
   (the import oracle: a K-prefix UPDATE must leave exactly the state of
   the same K prefixes sent as K single-prefix UPDATEs), and span
   sampling (counters exact, spans 1-in-N). *)

let qc = Qc.to_alcotest
let check = Alcotest.check
let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* --- generators ------------------------------------------------- *)

let gen_asn = QCheck2.Gen.int_range 1 0xFFFF
let gen_u32 = QCheck2.Gen.int_range 1 0xFFFFFFF

(* a well-formed attribute list: mandatory attributes always present,
   optional ones sometimes *)
let gen_attr_list =
  QCheck2.Gen.(
    let opt_attr g = option (map Bgp.Attr.v g) in
    map
      (fun (path, (med, (lp, (comms, (orig, cl))))) ->
        Bgp.Attr.(
          [
            v (Origin Igp);
            v (As_path [ Seq path ]);
            v (Next_hop 0x0A000001);
          ]
          @ List.filter_map Fun.id [ med; lp; comms; orig; cl ]))
      (pair
         (list_size (int_range 1 6) gen_asn)
         (pair
            (opt_attr (map (fun m -> Bgp.Attr.Med m) gen_u32))
            (pair
               (opt_attr (map (fun l -> Bgp.Attr.Local_pref l) gen_u32))
               (pair
                  (opt_attr
                     (map
                        (fun cs -> Bgp.Attr.Communities cs)
                        (list_size (int_range 1 4) gen_u32)))
                  (pair
                     (opt_attr
                        (map (fun o -> Bgp.Attr.Originator_id o) gen_u32))
                     (opt_attr
                        (map
                           (fun cl -> Bgp.Attr.Cluster_list cl)
                           (list_size (int_range 1 3) gen_u32)))))))))

(* a mutation: install/replace an attribute, remove one (a mandatory
   code stays in place on both hosts), or prepend to the AS path — the
   three edit paths *)
type mutation =
  | Set of Bgp.Attr.t
  | Remove of int
  | Prepend of int

let gen_mutation =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun m -> Set (Bgp.Attr.v (Bgp.Attr.Med m)))
          gen_u32;
        map
          (fun cs -> Set (Bgp.Attr.v (Bgp.Attr.Communities cs)))
          (list_size (int_range 1 4) gen_u32);
        map (fun l -> Set (Bgp.Attr.v (Bgp.Attr.Local_pref l))) gen_u32;
        map
          (fun c -> Remove c)
          (oneofl
             Bgp.Attr.
               [
                 code_origin;
                 code_next_hop;
                 code_med;
                 code_local_pref;
                 code_communities;
                 code_originator_id;
                 code_cluster_list;
               ]);
        map (fun a -> Prepend a) gen_asn;
      ])

let gen_case =
  QCheck2.Gen.(pair gen_attr_list (list_size (int_range 0 6) gen_mutation))

let all_codes =
  Bgp.Attr.
    [
      code_origin;
      code_as_path;
      code_next_hop;
      code_med;
      code_local_pref;
      code_atomic_aggregate;
      code_aggregator;
      code_communities;
      code_originator_id;
      code_cluster_list;
    ]

(* --- edited = rebuilt conversions -------------------------------- *)

(* Every xBGP-visible conversion of a set: the native encoding and each
   code's TLV, as comparable strings. *)
let observe ~encode ~get_tlv t =
  let buf = Buffer.create 64 in
  encode buf t;
  ( Buffer.contents buf,
    List.filter_map
      (fun c -> Option.map (fun b -> (c, Bytes.to_string b)) (get_tlv t c))
      all_codes )

(* After the build and after every mutation, the set must convert as the
   same value rebuilt with [of_attrs (to_attrs t)]: no edit path may
   leave state a fresh decode would not. *)
let edited_matches_rebuilt ~of_attrs ~to_attrs ~apply ~observe (attrs, muts) =
  let agrees t = observe t = observe (of_attrs (to_attrs t)) in
  let t0 = of_attrs attrs in
  agrees t0
  && snd
       (List.fold_left
          (fun (t, ok) m ->
            let t' = apply t m in
            (t', ok && agrees t'))
          (t0, true) muts)

let prop_frr_edited =
  let module A = Frrouting.Attr_intern in
  QCheck2.Test.make ~count:300 ~name:"frr edited = rebuilt conversions"
    gen_case
    (edited_matches_rebuilt ~of_attrs:A.of_attrs ~to_attrs:A.to_attrs
       ~apply:(fun t -> function
         | Set a -> A.set_tlv t (Bgp.Attr.to_tlv a)
         | Remove c -> A.remove t c
         | Prepend asn -> A.prepend_as t asn)
       ~observe:
         (observe ~get_tlv:A.get_tlv ~encode:(fun buf t ->
              List.iter (Bgp.Attr.encode_into_buffer buf) (A.to_attrs t))))

let prop_bird_edited =
  let module E = Bird.Eattr in
  QCheck2.Test.make ~count:300 ~name:"bird edited = rebuilt conversions"
    gen_case
    (edited_matches_rebuilt ~of_attrs:E.of_attrs ~to_attrs:E.to_attrs
       ~apply:(fun s -> function
         | Set a -> E.set_tlv s (Bgp.Attr.to_tlv a)
         | Remove c -> E.remove_code c s
         | Prepend asn -> E.prepend_as s asn)
       ~observe:(observe ~get_tlv:E.get_tlv ~encode:E.encode_known))

(* --- batch-invariance analysis ---------------------------------- *)

let vmm_of m = Xprogs.Registry.vmm_of_manifest ~host:"test" m

let test_batch_invariant () =
  let inv vmm =
    Xbgp.Vmm.batch_invariant vmm Xbgp.Api.Bgp_inbound_filter
      ~variant_args:[ Xbgp.Api.arg_prefix ]
  in
  (* empty chain: vacuously invariant *)
  check_bool "empty chain" true (inv (Xbgp.Vmm.create ~host:"test" ()));
  (* route reflection reads peer info and attributes only *)
  check_bool "route_reflector import" true
    (inv (vmm_of Xprogs.Route_reflector.manifest));
  (* origin validation fetches the prefix argument: the verdict varies
     across the batch *)
  check_bool "origin_validation import" false
    (inv (vmm_of Xprogs.Origin_validation.manifest));
  (* prefix_limit counts per-call map state: effectful *)
  check_bool "prefix_limit import" false
    (inv (vmm_of Xprogs.Prefix_limit.manifest));
  (* map-writing chains are excluded wholesale *)
  check_bool "flap_damping import" false
    (inv (vmm_of Xprogs.Flap_damping.manifest));
  check_bool "rate_limit import" false
    (inv (vmm_of Xprogs.Rate_limit.manifest));
  (* a read-only lookup is batchable on a hash map but stateful on an
     LRU map, whose recency refresh makes the run count observable *)
  let probe kind =
    let prog =
      let open Ebpf.Asm in
      assemble
        [
          stw R10 (-4) 0;
          movi R1 0;
          mov R2 R10;
          addi R2 (-4);
          call Xbgp.Api.h_map_lookup;
          movi R0 0;
          exit_;
        ]
    in
    let xp =
      Xbgp.Xprog.v ~name:"probe"
        ~maps:[ Xbgp.Xprog.map ~name:"m" ~kind ~key_size:4 ~value_size:4 () ]
        [ ("import", prog) ]
    in
    let vmm = Xbgp.Vmm.create ~host:"test" () in
    (match Xbgp.Vmm.register vmm xp with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    (match
       Xbgp.Vmm.attach vmm ~program:"probe" ~bytecode:"import"
         ~point:Xbgp.Api.Bgp_inbound_filter ~order:0
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    vmm
  in
  check_bool "hash-map read-only chain" true (inv (probe Ebpf.Map.Hash));
  check_bool "lru-map read is stateful" false (inv (probe Ebpf.Map.Lru));
  (* the argument id is r1 joined over every path to the call: a branch
     choosing between the peer argument and the prefix leaves it
     unresolved, which must count as "could read the prefix"; a constant
     set before the branch survives the join *)
  let branchy second =
    let vmm = Xbgp.Vmm.create ~host:"test" () in
    let xp =
      Xbgp.Xprog.v ~name:"branchy"
        [
          ( "import",
            Ebpf.Asm.(
              assemble
                [
                  call Xbgp.Api.h_get_peer_info;
                  movi R1 Xbgp.Api.arg_source;
                  jeqi R0 0 "join";
                  movi R1 second;
                  label "join";
                  call Xbgp.Api.h_get_arg;
                  movi R0 0;
                  exit_;
                ]) );
        ]
    in
    (match Xbgp.Vmm.register vmm xp with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    (match
       Xbgp.Vmm.attach vmm ~program:"branchy" ~bytecode:"import"
         ~point:Xbgp.Api.Bgp_inbound_filter ~order:0
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    inv vmm
  in
  check_bool "paths that disagree on the argument id" false
    (branchy Xbgp.Api.arg_prefix);
  check_bool "paths that agree on the argument id" true
    (branchy Xbgp.Api.arg_source)

let test_dispatch_summary () =
  let summary_of prog bc =
    match List.assoc bc (Xbgp.Vmm.verify prog) with
    | Ok facts -> facts
    | Error _ -> Alcotest.failf "%s/%s rejected" prog.Xbgp.Xprog.name bc
  in
  let rr = summary_of Xprogs.Route_reflector.program "import" in
  check_bool "rr import non-effectful" false rr.Xbgp.Vmm.effectful;
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "rr import arg reads" (Some []) rr.Xbgp.Vmm.arg_reads;
  let ov = summary_of Xprogs.Origin_validation.program "import" in
  check_bool "ov import non-effectful" false ov.Xbgp.Vmm.effectful;
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "ov import reads the prefix"
    (Some [ Xbgp.Api.arg_prefix ])
    ov.Xbgp.Vmm.arg_reads;
  let pl = summary_of Xprogs.Prefix_limit.program "import" in
  check_bool "prefix_limit import effectful (map writes)" true
    pl.Xbgp.Vmm.effectful;
  let fd = summary_of Xprogs.Flap_damping.program "import" in
  check_bool "flap_damping import effectful" true fd.Xbgp.Vmm.effectful;
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "flap_damping import reads map 0" (Some [ 0 ]) fd.Xbgp.Vmm.map_reads;
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "flap_damping import writes map 0" (Some [ 0 ]) fd.Xbgp.Vmm.map_writes;
  let rr = summary_of Xprogs.Route_reflector.program "import" in
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "rr import touches no maps" (Some []) rr.Xbgp.Vmm.map_writes

(* --- batched NLRI processing ≡ sequential ------------------------ *)

(* a table whose prefixes share attribute records in groups, so the
   upstream's flush emits genuine multi-prefix UPDATEs *)
let grouped_routes ~groups ~per_group =
  List.concat
    (List.init groups (fun g ->
         let attrs =
           Bgp.Attr.
             [
               v (Origin Igp);
               v (As_path [ Seq [ 65100 + g; 65200 ] ]);
               v (Next_hop 0x0A000001);
               v (Communities [ 0x00640000 + g ]);
             ]
         in
         List.init per_group (fun i ->
             {
               Dataset.Ris_gen.prefix =
                 Bgp.Prefix.v (0x0B000000 + (((g * per_group) + i) lsl 8)) 24;
               attrs;
             })))

let dut_state tb =
  ( Scenario.Daemon.loc_snapshot tb.Scenario.Testbed.dut,
    Frrouting.Bgpd.loc_snapshot tb.Scenario.Testbed.downstream )

(* Feed the upstream router: the whole table at once, so its flush packs
   prefixes sharing attributes into multi-prefix UPDATEs, or [split]:
   one route per flush, so every UPDATE towards the DUT carries one
   prefix. *)
let feed ~split (tb : Scenario.Testbed.t) routes =
  if split then
    List.iter
      (fun r ->
        Scenario.Testbed.feed tb [ r ];
        ignore (Netsim.Sched.run ~until:(Netsim.Sched.now tb.sched) tb.sched))
      routes
  else Scenario.Testbed.feed tb routes

(* the framing each leg promised actually reached the DUT *)
let check_framing ~split (tb : Scenario.Testbed.t) routes =
  let n = List.length routes in
  let rx = Scenario.Daemon.updates_rx tb.dut in
  if split then check_bool "one UPDATE per prefix reached the DUT" true (rx >= n)
  else check_bool "multi-prefix UPDATEs reached the DUT" true (rx < n)

let run_mode ~split mode routes =
  let tb = Scenario.Testbed.create mode in
  Scenario.Testbed.establish tb;
  feed ~split tb routes;
  check_bool "table converged" true
    (Scenario.Testbed.run_until_downstream_has tb (List.length routes));
  check_framing ~split tb routes;
  dut_state tb

let snap =
  Alcotest.testable
    (fun ppf s ->
      Fmt.pf ppf "%d prefixes, hash %d" (List.length s) (Hashtbl.hash s))
    ( = )

(* the import oracle: the same table in multi-prefix UPDATEs and in one
   UPDATE per prefix must leave the same DUT and downstream state *)
let batched_vs_split ~host ~mk_mode () =
  let routes = grouped_routes ~groups:4 ~per_group:8 in
  let batched = run_mode ~split:false (mk_mode ~host) routes in
  let split = run_mode ~split:true (mk_mode ~host) routes in
  check (Alcotest.pair snap snap) "batched = split state" split batched

(* route reflection: the chain is batch-invariant, so the batched run
   exercises the shared-verdict fast path *)
let rr_mode ~host =
  Scenario.Testbed.mode ~host ~ibgp:true
    ~manifest:Xprogs.Route_reflector.manifest ()

(* origin validation reads the prefix: the batched run must detect the
   variance and fall back to per-prefix dispatch, same final state *)
let ov_mode roas ~host =
  Scenario.Testbed.mode ~host ~ibgp:false
    ~manifest:Xprogs.Origin_validation.manifest
    ~xtras:[ ("roa_table", Xprogs.Util.encode_roa_table roas) ]
    ()

let test_batch_ov ~host () =
  let routes = grouped_routes ~groups:4 ~per_group:8 in
  let roas =
    Dataset.Ris_gen.roas_for ~seed:11 ~valid_pct:50 ~invalid_pct:25 routes
  in
  batched_vs_split ~host ~mk_mode:(ov_mode roas) ()

(* rate_limit writes its window map once per prefix: the batch gate must
   force per-prefix dispatch. Its window is one UPDATE by design, so
   splitting would change its verdicts; the oracle is the program's own
   contract instead. The window (5) is smaller than each multi-prefix
   UPDATE (8 prefixes), so exactly 5 prefixes of each of the 4 UPDATEs
   survive, and the upstream's slot counts 3 drops per UPDATE. One
   verdict per UPDATE would admit 0 or 8 of each. *)
let test_batch_map_chain ~host () =
  let routes = grouped_routes ~groups:4 ~per_group:8 in
  let admitted = 4 * 5 in
  let tb =
    Scenario.Testbed.create
      (Scenario.Testbed.mode ~host ~ibgp:false
         ~manifest:Xprogs.Rate_limit.manifest
         ~xtras:[ ("rate_limit", Xprogs.Util.encode_u32 5) ]
         ())
  in
  Scenario.Testbed.establish tb;
  feed ~split:false tb routes;
  check_bool "admitted prefixes converged" true
    (Scenario.Testbed.run_until_downstream_has tb admitted);
  check_framing ~split:false tb routes;
  check_int "5 of each UPDATE's 8 prefixes admitted" admitted
    (List.length (fst (dut_state tb)));
  let drops =
    match tb.Scenario.Testbed.dut_vmm with
    | None -> []
    | Some vmm ->
      List.concat_map
        (fun (_, maps) ->
          List.concat_map
            (fun (_, entries) ->
              List.filter_map
                (fun (_, v) ->
                  match Int32.to_int (String.get_int32_le v 4) with
                  | 0 -> None
                  | d -> Some d)
                entries)
            maps)
        (Xbgp.Vmm.map_state vmm)
  in
  check Alcotest.(list int) "one slot counted 3 drops per UPDATE" [ 12 ] drops

(* --- one outbound evaluation per UPDATE ---------------------------- *)

(* A hub with four sinks; sink 0 feeds the batch. [setup] and then
   [script] run after the sessions settle, sending every UPDATE split
   into one per prefix when [split] is set, and the leg reports the
   outbound runs and export rejections [script] caused, the hub's
   Loc-RIB, every sink's adj-RIB-in and every sink's raw UPDATE frame
   stream. *)
let star_peers = 4
let batch_k = 8
let star_pfx i = Bgp.Prefix.v (0x0C000000 + (i lsl 8)) 24
let star_batch = List.init batch_k star_pfx

let star_attrs path =
  Bgp.Attr.
    [ v (Origin Igp); v (As_path [ Seq path ]); v (Next_hop 0x0A010002) ]

let outbound_runs tele =
  let point = Xbgp.Api.point_name Xbgp.Api.Bgp_outbound_filter in
  List.fold_left
    (fun acc (name, labels, v) ->
      if name = "xbgp_runs_total" && List.assoc_opt "point" labels = Some point
      then acc + v
      else acc)
    0 (Telemetry.counters tele)

type star_leg = {
  star : Scenario.Star.t;
  runs : int;
  rejected : int;
  exporting_groups : int;  (** groups with a member other than sink 0 *)
  hub : (Bgp.Prefix.t * Bgp.Attr.t list) list;
  ribs : (Bgp.Prefix.t * Bgp.Attr.t list) list list;
  frames : string list list;
}

(* a VMM running [xp] with each named bytecode attached at its point *)
let vmm_with ?telemetry (xp, points) =
  let vmm = Xbgp.Vmm.create ?telemetry ~host:"dut" () in
  let ok = function Ok () -> () | Error e -> Alcotest.fail e in
  ok (Xbgp.Vmm.register vmm xp);
  List.iter
    (fun (bytecode, point) ->
      ok
        (Xbgp.Vmm.attach vmm ~program:xp.Xbgp.Xprog.name ~bytecode ~point
           ~order:0))
    points;
  vmm

let star_leg ?manifest ?xprog ?(ibgp = false) ?(rr_client = fun _ -> false)
    ?(setup = fun ~split:_ _ -> ()) ~host ~split script =
  let tele = Telemetry.create ~enabled:true () in
  let vmm = Option.map (vmm_with ~telemetry:tele) xprog in
  let star =
    Scenario.Star.create ~host ?manifest ?vmm ~telemetry:tele ~ibgp ~rr_client
      ~npeers:star_peers ()
  in
  Scenario.Star.establish star;
  Scenario.Star.settle star;
  setup ~split star;
  Scenario.Star.settle star;
  let dut = Scenario.Star.dut star in
  let runs0 = outbound_runs tele in
  let rej0 = (Scenario.Daemon.stats dut).Telemetry.export_rejected in
  script ~split star;
  Scenario.Star.settle star;
  let sinks = List.init star_peers Fun.id in
  {
    star;
    runs = outbound_runs tele - runs0;
    rejected = (Scenario.Daemon.stats dut).Telemetry.export_rejected - rej0;
    exporting_groups =
      List.length
        (List.filter
           (fun (_, ms) -> List.exists (fun m -> m <> 0) ms)
           (Scenario.Daemon.group_details dut));
    hub = Scenario.Daemon.loc_snapshot dut;
    ribs = List.map (Scenario.Star.sink_rib star) sinks;
    frames =
      List.map
        (fun i -> List.map Bytes.to_string (Scenario.Star.sink_frames star i))
        sinks;
  }

(* sink [i] sends [nlri] (or withdraws [wd]) in one UPDATE, or split
   into one UPDATE per prefix *)
let each ~split send nlri =
  if split then List.iter (fun p -> send [ p ]) nlri else send nlri

let sink_announce ~split star i ~attrs nlri =
  each ~split (Scenario.Star.sink_announce star i ~attrs) nlri

let sink_withdraw ~split star i wd =
  each ~split (Scenario.Star.sink_withdraw star i) wd

(* sink 0 announces the batch with [path] *)
let announce_path path ~split star =
  sink_announce ~split star 0 ~attrs:(star_attrs path) star_batch

let announce_batch = announce_path [ 65101 ]

(* the import oracle: the batched leg must leave what the split leg
   leaves *)
let check_same_as_split label (b : star_leg) (s : star_leg) =
  let same what x y =
    match Fuzz.Oracle.diff_snapshots ~what ~l0:"split" ~l1:"batched" x y with
    | None -> ()
    | Some d -> Alcotest.failf "%s: %s" label d
  in
  same "hub Loc-RIB" s.hub b.hub;
  List.iteri
    (fun i (x, y) -> same (Printf.sprintf "sink %d adj-RIB-in" i) x y)
    (List.combine s.ribs b.ribs)

(* the export oracle: every sink holds what the reference model derives
   from the hub's Loc-RIB under the chain [chain] *)
let check_export_model label ~chain (l : star_leg) =
  match Fuzz.Export_model.diff_star l.star ~chains:[ chain ] with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%s: %s" label d

let host_name = function `Frr -> "frr" | `Bird -> "bird"

(* [f] on both hosts *)
let each_export_path f =
  List.iter (fun host -> f ~label:(host_name host) ~host) [ `Frr; `Bird ]

let rr_leg ~host ~split script =
  star_leg ~manifest:Xprogs.Route_reflector.manifest ~ibgp:true
    ~rr_client:(fun i -> i < 2) ~host ~split script

(* the stock RR outbound chain never reads the prefix: one run per
   exporting group covers the UPDATE *)
let test_export_once_rr () =
  each_export_path (fun ~label ~host ->
      let l = rr_leg ~host ~split:false announce_batch in
      check_bool (label ^ ": some group exports") true (l.exporting_groups > 0);
      check_int
        (label ^ ": one outbound run per exporting group")
        l.exporting_groups l.runs;
      List.iteri
        (fun i rib ->
          if i > 0 then
            check_int
              (Printf.sprintf "%s: sink %d has the batch" label i)
              batch_k (List.length rib))
        l.ribs;
      check_export_model label ~chain:[ "route_reflector" ] l)

(* a richer RR script — a second source, a re-announcement that changes
   the exported attributes, withdrawals — must leave the split leg's hub
   RIB and sink RIBs exactly, and every sink must hold what the export
   model derives from the hub *)
let test_export_once_equivalence () =
  let script ~split star =
    announce_batch ~split star;
    Scenario.Star.settle star;
    sink_announce ~split star 2 ~attrs:(star_attrs [ 65001 ])
      (List.init 3 (fun i -> star_pfx (i + 6)));
    Scenario.Star.settle star;
    announce_path [ 65101; 65102 ] ~split star;
    Scenario.Star.settle star;
    sink_withdraw ~split star 0 [ star_pfx 1; star_pfx 7 ]
  in
  each_export_path (fun ~label ~host ->
      let b = rr_leg ~host ~split:false script in
      let s = rr_leg ~host ~split:true script in
      check_bool (label ^ ": fewer outbound runs") true (b.runs < s.runs);
      check_same_as_split label b s;
      check_export_model (label ^ " batched") ~chain:[ "route_reflector" ] b;
      check_export_model (label ^ " split") ~chain:[ "route_reflector" ] s)

(* a one-bytecode program attached at the outbound point *)
let outbound items =
  ( Xbgp.Xprog.v ~name:"out" [ ("export", Ebpf.Asm.assemble items) ],
    [ ("export", Xbgp.Api.Bgp_outbound_filter) ] )

(* r0 = 0 is filter_accept, 1 filter_reject *)
let accept_chain = outbound Ebpf.Asm.[ movi R0 0; exit_ ]
let reject_chain = outbound Ebpf.Asm.[ movi R0 1; exit_ ]

let prefix_reading_chain =
  outbound
    Ebpf.Asm.
      [
        movi R1 Xbgp.Api.arg_prefix;
        call Xbgp.Api.h_get_arg;
        movi R0 0;
        exit_;
      ]

(* eBGP sinks and a peer-blind chain share one update group, so one
   exporting group serves the whole batch *)
let test_export_prefix_reader () =
  List.iter
    (fun host ->
      let l =
        star_leg ~xprog:prefix_reading_chain ~host ~split:false announce_batch
      in
      check_int "one exporting group" 1 l.exporting_groups;
      check_int
        (host_name host ^ ": a prefix-reading chain runs once per prefix")
        batch_k l.runs)
    [ `Frr; `Bird ]

let test_export_reject_counts () =
  List.iter
    (fun host ->
      let run ~split = star_leg ~xprog:reject_chain ~host ~split announce_batch in
      let b = run ~split:false and s = run ~split:true in
      let label = host_name host in
      check_int (label ^ ": one evaluation for the batch") 1 b.runs;
      check_int (label ^ ": split leg runs k times") batch_k s.runs;
      check_int
        (label ^ ": rejections counted per prefix and target")
        (batch_k * (star_peers - 1))
        b.rejected;
      check_int (label ^ ": same rejections as split") s.rejected b.rejected)
    [ `Frr; `Bird ]

(* sink 1 holds a runner-up for one mid-batch prefix; sink 0's second
   UPDATE worsens its own path below it, so that prefix's new best is
   sink 1's route — a different record, which must get its own
   evaluation rather than sink 0's memoized one. The two routes share
   targets (sinks 2 and 3), so reusing the wrong record's result would
   show in their adj-RIB-ins. *)
let test_export_displaced_route () =
  let mid = star_pfx (batch_k / 2) in
  let setup ~split star =
    announce_batch ~split star;
    Scenario.Star.settle star;
    Scenario.Star.sink_announce star 1
      ~attrs:(star_attrs [ 65102; 65001 ])
      [ mid ]
  in
  each_export_path (fun ~label ~host ->
      let run ~split =
        star_leg ~xprog:accept_chain ~setup ~host ~split
          (announce_path [ 65101; 65001; 65002 ])
      in
      let b = run ~split:false and s = run ~split:true in
      (* one group: sink 0's route exports via sink 1, sink 1's via
         sink 0 *)
      check_int (label ^ ": one run per distinct new best") 2 b.runs;
      check_int (label ^ ": split leg runs k times") batch_k s.runs;
      check_bool (label ^ ": sink 0 now hears the runner-up") true
        (List.mem_assoc mid (List.nth b.ribs 0));
      check_same_as_split label b s;
      (* towards eBGP sinks the accept-all chain accepts exactly what
         native export accepts, so the model's native rules state it *)
      check_export_model label ~chain:[] b)

(* The import bytecode bumps a counter in a hash map once per prefix;
   the export bytecode copies the counter into MED. The export chain
   never reads the prefix, writes no map and reads no LRU map, so it is
   batch-invariant — but the state it reads moves between the batch's
   exports, so no export may be reused: every prefix must carry its own
   count, as on the per-prefix leg. *)
let counter_program =
  let key =
    Ebpf.Asm.[ stw R10 (-4) 0; movi R1 0; mov R2 R10; addi R2 (-4) ]
  in
  let import =
    key
    @ Ebpf.Asm.
        [
          call Xbgp.Api.h_map_lookup;
          movi R6 1;
          jeqi R0 0 "store";
          ldxw R6 R0 0;
          addi R6 1;
          label "store";
          stxw R10 (-8) R6;
        ]
    @ key
    @ Ebpf.Asm.
        [
          mov R3 R10;
          addi R3 (-8);
          call Xbgp.Api.h_map_update;
          movi R0 0;
          exit_;
        ]
  in
  let export =
    key
    @ Ebpf.Asm.
        [
          call Xbgp.Api.h_map_lookup;
          jeqi R0 0 "out";
          ldxw R6 R0 0;
          stxw R10 (-8) R6;
          movi R1 Bgp.Attr.code_med;
          movi R2 0x80;
          movi R3 4;
          mov R4 R10;
          addi R4 (-8);
          call Xbgp.Api.h_add_attr;
          label "out";
          movi R0 0;
          exit_;
        ]
  in
  ( Xbgp.Xprog.v ~name:"count"
      ~maps:
        [
          Xbgp.Xprog.map ~name:"n" ~kind:Ebpf.Map.Hash ~key_size:4
            ~value_size:4 ();
        ]
      [
        ("import", Ebpf.Asm.assemble import);
        ("export", Ebpf.Asm.assemble export);
      ],
    [
      ("import", Xbgp.Api.Bgp_inbound_filter);
      ("export", Xbgp.Api.Bgp_outbound_filter);
    ] )

let test_export_map_epoch () =
  check_bool "export bytecode is batch-invariant" true
    (Xbgp.Vmm.batch_invariant (vmm_with counter_program)
       Xbgp.Api.Bgp_outbound_filter ~variant_args:[ Xbgp.Api.arg_prefix ]);
  List.iter
    (fun host ->
      let run ~split =
        star_leg ~xprog:counter_program ~host ~split announce_batch
      in
      let b = run ~split:false and s = run ~split:true in
      let label = host_name host in
      (* the map read makes the chain peer-sensitive: one solo group per
         sink *)
      check_int
        (label ^ ": one export run per prefix and target")
        (batch_k * b.exporting_groups)
        b.runs;
      check_same_as_split label b s)
    [ `Frr; `Bird ]

(* --- an argument id with its high half set -------------------------- *)

(* Helpers read the low 32 bits of r1, so [lddw r1, 0x1_0000_0002]
   fetches the prefix (argument 2). The chain rejects prefixes whose
   third address byte is odd (blob header 4 bytes, then the address in
   network order), so verdicts differ across a batch. *)
let lddw_prefix_items =
  Ebpf.Asm.
    [
      lddw R1 0x1_0000_0002L;
      call Xbgp.Api.h_get_arg;
      jeqi R0 0 "accept";
      ldxb R0 R0 6;
      andi R0 1;
      exit_;
      label "accept";
      movi R0 0;
      exit_;
    ]

let lddw_prefix_program =
  ( Xbgp.Xprog.v ~name:"wide"
      [ ("filter", Ebpf.Asm.assemble lddw_prefix_items) ],
    [ ("filter", Xbgp.Api.Bgp_inbound_filter) ] )

let test_lddw_not_invariant () =
  check_bool "prefix read through a 64-bit id is not batch-invariant" false
    (Xbgp.Vmm.batch_invariant (vmm_with lddw_prefix_program)
       Xbgp.Api.Bgp_inbound_filter ~variant_args:[ Xbgp.Api.arg_prefix ])

(* an eBGP testbed whose DUT runs [xp]'s bytecodes at [points] *)
let testbed_with ~host (xp, points) =
  let tb =
    Scenario.Testbed.create
      (Scenario.Testbed.mode ~host ~ibgp:false ~manifest:Xbgp.Manifest.empty
         ())
  in
  let vmm = Option.get tb.Scenario.Testbed.dut_vmm in
  (match Xbgp.Vmm.register vmm xp with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (bytecode, point) ->
      match
        Xbgp.Vmm.attach vmm ~program:xp.Xbgp.Xprog.name ~bytecode ~point
          ~order:0
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    points;
  tb

let test_lddw_batch ~host () =
  let routes = grouped_routes ~groups:4 ~per_group:8 in
  (* 11.0.i.0/24 for i = 0..31: the even half is accepted *)
  let accepted = List.length routes / 2 in
  let run ~split =
    let tb = testbed_with ~host lddw_prefix_program in
    Scenario.Testbed.establish tb;
    feed ~split tb routes;
    check_bool "accepted half converged" true
      (Scenario.Testbed.run_until_downstream_has tb accepted);
    check_framing ~split tb routes;
    dut_state tb
  in
  let batched = run ~split:false in
  let split = run ~split:true in
  check_int "per-prefix verdicts: half the table downstream" accepted
    (List.length (snd split));
  check (Alcotest.pair snap snap) "batched = split state" split batched

let test_lddw_export () =
  let chain = outbound lddw_prefix_items in
  List.iter
    (fun host ->
      let run ~split = star_leg ~xprog:chain ~host ~split announce_batch in
      let b = run ~split:false and s = run ~split:true in
      let label = host_name host in
      check_int (label ^ ": one outbound run per prefix, no memo hit")
        (batch_k * b.exporting_groups)
        b.runs;
      check_int (label ^ ": as many runs as split") s.runs b.runs;
      check_same_as_split label b s)
    [ `Frr; `Bird ]

(* --- host agreement on extension-written attributes -------------- *)

(* An import filter that writes a COMMUNITIES attribute through add_attr
   with the given flags and payload length (the payload is 4 stack
   bytes, of which [len] are passed), then accepts. Both hosts must end
   in the same state: a 3-byte payload is refused on both (the
   BIRD-like host used to store it and then fail in the export flush),
   and off-default flags come back as the RFC defaults on both. *)
let add_community_program ~flags ~len =
  ( Xbgp.Xprog.v ~name:"tagger"
      [
        ( "filter",
          Ebpf.Asm.(
            assemble
              [
                stw R10 (-4) 0x01020304;
                movi R1 Bgp.Attr.code_communities;
                movi R2 flags;
                movi R3 len;
                mov R4 R10;
                addi R4 (-4);
                call Xbgp.Api.h_add_attr;
                movi R0 0;
                exit_;
              ]) );
      ],
    [ ("filter", Xbgp.Api.Bgp_inbound_filter) ] )

let test_add_attr_hosts_agree () =
  let routes = grouped_routes ~groups:2 ~per_group:4 in
  List.iter
    (fun (flags, len) ->
      let run host =
        let tb =
          testbed_with ~host (add_community_program ~flags ~len)
        in
        Scenario.Testbed.establish tb;
        Scenario.Testbed.feed tb routes;
        check_bool "table converged" true
          (Scenario.Testbed.run_until_downstream_has tb (List.length routes));
        dut_state tb
      in
      let label = Printf.sprintf "flags 0x%02x, %d-byte payload" flags len in
      let frr = run `Frr in
      check (Alcotest.pair snap snap) (label ^ ": frr = bird") frr (run `Bird);
      (* the stack word 0x01020304 is stored little-endian *)
      let tagged =
        List.filter
          (fun (_, attrs) ->
            List.mem (Bgp.Attr.v (Communities [ 0x04030201 ])) attrs)
          (fst frr)
      in
      check_int (label ^ ": routes tagged")
        (if len = 4 then List.length routes else 0)
        (List.length tagged))
    [ (0xC0, 4); (0x80, 4); (0xC0, 3) ]

(* --- candidates are the Adj-RIB-In -------------------------------- *)

(* The Loc-RIB candidate is the only per-(prefix, peer) record, so it
   must keep an Adj-RIB-In's guarantees. Sink [i] of a
   three-spoke eBGP star is peer [i]; hold time 3 s, so a dead link
   closes a session within 4 s of simulated time. *)

let cand_star host =
  let star =
    Scenario.Star.create ~host ~hold_time:3 ~npeers:3 ()
  in
  Scenario.Star.establish star;
  star

let cand_pfx i = Bgp.Prefix.v (0x0D000000 + (i lsl 8)) 24

(* sink [i] announces [nlri] with [extra] ASNs after its own *)
let cand_announce star i ?(extra = []) nlri =
  Scenario.Star.sink_announce star i
    ~attrs:
      Bgp.Attr.
        [
          v (Origin Igp);
          v (As_path [ Seq ((65101 + i) :: extra) ]);
          v (Next_hop (Scenario.Star.sink_address star i));
        ]
    nlri

(* the peers holding a candidate for [p], ascending; -1 = local *)
let cand_peers dut p =
  List.sort compare
    (List.map
       (fun (pr : Obs.Provenance.t) ->
         if pr.ingress = "local" then -1
         else Scanf.sscanf pr.ingress "peer sink%d" Fun.id)
       (Scenario.Daemon.provenance_candidates dut p))

let local_attrs =
  Bgp.Attr.[ v (Origin Igp); v (As_path []); v (Next_hop 0x0A000001) ]

let test_withdraw_no_candidate host () =
  let star = cand_star host in
  let dut = Scenario.Star.dut star in
  cand_announce star 0 [ cand_pfx 1 ];
  Scenario.Star.settle star;
  let stats0 = Scenario.Daemon.stats dut in
  let prov0 = Scenario.Daemon.provenance dut (cand_pfx 1) in
  (* sink 1 never announced either prefix; nobody announced prefix 2 *)
  Scenario.Star.sink_withdraw star 1 [ cand_pfx 1; cand_pfx 2 ];
  Scenario.Star.settle star;
  let stats1 = Scenario.Daemon.stats dut in
  check_int "updates_rx counts the UPDATE" (stats0.updates_rx + 1)
    stats1.updates_rx;
  check_bool "no other counter moves" true
    ({ stats1 with updates_rx = stats0.updates_rx } = stats0);
  check_bool "installed route keeps its record" true
    (Scenario.Daemon.provenance dut (cand_pfx 1) = prov0);
  check_bool "no record for the unknown prefix" true
    (Scenario.Daemon.provenance dut (cand_pfx 2) = None);
  check_bool "candidates unchanged" true (cand_peers dut (cand_pfx 1) = [ 0 ])

let test_close_drops_peer host () =
  let star = cand_star host in
  let dut = Scenario.Star.dut star in
  Scenario.Star.originate star (cand_pfx 0) local_attrs;
  cand_announce star 0 [ cand_pfx 0; cand_pfx 1; cand_pfx 2 ];
  cand_announce star 1 [ cand_pfx 1; cand_pfx 3 ];
  Scenario.Star.settle star;
  check_bool "sink 0 holds three candidates" true
    (List.for_all (fun i -> List.mem 0 (cand_peers dut (cand_pfx i))) [ 0; 1; 2 ]);
  Scenario.Star.set_link_up star 0 false;
  Scenario.Star.run_for star 4_000_000;
  check_bool "session closed" false (Scenario.Daemon.peer_established dut 0);
  check_bool "local kept" true (cand_peers dut (cand_pfx 0) = [ -1 ]);
  check_bool "other peer kept" true (cand_peers dut (cand_pfx 1) = [ 1 ]);
  check_bool "sink 0 alone: gone" true (cand_peers dut (cand_pfx 2) = []);
  check_bool "untouched prefix" true (cand_peers dut (cand_pfx 3) = [ 1 ]);
  check_bool "best is the other peer's" true
    (Scenario.Daemon.best_path dut (cand_pfx 1) = Some [ 65102 ]);
  match Scenario.Daemon.provenance dut (cand_pfx 2) with
  | Some pr -> Alcotest.(check string) "record" "withdrawn: session closed" pr.import
  | None -> Alcotest.fail "no record for the withdrawn prefix"

(* Random announce / withdraw / session-close scripts over three peers
   and four prefixes. After each script the DUT's candidates per prefix
   must be the reference table's peers, and its best the reference's
   (shortest path, then the lower sink: sink router ids ascend). *)
type cand_op =
  | Announce of int * int list * int  (** sink, prefixes, extra path length *)
  | Withdraw of int * int list
  | Close of int

let gen_cand_script =
  let open QCheck2.Gen in
  let pfxs = list_size (int_range 1 3) (int_range 0 3) in
  list_size (int_range 1 10)
    (frequency
       [
         (5, map3 (fun i ps n -> Announce (i, ps, n)) (int_range 0 2) pfxs (int_range 0 2));
         (3, map2 (fun i ps -> Withdraw (i, ps)) (int_range 0 2) pfxs);
         (1, map (fun i -> Close i) (int_range 0 2));
       ])

let print_cand_script ops =
  String.concat "; "
    (List.map
       (function
         | Announce (i, ps, n) ->
           Printf.sprintf "announce %d [%s] +%d" i
             (String.concat "," (List.map string_of_int ps)) n
         | Withdraw (i, ps) ->
           Printf.sprintf "withdraw %d [%s]" i
             (String.concat "," (List.map string_of_int ps))
         | Close i -> Printf.sprintf "close %d" i)
       ops)

let cand_script_matches host ops =
  let star = cand_star host in
  let dut = Scenario.Star.dut star in
  let model = Hashtbl.create 16 in
  List.iter
    (fun op ->
      (match op with
      | Announce (i, ps, n) ->
        let extra = List.init n (fun k -> 64600 + k) in
        cand_announce star i ~extra (List.map cand_pfx ps);
        List.iter (fun p -> Hashtbl.replace model (i, p) ((65101 + i) :: extra)) ps
      | Withdraw (i, ps) ->
        Scenario.Star.sink_withdraw star i (List.map cand_pfx ps);
        List.iter (fun p -> Hashtbl.remove model (i, p)) ps
      | Close i ->
        Scenario.Star.set_link_up star i false;
        Scenario.Star.run_for star 4_000_000;
        Scenario.Star.set_link_up star i true;
        Scenario.Star.restart star;
        if not (Scenario.Star.run_until star (fun () -> Scenario.Star.all_established star))
        then Alcotest.failf "sink %d did not re-establish" i;
        List.iter (fun p -> Hashtbl.remove model (i, p)) [ 0; 1; 2; 3 ]);
      Scenario.Star.settle star)
    ops;
  List.for_all
    (fun p ->
      let held = List.filter (fun i -> Hashtbl.mem model (i, p)) [ 0; 1; 2 ] in
      let best =
        List.fold_left
          (fun acc i ->
            let path = Hashtbl.find model (i, p) in
            match acc with
            | Some b when List.length b <= List.length path -> acc
            | _ -> Some path)
          None held
      in
      cand_peers dut (cand_pfx p) = held
      && Scenario.Daemon.best_path dut (cand_pfx p) = best)
    [ 0; 1; 2; 3 ]

let prop_candidates_model host =
  QCheck2.Test.make ~count:25 ~print:print_cand_script
    ~name:("candidate model: " ^ host_name host)
    gen_cand_script (cand_script_matches host)

(* --- span sampling ----------------------------------------------- *)

let test_span_sampling () =
  let runs = 64 and n = 8 in
  let spans_with sampling =
    let tele = Telemetry.create ~enabled:true () in
    Telemetry.set_span_sampling tele sampling;
    let vmm =
      Xprogs.Registry.vmm_of_manifest ~telemetry:tele ~host:"test"
        Xprogs.Route_reflector.manifest
    in
    let pi =
      {
        Xbgp.Host_intf.peer_type = Xbgp.Api.ibgp_session;
        peer_as = 65000;
        peer_router_id = 0x0A000001;
        peer_addr = 0x0A000001;
        local_as = 65000;
        local_router_id = 0x0A000002;
        cluster_id = 0x0A000002;
        rr_client = true;
      }
    in
    let ops =
      {
        Xbgp.Host_intf.null_ops with
        peer_info = (fun () -> Some pi);
        get_attr = (fun _ -> None);
      }
    in
    let args = Xbgp.Host_intf.Args.create () in
    Telemetry.reset_spans tele;
    let before =
      Telemetry.counter_value tele ~name:"xbgp_runs_total" ~labels:[]
    in
    for _ = 1 to runs do
      ignore
        (Xbgp.Vmm.run vmm Xbgp.Api.Bgp_inbound_filter ~ops ~args
           ~default:(fun () -> 0L))
    done;
    (Xbgp.Vmm.stats vmm, List.length (Telemetry.spans tele), before)
  in
  let stats_full, spans_full, _ = spans_with 1 in
  check_int "counters exact (full)" runs stats_full.Xbgp.Vmm.runs;
  check_bool "every dispatch spanned" true (spans_full >= runs);
  let stats_sampled, spans_sampled, _ = spans_with n in
  check_int "counters exact (sampled)" runs stats_sampled.Xbgp.Vmm.runs;
  check_bool
    (Printf.sprintf "1-in-%d sampling recorded %d spans" n spans_sampled)
    true
    (spans_sampled > 0 && spans_sampled <= (runs / n) + n)

let () =
  Alcotest.run "dispatch"
    [
      ("conversion", [ qc prop_frr_edited; qc prop_bird_edited ]);
      ( "batch-invariance",
        [
          Alcotest.test_case "chain analysis" `Quick test_batch_invariant;
          Alcotest.test_case "bytecode summaries" `Quick
            test_dispatch_summary;
        ] );
      ( "batched-updates",
        [
          Alcotest.test_case "rr frr" `Quick
            (batched_vs_split ~host:`Frr ~mk_mode:rr_mode);
          Alcotest.test_case "rr bird" `Quick
            (batched_vs_split ~host:`Bird ~mk_mode:rr_mode);
          Alcotest.test_case "ov frr" `Quick (test_batch_ov ~host:`Frr);
          Alcotest.test_case "ov bird" `Quick (test_batch_ov ~host:`Bird);
          Alcotest.test_case "map chain frr" `Quick
            (test_batch_map_chain ~host:`Frr);
          Alcotest.test_case "map chain bird" `Quick
            (test_batch_map_chain ~host:`Bird);
          Alcotest.test_case "export once: rr runs per group" `Quick
            test_export_once_rr;
          Alcotest.test_case "export once: same state as per-prefix" `Quick
            test_export_once_equivalence;
          Alcotest.test_case "export once: prefix-reading chain" `Quick
            test_export_prefix_reader;
          Alcotest.test_case "export once: rejections per prefix" `Quick
            test_export_reject_counts;
          Alcotest.test_case "export once: displaced route" `Quick
            test_export_displaced_route;
          Alcotest.test_case "export once: map writes between exports" `Quick
            test_export_map_epoch;
          Alcotest.test_case "lddw argument id: not batch-invariant" `Quick
            test_lddw_not_invariant;
          Alcotest.test_case "lddw argument id: frr" `Quick
            (test_lddw_batch ~host:`Frr);
          Alcotest.test_case "lddw argument id: bird" `Quick
            (test_lddw_batch ~host:`Bird);
          Alcotest.test_case "lddw argument id: export per prefix" `Quick
            test_lddw_export;
          Alcotest.test_case "add_attr: hosts agree" `Quick
            test_add_attr_hosts_agree;
        ] );
      ( "adj-rib-in",
        [
          Alcotest.test_case "withdraw without candidate: frr" `Quick
            (test_withdraw_no_candidate `Frr);
          Alcotest.test_case "withdraw without candidate: bird" `Quick
            (test_withdraw_no_candidate `Bird);
          Alcotest.test_case "session close: frr" `Quick
            (test_close_drops_peer `Frr);
          Alcotest.test_case "session close: bird" `Quick
            (test_close_drops_peer `Bird);
          qc (prop_candidates_model `Frr);
          qc (prop_candidates_model `Bird);
        ] );
      ( "telemetry",
        [ Alcotest.test_case "span sampling" `Quick test_span_sampling ] );
    ]
