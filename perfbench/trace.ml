(* The traced run (--trace 1): per-layer metrics for each host.

   It measures from the benchmark's own files only. A traced pass runs
   the workload with an enabled registry and a real nanosecond clock, so
   the VMM fills its existing [xbgp_run_ns] / [xbgp_helper_ns]
   histograms; the benchmark times every scheduler step and reads the
   counters the daemons, pipes and caches already keep, as deltas over
   the measured window. Then each layer's public functions are replayed
   over the workload's own UPDATE stream and timed per call. Bench-side
   spans around all of it go to a bench-owned registry, written out as
   a Chrome trace at the end. *)

let buckets = 64

(* --- counters and histograms as deltas over the window --- *)

(* Histograms as their bucket counts followed by their exact sum. *)
type snapshot = {
  counters : ((string * (string * string) list), int) Hashtbl.t;
  hists : ((string * (string * string) list), int array) Hashtbl.t;
}

(* Histogram instances are found through the counter family that
   shares their labels: the registry lists counters, not histograms. *)
let hist_labels tele family =
  let sibling =
    if family = "xbgp_run_ns" then "xbgp_runs_total" else "xbgp_helper_calls_total"
  in
  List.filter_map
    (fun (f, l, _) -> if f = sibling then Some l else None)
    (Telemetry.counters tele)

let snapshot tele =
  let counters = Hashtbl.create 64 and hists = Hashtbl.create 16 in
  List.iter
    (fun (f, l, v) -> Hashtbl.replace counters (f, l) v)
    (Telemetry.counters tele);
  List.iter
    (fun family ->
      List.iter
        (fun l ->
          let h = Telemetry.histogram tele ~name:family ~labels:l () in
          Hashtbl.replace hists (family, l)
            (Array.init (buckets + 1) (fun k ->
                 if k = buckets then Telemetry.Histogram.sum h
                 else Telemetry.Histogram.bucket_count h k)))
        (hist_labels tele family))
    [ "xbgp_run_ns"; "xbgp_helper_ns" ];
  { counters; hists }

let label k l = List.assoc_opt k l

(* Sum of a counter family's deltas over the instances [pick] keeps. *)
let delta s0 s1 family pick =
  Hashtbl.fold
    (fun (f, l) v acc ->
      if f = family && pick l then
        acc + v - Option.value ~default:0 (Hashtbl.find_opt s0.counters (f, l))
      else acc)
    s1.counters 0

let dut l = label "daemon" l = Some "dut"
let any _ = true

(* Bucket-wise histogram delta, merged over the instances [pick] keeps. *)
let hist_delta s0 s1 family pick =
  let acc = Array.make (buckets + 1) 0 in
  Hashtbl.iter
    (fun (f, l) b1 ->
      if f = family && pick l then begin
        let b0 =
          Option.value ~default:(Array.make (buckets + 1) 0)
            (Hashtbl.find_opt s0.hists (f, l))
        in
        Array.iteri (fun i v -> acc.(i) <- acc.(i) + v - b0.(i)) b1
      end)
    s1.hists;
  acc

(* Percentile with {!Telemetry.Histogram}'s semantics: the upper bound
   of the bucket holding the rank. *)
let hist_percentile b p =
  let total = Array.fold_left ( + ) 0 (Array.sub b 0 buckets) in
  if total = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (ceil (p *. float total))) in
    let rec go k seen =
      let seen = seen + b.(k) in
      if seen >= rank || k = buckets - 1 then
        float (Telemetry.Histogram.bucket_upper k)
      else go (k + 1) seen
    in
    go 0 0
  end

let hist_sum b = float b.(buckets)

(* --- the bench-owned span registry --- *)

let spans =
  let t = Telemetry.create ~ring_capacity:65536 () in
  Telemetry.set_clock_us t (fun () -> Work.now_ns () / 1000);
  Telemetry.set_clock_ns t Work.now_ns;
  t

let with_span name tags f =
  let sp = Telemetry.span_begin spans ~tags name in
  Fun.protect ~finally:(fun () -> Telemetry.span_end spans sp) f

(* --- per-layer replays over the workload's UPDATE stream --- *)

(* ns per op of [f], which performs [n] ops per call: repeated until
   [min_s] has elapsed; [prepare] runs untimed before each call. *)
let ns_per_op ?(prepare = ignore) ?(min_s = 0.1) ~name ~host n f =
  with_span name [ ("host", host); ("ops_per_call", string_of_int n) ] (fun () ->
      let spent = ref 0 and calls = ref 0 in
      while !calls = 0 || float !spent *. 1e-9 < min_s do
        prepare ();
        let t0 = Work.now_ns () in
        f ();
        spent := !spent + (Work.now_ns () - t0);
        incr calls
      done;
      float !spent /. float (max 1 (!calls * n)))

let codec ~host (st : Work.stream) =
  let frames = Array.map (fun (_, u) -> Bgp.Message.encode (Update u)) st.timed in
  let n = Array.length frames in
  let decode =
    ns_per_op ~name:"codec.decode" ~host n (fun () ->
        Array.iter (fun f -> ignore (Sys.opaque_identity (Bgp.Message.decode f))) frames)
  in
  let encode =
    ns_per_op ~name:"codec.encode" ~host n (fun () ->
        Array.iter
          (fun (_, u) -> ignore (Sys.opaque_identity (Bgp.Message.encode (Update u))))
          st.timed)
  in
  (decode, encode)

(* The host's attribute representation, as the replays need it. *)
type 'a repr = {
  of_attrs : Bgp.Attr.t list -> 'a;
  get_tlv : 'a -> int -> bytes option;
  set_tlv : 'a -> bytes -> 'a;
  reset : unit -> unit;  (** fresh-process state between repetitions *)
  view : 'a Rib.Decision.view;  (** over a route carrying just these attrs *)
  med : 'a -> int;
}

(* Decision view over bare attribute sets: every candidate is an eBGP
   route with no IGP cost, told apart by the peer that sent it. *)
let frr_repr =
  let module A = Frrouting.Attr_intern in
  {
    of_attrs = A.of_attrs;
    get_tlv = A.get_tlv;
    set_tlv = A.set_tlv;
    reset = A.reset_intern_table;
    view =
      {
        local_pref = A.local_pref_or_default;
        as_path_len = (fun a -> a.as_path_len);
        origin = (fun a -> a.origin);
        med = A.med_or_default;
        neighbor_as = A.neighbor_as;
        is_ebgp = (fun _ -> true);
        igp_cost = (fun _ -> 0);
        originator_id = (fun a -> Option.value ~default:0 a.originator_id);
        cluster_list_len = (fun a -> List.length a.cluster_list);
        peer_addr = (fun _ -> 0);
      };
    med = A.med_or_default;
  }

let bird_repr =
  let module E = Bird.Eattr in
  {
    of_attrs = E.of_attrs;
    get_tlv = E.get_tlv;
    set_tlv = E.set_tlv;
    reset = ignore;
    view =
      {
        local_pref = E.local_pref;
        as_path_len = (fun s -> s.path_len);
        origin = E.origin;
        med = E.med;
        neighbor_as = E.neighbor_as;
        is_ebgp = (fun _ -> true);
        igp_cost = (fun _ -> 0);
        originator_id = E.originator_id;
        cluster_list_len = E.cluster_list_len;
        peer_addr = (fun _ -> 0);
      };
    med = E.med;
  }

(* Codes an extension reads through get_attr, and the community write
   origin validation makes through set_attr. *)
let read_codes =
  Bgp.Attr.[| code_as_path; code_next_hop; code_communities; code_med; code_originator_id |]

let tag_tlv = Bgp.Attr.to_tlv (Bgp.Attr.v (Communities [ Frrouting.Bgpd.ov_community_valid ]))

let adapter (type a) ~host (r : a repr) (st : Work.stream) =
  let attrs =
    Array.of_list
      (List.filter_map
         (fun (_, (u : Bgp.Message.update)) -> if u.nlri = [] then None else Some u.attrs)
         (Array.to_list st.timed))
  in
  let n = Array.length attrs in
  let of_attrs =
    ns_per_op ~prepare:r.reset ~name:"adapter.of_attrs" ~host n (fun () ->
        Array.iter (fun a -> ignore (Sys.opaque_identity (r.of_attrs a))) attrs)
  in
  r.reset ();
  let sets : a array = Array.map r.of_attrs attrs in
  let nc = Array.length read_codes in
  let get_tlv =
    ns_per_op ~name:"adapter.get_tlv" ~host (n * nc) (fun () ->
        Array.iter
          (fun s ->
            Array.iter (fun c -> ignore (Sys.opaque_identity (r.get_tlv s c))) read_codes)
          sets)
  in
  let set_tlv =
    ns_per_op ~name:"adapter.set_tlv" ~host n (fun () ->
        Array.iter (fun s -> ignore (Sys.opaque_identity (r.set_tlv s tag_tlv))) sets)
  in
  (of_attrs, get_tlv, set_tlv)

(* The stream through a standalone Loc-RIB: ns per [Loc_rib.update] over
   the timed part, and the share of those that changed the best route. *)
let rib (type a) ~host (r : a repr) (st : Work.stream) =
  r.reset ();
  let conv = Hashtbl.create 1024 in
  let set_of attrs =
    match Hashtbl.find_opt conv attrs with
    | Some s -> s
    | None ->
      let s = r.of_attrs attrs in
      Hashtbl.replace conv attrs s;
      s
  in
  let prepared =
    Array.map
      (fun (peer, (u : Bgp.Message.update)) ->
        (peer, u, if u.nlri = [] then None else Some (set_of u.attrs)))
      (Array.append st.preload st.timed)
  in
  let npre = Array.length st.preload in
  let fresh () =
    let rib : a Rib.Loc_rib.t = Rib.Loc_rib.create r.view in
    if st.med_decision then
      Rib.Loc_rib.set_compare rib
        (Some
           (fun a b ->
             let c = compare (r.med a) (r.med b) in
             if c <> 0 then c else Rib.Decision.compare r.view a b));
    rib
  in
  let apply rib changed (peer, (u : Bgp.Message.update), s) =
    let one p v =
      match Rib.Loc_rib.update rib ~peer p v with
      | Rib.Loc_rib.Unchanged -> ()
      | New_best _ | Withdrawn -> incr changed
    in
    List.iter (fun p -> one p None) u.withdrawn;
    List.iter (fun p -> one p s) u.nlri
  in
  let updates =
    Array.fold_left
      (fun acc (_, (u : Bgp.Message.update), _) ->
        acc + List.length u.withdrawn + List.length u.nlri)
      0
      (Array.sub prepared npre (Array.length prepared - npre))
  in
  let rib_ref = ref (fresh ()) and changed = ref 0 in
  let ns =
    ns_per_op ~name:"rib.loc_update" ~host updates
      ~prepare:(fun () ->
        rib_ref := fresh ();
        let scratch = ref 0 in
        for i = 0 to npre - 1 do
          apply !rib_ref scratch prepared.(i)
        done;
        changed := 0)
      (fun () ->
        for i = npre to Array.length prepared - 1 do
          apply !rib_ref changed prepared.(i)
        done)
  in
  (ns, float !changed /. float (max 1 updates))

(* The stream through a standalone update group of [members] peers: ns
   per [route_update], and per [take_classes] after each UPDATE. *)
let export (type a) ~host (r : a repr) ~members (st : Work.stream) =
  r.reset ();
  let sets =
    Array.map
      (fun (_, (u : Bgp.Message.update)) ->
        (u, if u.nlri = [] then None else Some (r.of_attrs u.attrs)))
      st.timed
  in
  let routes =
    Array.fold_left
      (fun acc ((u : Bgp.Message.update), _) ->
        acc + List.length u.withdrawn + List.length u.nlri)
      0 sets
  in
  let fresh () =
    let ug : a Rib.Update_group.t =
      Rib.Update_group.create ~daemon:"bench" ~equal:( == ) ()
    in
    let g = ref None in
    for m = 0 to members - 1 do
      g := Some (Rib.Update_group.join ug ~peer:m ~key:"all")
    done;
    (ug, Option.get !g)
  in
  let state = ref (fresh ()) in
  let route_update_ns = ref 0 and take_ns = ref 0 and rounds = ref 0 in
  let _ : float =
    ns_per_op ~name:"export.replay" ~host routes
      ~prepare:(fun () -> state := fresh ())
      (fun () ->
        let ug, g = !state in
        Array.iter
          (fun ((u : Bgp.Message.update), s) ->
            let t0 = Work.now_ns () in
            List.iter (fun p -> Rib.Update_group.route_update ug g p None) u.withdrawn;
            List.iter
              (fun p ->
                Rib.Update_group.route_update ug g p (Option.map (fun s -> (s, -1)) s))
              u.nlri;
            let t1 = Work.now_ns () in
            ignore (Sys.opaque_identity (Rib.Update_group.take_classes g));
            let t2 = Work.now_ns () in
            route_update_ns := !route_update_ns + (t1 - t0);
            take_ns := !take_ns + (t2 - t1))
          sets;
        incr rounds)
  in
  ( float !route_update_ns /. float (max 1 (!rounds * routes)),
    float !take_ns /. float (max 1 (!rounds * Array.length sets)) )

(* --- the traced pass --- *)

(* Physically distinct attribute sets among the DUT's best routes. *)
let attr_sets dut =
  let module P = Hashtbl.Make (struct
    type t = Obj.t

    let equal = ( == )
    let hash = Hashtbl.hash
  end) in
  let seen = P.create 1024 in
  let note a = P.replace seen (Obj.repr a) () in
  (match dut with
  | Scenario.Daemon.Frr d -> Frrouting.Bgpd.iter_loc d (fun _ r -> note r.attrs)
  | Bird d -> Bird.Bgpd.iter_loc d (fun _ r -> note r.attrs));
  P.length seen

(* What the traced pass saw: the pass itself, and the state read at
   the two edges of its measured window. *)
type traced = {
  pass : Work.pass;
  d : Work.deployment;
  s0 : snapshot;
  s1 : snapshot;
  vmm0 : int * int * int;  (** runs, insns, native fallbacks *)
  vmm1 : int * int * int;
  cache : int * int;  (** conversion-cache hits, misses *)
  groups : int;
  sets : int;
  loc : int;
  steps : int;
  step_ns : float array;  (** sorted *)
  in_flight_max : int;
  minor_words : float;
  major_collections : int;
}

let vmm_counts dut =
  match Scenario.Daemon.vmm dut with
  | Some v ->
    let s = Xbgp.Vmm.stats v in
    (s.runs, s.insns, s.native_fallbacks)
  | None -> (0, 0, 0)

let cache_stats : Work.host -> int * int = function
  | `Frr -> Frrouting.Attr_intern.conversion_cache_stats ()
  | `Bird -> Bird.Eattr.conversion_cache_stats ()

let reset_cache_stats : Work.host -> unit = function
  | `Frr -> Frrouting.Attr_intern.reset_conversion_cache_stats ()
  | `Bird -> Bird.Eattr.reset_conversion_cache_stats ()

let in_flight_max tele =
  List.fold_left
    (fun acc (f, l, _) ->
      if f = "net_in_flight_chunks" then
        max acc (Telemetry.Gauge.max_value (Telemetry.gauge tele ~name:f ~labels:l ()))
      else acc)
    0 (Telemetry.gauges tele)

let traced_pass (w : Work.workload) ~host ~seed ~slice_s =
  let tele = Telemetry.create ~ring_capacity:1024 () in
  let steps = ref 0 and step_ns = Work.Samples.create () in
  let timed_step sched =
    incr steps;
    let t0 = Work.now_ns () in
    let r = Netsim.Sched.step sched in
    Work.Samples.add step_ns (float (Work.now_ns () - t0));
    r
  in
  let ready = ref None and seen = ref None in
  let on_ready (d : Work.deployment) =
    Telemetry.set_clock_ns d.tele Work.now_ns;
    reset_cache_stats host;
    let sp =
      Telemetry.span_begin spans ~tags:[ ("host", Work.host_name host) ] "window"
    in
    ready :=
      Some
        ( snapshot d.tele,
          vmm_counts d.dut,
          sp,
          Gc.minor_words (),
          (Gc.quick_stat ()).major_collections );
    Work.step := timed_step
  in
  let on_window (d : Work.deployment) =
    Work.step := Netsim.Sched.step;
    let s0, vmm0, sp, minor0, major0 = Option.get !ready in
    let minor_words = Gc.minor_words () -. minor0 in
    let major_collections = (Gc.quick_stat ()).major_collections - major0 in
    Telemetry.span_end spans sp;
    let sorted = Work.Samples.to_array step_ns in
    Array.sort compare sorted;
    (* Everything is read here, at the window's end: the pass goes on to
       probes and checks before it returns, and only [pass] waits. *)
    let s1 = snapshot d.tele
    and vmm1 = vmm_counts d.dut
    and cache = cache_stats host
    and groups = Scenario.Daemon.group_count d.dut
    and sets = attr_sets d.dut
    and loc = Scenario.Daemon.loc_count d.dut
    and in_flight_max = in_flight_max d.tele in
    let steps = !steps in
    seen :=
      Some
        (fun pass ->
          {
            pass;
            d;
            s0;
            s1;
            vmm0;
            vmm1;
            cache;
            groups;
            sets;
            loc;
            steps;
            step_ns = sorted;
            in_flight_max;
            minor_words;
            major_collections;
          })
  in
  let pass =
    with_span "pass" [ ("host", Work.host_name host); ("workload", w.name) ] (fun () ->
        w.pass ~host ~seed ~check:false ~slice_s ~telemetry:tele { on_ready; on_window })
  in
  (Option.get !seen) pass

(* --- metrics --- *)

let per_route t x = x /. float (max 1 t.pass.ops)

let metrics (w : Work.workload) ~host ~seed ~(t : traced) ~untraced_s_per_op =
  let h = Work.host_name host in
  let d = t.d in
  let st = w.stream ~seed in
  let replays r =
    ( codec ~host:h st,
      adapter ~host:h r st,
      rib ~host:h r st,
      export ~host:h r ~members:d.receivers st )
  in
  let ( (decode_ns, encode_ns),
        (of_attrs_ns, get_tlv_ns, set_tlv_ns),
        (loc_ns, best_change),
        (ru_ns, tc_ns) ) =
    with_span "layers" [ ("host", h); ("workload", w.name) ] (fun () ->
        match host with `Frr -> replays frr_repr | `Bird -> replays bird_repr)
  in
  let ops = float t.pass.ops and recv = float d.receivers in
  let dd family pick = float (delta t.s0 t.s1 family pick) in
  let dut_tx_bytes =
    dd "net_tx_bytes_total" (fun l ->
        List.exists
          (fun (p, e) -> label "pipe" l = Some p && label "end" l = Some e)
          d.dut_tx)
  in
  let updates_rx_dut = dd "bgp_updates_rx_total" dut
  and updates_tx_dut = dd "bgp_updates_tx_total" dut in
  let rib_updates_dut = dd "bgp_routes_in_total" dut +. dd "bgp_withdrawals_rx_total" dut in
  let r0, i0, f0 = t.vmm0 and r1, i1, f1 = t.vmm1 in
  let runs = float (r1 - r0) in
  let run_hist point =
    hist_delta t.s0 t.s1 "xbgp_run_ns" (fun l ->
        label "host" l = Some "dut" && label "point" l = Some (Xbgp.Api.point_name point))
  in
  let inbound = run_hist Xbgp.Api.Bgp_inbound_filter
  and outbound = run_hist Xbgp.Api.Bgp_outbound_filter
  and decision = run_hist Xbgp.Api.Bgp_decision in
  let helper = hist_delta t.s0 t.s1 "xbgp_helper_ns" (fun l -> label "host" l = Some "dut") in
  let hits, misses = t.cache in
  let lookups =
    dd "xbgp_map_lookup_hits_total" any +. dd "xbgp_map_lookup_misses_total" any
  in
  (* What the layer replays explain of the traced window: each layer's
     ns per op times the ops the window performed, over every router in
     the deployment. Counts are inferred from the daemons' counters:
     every received frame was decoded once, and encoded once except for
     the fanned-out copies update groups saved; one attribute conversion
     per received UPDATE (batched NLRI); one Loc-RIB update and one
     update-group route update per received route; one flush per
     received UPDATE. VM time is the window's own [xbgp_run_ns]. *)
  let frames_rx =
    dd "bgp_updates_rx_total" any +. if d.sinks then updates_tx_dut else 0.
  in
  let avg_frame = dut_tx_bytes /. Float.max 1. updates_tx_dut in
  let copies = dd "bgp_fanout_bytes_saved_total" any /. Float.max 1. avg_frame in
  let rib_updates = dd "bgp_routes_in_total" any +. dd "bgp_withdrawals_rx_total" any in
  let updates_rx_all = dd "bgp_updates_rx_total" any in
  let vm_ns =
    hist_sum (hist_delta t.s0 t.s1 "xbgp_run_ns" (fun l -> label "host" l = Some "dut"))
  in
  let explained =
    (decode_ns *. frames_rx)
    +. (encode_ns *. (frames_rx -. copies))
    +. (of_attrs_ns *. updates_rx_all)
    +. ((loc_ns +. ru_ns) *. rib_updates)
    +. (tc_ns *. updates_rx_all)
    +. vm_ns
  in
  let window_ns = t.pass.window_s *. 1e9 in
  let traced_s_per_op = t.pass.window_s /. Float.max 1. ops in
  let m =
    [
      ("codec.decode_ns_per_frame", decode_ns, "ns");
      ("codec.encode_ns_per_frame", encode_ns, "ns");
      ("codec.frames_per_route", per_route t updates_rx_dut, "count");
      ("codec.wire_bytes_per_route", dut_tx_bytes /. (ops *. recv), "B");
      ("adapter.of_attrs_ns", of_attrs_ns, "ns");
      ("adapter.get_tlv_ns", get_tlv_ns, "ns");
      ("adapter.set_tlv_ns", set_tlv_ns, "ns");
      ("adapter.cache_hit_ratio", float hits /. float (max 1 (hits + misses)), "ratio");
      ("adapter.attr_sets_per_route", float t.sets /. float (max 1 t.loc), "count");
      ("vmm.runs_per_route", per_route t runs, "count");
      ("vmm.insns_per_route", per_route t (float (i1 - i0)), "count");
      ("vmm.fallbacks_per_run", float (f1 - f0) /. Float.max 1. runs, "ratio");
      ("vmm.map_lookups_per_route", per_route t lookups, "count");
      ("vmm.helper_ns_p50", hist_percentile helper 0.50, "ns");
      ("vmm.inbound.run_ns_p50", hist_percentile inbound 0.50, "ns");
      ("vmm.inbound.run_ns_p99", hist_percentile inbound 0.99, "ns");
      ("vmm.outbound.run_ns_p50", hist_percentile outbound 0.50, "ns");
      ("vmm.outbound.run_ns_p99", hist_percentile outbound 0.99, "ns");
      ("vmm.decision.run_ns_p50", hist_percentile decision 0.50, "ns");
      ("vmm.decision.run_ns_p99", hist_percentile decision 0.99, "ns");
      ("rib.loc_update_ns", loc_ns, "ns");
      ("rib.decisions_per_update", dd "bgp_decisions_total" dut /. Float.max 1. rib_updates_dut, "count");
      ("rib.best_change_ratio", best_change, "ratio");
      ("export.groups", float t.groups, "count");
      ("export.route_update_ns", ru_ns, "ns");
      ("export.take_classes_ns", tc_ns, "ns");
      ("export.updates_tx_per_route", updates_tx_dut /. (ops *. recv), "count");
      ("export.fanout_saved_bytes_per_route", per_route t (dd "bgp_fanout_bytes_saved_total" dut), "B");
      ("netsim.events_per_route", per_route t (float t.steps), "count");
      ("netsim.step_ns_p50", Work.percentile t.step_ns 0.50, "ns");
      ("netsim.step_ns_p99", Work.percentile t.step_ns 0.99, "ns");
      ("netsim.in_flight_max", float t.in_flight_max, "count");
      ("gc.minor_words_per_route", per_route t t.minor_words, "count");
      ("gc.major_collections", float t.major_collections, "count");
      ("trace.unexplained_share", 1. -. (explained /. Float.max 1. window_ns), "ratio");
      ("trace.overhead_pct", ((traced_s_per_op /. untraced_s_per_op) -. 1.) *. 100., "%");
    ]
  in
  List.map (fun (n, v, u) -> (h ^ "." ^ n, (v, u))) m

let write_chrome_trace ~workload ~seed =
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "trace-%s-s%d.json" workload seed) in
  let oc = open_out path in
  output_string oc (Telemetry.to_chrome_trace spans);
  close_out oc;
  path
