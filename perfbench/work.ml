(* The three workloads. One pass builds a fresh deployment (set-up),
   drives one timed window through it, and checks the routing outcome
   outside that window.

   Every deployment is pinned to the configuration the benchmark
   measures: the Block engine, batched NLRI processing, update groups,
   conversion caches on, one domain, and telemetry disabled unless the
   caller passes a registry (the traced run). *)

type host = [ `Frr | `Bird ]

let host_name : host -> string = function `Frr -> "frr" | `Bird -> "bird"
let engine = Ebpf.Vm.Block

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

(* Simulated sessions never run out of events (keepalive timers), so a
   bound on simulated time is what ends a run that does not converge. *)
let budget_us = 600_000_000

(* Every scheduler step goes through here: the traced run swaps in a
   timed step and counts events. *)
let step = ref Netsim.Sched.step

let drive ?(budget_us = budget_us) sched pred =
  let deadline = Netsim.Sched.now sched + budget_us in
  let rec go () =
    if pred () then true
    else if Netsim.Sched.now sched > deadline then false
    else if !step sched then go ()
    else pred ()
  in
  go ()

(* A growable buffer of unboxed floats: latency samples must not add a
   boxed allocation per step to the heap they are measuring. *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.create 4096; n = 0 }

  let add t x =
    if t.n = Float.Array.length t.a then begin
      let b = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Float.Array.set t.a t.n x;
    t.n <- t.n + 1

  let to_array t = Array.init t.n (Float.Array.get t.a)
end

(* Self-test switch: corrupt one expectation in 97, so every check must
   report failures. *)
let perturb = ref false
let perturbed i = !perturb && i mod 97 = 0

(* Live heap words after a full major collection. *)
let live_words () = (Gc.stat ()).Gc.live_words

type deployment = {
  sched : Netsim.Sched.t;
  dut : Scenario.Daemon.t;
  tele : Telemetry.t;
  receivers : int;  (** peers every operation must reach *)
  sinks : bool;
      (** receivers are scripted sinks, which decode frames but keep no
          daemon counters *)
  dut_tx : (string * string) list;  (** (pipe, end) labels of DUT sends *)
}

(* What one pass measured. [ops] are routes (bulk) or churn steps. *)
type pass = {
  setup_s : float;
  window_s : float;  (** the timed window: transfer, or summed steps *)
  ops : int;
  bytes_per_route : float;
  lat_us : float array;  (** probe or churn-step latencies *)
  attempted : int;
  failed : int;
}

(* Hooks the traced run installs around the timed window; the
   untraced run leaves them as no-ops. *)
type hooks = {
  on_ready : deployment -> unit;  (** set-up done, before the window *)
  on_window : deployment -> unit;  (** window done, before checks *)
}

let no_hooks = { on_ready = ignore; on_window = ignore }

(* The UPDATEs the DUT receives, rebuilt from the seed for the traced
   run's per-layer replays: [(peer, update)], with [preload] applied
   before the measured window (the churn table) and [timed] in it. *)
type stream = {
  preload : (int * Bgp.Message.update) array;
  timed : (int * Bgp.Message.update) array;
  med_decision : bool;  (** the DUT runs med_compare at BGP_DECISION *)
}

type workload = {
  name : string;
  table_size : int;
  stream : seed:int -> stream;
  pass :
    host:host ->
    seed:int ->
    check:bool ->
    slice_s:float ->
    ?telemetry:Telemetry.t ->
    hooks ->
    pass;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let rise_per_route w0 w1 n =
  float_of_int ((w1 - w0) * (Sys.word_size / 8)) /. float_of_int (max 1 n)

let find_value pred attrs =
  List.find_map
    (fun (a : Bgp.Attr.t) -> if pred a.value then Some a.value else None)
    attrs

(* ------------------------------------------------------------------ *)
(* fig3-rr                                                             *)
(* ------------------------------------------------------------------ *)

let fig3_size = 12_000
let fig3_probes = 600
let up_addr = Bgp.Prefix.addr_of_quad (10, 0, 0, 1)
let dut_addr = Bgp.Prefix.addr_of_quad (10, 0, 0, 2)

(* What the downstream router must hold for one table route once the
   DUT's route-reflector extension has reflected it. *)
let reflected i (r : Gen.route) =
  let cluster = if perturbed i then dut_addr + 1 else dut_addr in
  Bgp.Attr.sort_canonical
    (r.attrs
    @ Bgp.Attr.
        [
          v (Local_pref 100); v (Originator_id up_addr); v (Cluster_list [ cluster ]);
        ])

(* Downstream snapshots of the FRR-like DUT's check pass, compared with
   the BIRD-like DUT's: the two hosts must reflect identical tables. *)
let fig3_reference : (Bgp.Prefix.t * Bgp.Attr.t list) array option ref = ref None

let fig3_check ~host (table : Gen.table) (tb : Scenario.Testbed.t) =
  let snap =
    Array.of_list (Frrouting.Bgpd.loc_snapshot tb.downstream)
    |> Array.map (fun (p, a) -> (p, Bgp.Attr.sort_canonical a))
  in
  let expect = Hashtbl.create (Array.length table.routes) in
  Array.iteri (fun i (r : Gen.route) -> Hashtbl.replace expect r.prefix (reflected i r))
    table.routes;
  let bad = ref (Array.length table.routes - Array.length snap) in
  Array.iter
    (fun (p, a) ->
      match Hashtbl.find_opt expect p with
      | Some e when List.equal Bgp.Attr.equal e a -> ()
      | _ -> incr bad)
    snap;
  (match (host, !fig3_reference) with
  | `Frr, _ -> fig3_reference := Some snap
  | `Bird, Some ref_snap ->
    if Array.length ref_snap <> Array.length snap then
      bad := !bad + abs (Array.length ref_snap - Array.length snap)
    else
      Array.iteri
        (fun i (p, a) ->
          let p', a' = ref_snap.(i) in
          if not (Bgp.Prefix.equal p p' && List.equal Bgp.Attr.equal a a')
          then incr bad)
        snap
  | `Bird, None -> ());
  max 0 !bad

let fig3_pass ~host ~seed ~check ~slice_s:_ ?telemetry hooks =
  let t_setup = now_s () in
  let table = Gen.table ~seed ~count:fig3_size ~disjoint:false in
  let tb =
    Scenario.Testbed.create
      (Scenario.Testbed.mode ~host ~ibgp:true
         ~manifest:Xprogs.Route_reflector.manifest ~engine ?telemetry
         ~batch_updates:true ~update_groups:true ())
  in
  Scenario.Testbed.establish tb;
  let setup_s = now_s () -. t_setup in
  let d =
    {
      sched = tb.sched;
      dut = tb.dut;
      tele = tb.telemetry;
      receivers = 1;
      sinks = false;
      dut_tx = [ ("L1", "b"); ("L2", "a") ];
    }
  in
  let n = Array.length table.routes in
  Gc.compact ();
  let w0 = live_words () in
  hooks.on_ready d;
  let t0 = now_s () in
  Array.iter
    (fun (r : Gen.route) -> Frrouting.Bgpd.originate tb.upstream r.prefix r.attrs)
    table.routes;
  let ok =
    drive tb.sched (fun () -> Frrouting.Bgpd.loc_count tb.downstream >= n)
  in
  let window_s = now_s () -. t0 in
  hooks.on_window d;
  let w1 = live_words () in
  let failed = if ok then 0 else n - Frrouting.Bgpd.loc_count tb.downstream in
  let failed = if check then failed + fig3_check ~host table tb else failed in
  (* incremental-update latency on the loaded deployment *)
  let rng = Dataset.Prng.create (seed lxor 0x9e0b) in
  let probe_failed = ref 0 in
  let lat_us =
    Array.init fig3_probes (fun i ->
        let r = table.routes.(Dataset.Prng.int rng n) in
        let attrs = Gen.with_probe_community i r.attrs in
        let tag = Gen.probe_community i in
        let arrived () =
          match Frrouting.Bgpd.best_route tb.downstream r.prefix with
          | Some br -> br.attrs.communities = [ tag ]
          | None -> false
        in
        let t0 = now_s () in
        Frrouting.Bgpd.originate tb.upstream r.prefix attrs;
        let ok = drive ~budget_us:10_000_000 tb.sched arrived in
        let dt = now_s () -. t0 in
        if not ok then incr probe_failed;
        dt *. 1e6)
  in
  ignore (Sys.opaque_identity tb);
  {
    setup_s;
    window_s;
    ops = n;
    bytes_per_route = rise_per_route w0 w1 n;
    lat_us;
    attempted = n + fig3_probes;
    failed = failed + !probe_failed;
  }

(* ------------------------------------------------------------------ *)
(* star-ov-fanout                                                      *)
(* ------------------------------------------------------------------ *)

let ov_size = 12_000
let ov_spokes = 16
let ov_probes = 300

(* The validation tag a receiver must see on a route, per the hash ROA
   store's RFC 6483 semantics. *)
let ov_tag store i (r : Gen.route) =
  let origin = Option.value ~default:0 (Dataset.Ris_gen.origin_as r) in
  match Rpki.Store_hash.validate store r.prefix origin with
  | Rpki.Roa.Valid when not (perturbed i) -> Frrouting.Bgpd.ov_community_valid
  | Valid | Invalid -> Frrouting.Bgpd.ov_community_invalid
  | Not_found -> Frrouting.Bgpd.ov_community_notfound

let ov_check (table : Gen.table) store star =
  let rib = Scenario.Star.sink_rib star 1 in
  let expect = Hashtbl.create (Array.length table.routes) in
  Array.iteri (fun i (r : Gen.route) -> Hashtbl.replace expect r.prefix (ov_tag store i r))
    table.routes;
  let bad = ref (Array.length table.routes - List.length rib) in
  List.iter
    (fun (p, attrs) ->
      match
        (Hashtbl.find_opt expect p, find_value Gen.is_communities attrs)
      with
      | Some tag, Some (Bgp.Attr.Communities cs) when List.mem tag cs -> ()
      | _ -> incr bad)
    rib;
  max 0 !bad

(* Spoke [i]'s address, as {!Scenario.Star} assigns it. *)
let spoke_addr i = Bgp.Prefix.addr_of_quad (10, 1, 0, 2 + i)

let announce (attrs, nlri) = { Bgp.Message.withdrawn = []; attrs; nlri }

(* Spoke-side announcements: one multi-prefix UPDATE per attribute set. *)
let spoke_updates ~asn ~next_hop ?med (table : Gen.table) =
  Array.map
    (fun (first, k) ->
      let attrs =
        Gen.from_spoke ~asn ~next_hop table.routes.(first).attrs
      in
      let attrs =
        match med with
        | None -> attrs
        | Some m -> Gen.replace_value Gen.is_med (Med m) attrs
      in
      (attrs, List.init k (fun j -> table.routes.(first + j).prefix)))
    table.groups

let star_deployment star ~receivers ~spokes =
  {
    sched = Scenario.Star.sched star;
    dut = Scenario.Star.dut star;
    tele = Scenario.Star.telemetry star;
    receivers;
    sinks = true;
    dut_tx = List.init spokes (fun i -> (Printf.sprintf "S%d" i, "a"));
  }

let all_reached star ~from ~upto target =
  let ok = ref true in
  for i = from to upto do
    if Scenario.Star.sink_adv_seen star i < target.(i) then ok := false
  done;
  !ok

(* Stock origin validation cannot load a table-sized ROA file: the
   file must fit the 64 KiB ephemeral heap get_xtra copies it into (a
   larger one loads nothing), and the ROA map keeps 1024 entries; both
   fail silently. The deployment sizes them for the table: a larger VMM
   heap, and the operator's [map] directive. *)
let ov_vmm ?telemetry () =
  Xprogs.Registry.vmm_of_manifest ~heap_size:(1 lsl 18) ~engine ?telemetry
    ~host:"dut"
    (Xbgp.Manifest.with_maps
       [
         ( "origin_validation",
           Xbgp.Xprog.map ~name:"roa" ~shared:true
             ~max_entries:Ebpf.Map.max_max_entries ~key_size:8 ~value_size:4 ()
         );
       ]
       Xprogs.Origin_validation.manifest)

let ov_pass ~host ~seed ~check ~slice_s:_ ?telemetry hooks =
  let t_setup = now_s () in
  let table = Gen.table ~seed ~count:ov_size ~disjoint:true in
  let roas = Gen.roas ~seed table in
  let star =
    Scenario.Star.create ~host ~vmm:(ov_vmm ?telemetry ())
      ?telemetry ~update_groups:true ~batch_updates:true
      ~record_frames:false ~track_rib:check
      ~xtras:[ ("roa_table", Xprogs.Util.encode_roa_table roas) ]
      ~npeers:ov_spokes ()
  in
  Scenario.Star.establish star;
  let updates =
    spoke_updates ~asn:65101 ~next_hop:(spoke_addr 0) table
  in
  let setup_s = now_s () -. t_setup in
  let d = star_deployment star ~receivers:(ov_spokes - 1) ~spokes:ov_spokes in
  let n = Array.length table.routes in
  let last = ov_spokes - 1 in
  let target = Array.make ov_spokes n in
  Gc.compact ();
  let w0 = live_words () in
  hooks.on_ready d;
  let t0 = now_s () in
  Array.iter
    (fun (attrs, nlri) -> Scenario.Star.sink_announce star 0 ~attrs nlri)
    updates;
  let ok = drive d.sched (fun () -> all_reached star ~from:1 ~upto:last target) in
  let window_s = now_s () -. t0 in
  hooks.on_window d;
  let w1 = live_words () in
  let failed = ref 0 in
  if not ok then begin
    let least = ref n in
    for i = 1 to last do
      least := min !least (Scenario.Star.sink_adv_seen star i)
    done;
    failed := n - !least
  end;
  if check then
    failed := !failed + ov_check table (Rpki.Store_hash.of_list roas) star;
  let rng = Dataset.Prng.create (seed lxor 0x9e0b) in
  let lat_us =
    Array.init ov_probes (fun i ->
        let g = Dataset.Prng.int rng (Array.length updates) in
        let attrs, nlri = updates.(g) in
        let attrs = Gen.with_probe_community i attrs in
        for s = 1 to last do
          target.(s) <- Scenario.Star.sink_adv_seen star s + 1
        done;
        let t0 = now_s () in
        Scenario.Star.sink_announce star 0 ~attrs [ List.hd nlri ];
        let ok =
          drive ~budget_us:10_000_000 d.sched (fun () ->
              all_reached star ~from:1 ~upto:last target)
        in
        let dt = now_s () -. t0 in
        if not ok then incr failed;
        dt *. 1e6)
  in
  ignore (Sys.opaque_identity star);
  {
    setup_s;
    window_s;
    ops = n;
    bytes_per_route = rise_per_route w0 w1 n;
    lat_us;
    attempted = n + ov_probes;
    failed = !failed;
  }

(* ------------------------------------------------------------------ *)
(* churn-med                                                           *)
(* ------------------------------------------------------------------ *)

let churn_size = 4_000
let churn_receivers = 4
let source_as s = 65101 + s

let churn_base table =
  Array.init 2 (fun s ->
      spoke_updates ~asn:(source_as s) ~next_hop:(spoke_addr s)
        ~med:(Gen.initial_med + s) table)

let group_index (table : Gen.table) =
  let group_of = Array.make (Array.length table.routes) 0 in
  Array.iteri
    (fun g (first, k) ->
      for j = first to first + k - 1 do
        group_of.(j) <- g
      done)
    table.groups;
  group_of

(* One churn step as the UPDATE its source sends. *)
let step_update base group_of (table : Gen.table) (st : Gen.step) =
  match st with
  | Announce { source; prefix; med } ->
    let attrs, _ = base.(source).(group_of.(prefix)) in
    ( source,
      {
        Bgp.Message.withdrawn = [];
        attrs = Gen.replace_value Gen.is_med (Med med) attrs;
        nlri = [ table.routes.(prefix).prefix ];
      } )
  | Withdraw { source; prefix } ->
    ( source,
      { Bgp.Message.withdrawn = [ table.routes.(prefix).prefix ]; attrs = []; nlri = [] } )

let churn_pass ~host ~seed ~check ~slice_s ?telemetry hooks =
  let t_setup = now_s () in
  let table = Gen.table ~seed ~count:churn_size ~disjoint:false in
  let npeers = 2 + churn_receivers in
  let star =
    Scenario.Star.create ~host ~manifest:Xprogs.Med_compare.manifest ~engine
      ?telemetry ~update_groups:true ~batch_updates:true ~record_frames:false
      ~track_rib:false ~npeers ()
  in
  Scenario.Star.establish star;
  let base = churn_base table in
  let group_of = group_index table in
  let setup_a = now_s () -. t_setup in
  let n = churn_size in
  let last = npeers - 1 in
  let target = Array.make npeers n in
  Gc.compact ();
  let w0 = live_words () in
  let t_load = now_s () in
  for s = 0 to 1 do
    Array.iter
      (fun (attrs, nlri) -> Scenario.Star.sink_announce star s ~attrs nlri)
      base.(s)
  done;
  let dut = Scenario.Star.dut star in
  let loaded =
    drive (Scenario.Star.sched star) (fun () ->
        Scenario.Daemon.loc_count dut >= n && all_reached star ~from:2 ~upto:last target)
  in
  Scenario.Star.settle star;
  let setup_s = setup_a +. (now_s () -. t_load) in
  let w1 = live_words () in
  let d = star_deployment star ~receivers:churn_receivers ~spokes:npeers in
  let c = Gen.churn ~seed ~prefixes:n in
  let failed = ref (if loaded then 0 else n) in
  let lat = Samples.create () and steps = ref 0 and window_s = ref 0. in
  let prefix i = table.routes.(i).prefix in
  let expected_first p =
    source_as (if perturbed p then 1 - Gen.best c p else Gen.best c p)
  in
  (* the load fragmented the heap: compact it again before the window *)
  Gc.compact ();
  hooks.on_ready d;
  let t_end = now_s () +. slice_s in
  while now_s () < t_end do
    let st = Gen.next_step c in
    let p =
      match st with Announce { prefix; _ } | Withdraw { prefix; _ } -> prefix
    in
    let source, u = step_update base group_of table st in
    for s = 2 to last do
      target.(s) <- Scenario.Star.sink_adv_seen star s + 1
    done;
    let t0 = now_s () in
    if u.nlri = [] then Scenario.Star.sink_withdraw star source u.withdrawn
    else Scenario.Star.sink_announce star source ~attrs:u.attrs u.nlri;
    let ok =
      drive ~budget_us:10_000_000 d.sched (fun () ->
          all_reached star ~from:2 ~upto:last target)
    in
    let dt = now_s () -. t0 in
    window_s := !window_s +. dt;
    Samples.add lat (dt *. 1e6);
    incr steps;
    let right =
      match Scenario.Daemon.best_path dut (prefix p) with
      | Some (first :: _) -> first = expected_first p
      | _ -> false
    in
    if not (ok && right) then incr failed
  done;
  hooks.on_window d;
  if check then
    for p = 0 to n - 1 do
      match Scenario.Daemon.best_path dut (prefix p) with
      | Some (first :: _) when first = expected_first p -> ()
      | _ -> incr failed
    done;
  ignore (Sys.opaque_identity star);
  {
    setup_s;
    window_s = !window_s;
    ops = !steps;
    bytes_per_route = rise_per_route w0 w1 n;
    lat_us = Samples.to_array lat;
    attempted = n + !steps;
    failed = !failed;
  }

let fig3_stream ~seed =
  let table = Gen.table ~seed ~count:fig3_size ~disjoint:false in
  {
    preload = [||];
    timed =
      Array.map
        (fun (first, k) ->
          ( 0,
            announce
              ( table.routes.(first).attrs @ [ Bgp.Attr.v (Local_pref 100) ],
                List.init k (fun j -> table.routes.(first + j).prefix) ) ))
        table.groups;
    med_decision = false;
  }

let ov_stream ~seed =
  let table = Gen.table ~seed ~count:ov_size ~disjoint:true in
  {
    preload = [||];
    timed =
      Array.map
        (fun g -> (0, announce g))
        (spoke_updates ~asn:65101 ~next_hop:(spoke_addr 0) table);
    med_decision = false;
  }

(* The churn replay covers as many steps as a measured slice typically
   completes. *)
let churn_stream_steps = 20_000

let churn_stream ~seed =
  let table = Gen.table ~seed ~count:churn_size ~disjoint:false in
  let base = churn_base table and group_of = group_index table in
  let c = Gen.churn ~seed ~prefixes:churn_size in
  {
    preload =
      Array.concat
        (List.init 2 (fun s -> Array.map (fun g -> (s, announce g)) base.(s)));
    timed =
      Array.init churn_stream_steps (fun _ ->
          step_update base group_of table (Gen.next_step c));
    med_decision = true;
  }

let workloads =
  [
    { name = "fig3-rr"; table_size = fig3_size; stream = fig3_stream; pass = fig3_pass };
    { name = "star-ov-fanout"; table_size = ov_size; stream = ov_stream; pass = ov_pass };
    { name = "churn-med"; table_size = churn_size; stream = churn_stream; pass = churn_pass };
  ]
