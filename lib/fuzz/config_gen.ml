(* Seeded generation of chaos-campaign configuration points.

   A chaos case is a random point in the configuration matrix the
   daemons actually ship: host implementation x eBPF execution engine x
   batched updates x update groups x telemetry / span sampling x
   extension chain x topology — plus a seeded fault schedule to run
   against it. Like {!Gen}, everything is a pure
   function of (master seed, case index), so the shrinker and the
   replay file only ever need to record those two integers plus kept
   indices.

   The knob *grid* is part of the case: leg 0 is the generated point,
   and the remaining legs are systematic mutations (the other host, the
   next engine with every boolean knob flipped, and on star cases update
   groups alone flipped) — the oracle demands
   route-for-route equivalence across all legs of the same case, which
   is the configuration-space analogue of the FRR-vs-BIRD differential. *)

module Prng = Dataset.Prng

type knobs = {
  host : Scenario.Testbed.host;
  engine : Ebpf.Vm.engine;
  batch_updates : bool;
  update_groups : bool;
  telemetry : bool;  (** histograms and spans (counters always count) *)
  span_sampling : int;  (** 1-in-N span sampling, 1 = everything *)
}

type topology =
  | Star of { npeers : int }  (** DUT hub + scripted sinks, hold 3 s *)
  | Fabric of { fconfig : Scenario.Fabric.config; with_transit : bool }
      (** the Fig. 5 data-center fabric, hold 9 s *)

type feed =
  | Dut_originate  (** the DUT originates the table (export-side chaos) *)
  | Sink_announce  (** sink 0 announces it (full pipeline chaos) *)

type fault =
  | Flap of int  (** star: sink link down past the hold timer, restore *)
  | Mid_transfer_fail of int
      (** star: inject fresh routes, fail the link with frames in
          flight, restore after the hold timer *)
  | Roa_swap  (** swap the ROA table (set_xtra + rerun_init), re-feed *)
  | Detach_attach of string
      (** hot-detach one chain program, push a route through the
          shortened chain, re-attach per its manifest *)
  | Fabric_fail of int  (** fabric: fail link [i], settle, repair *)
  | Fabric_double_fail of int * int  (** fabric: two overlapping fails *)
  | Sink_feed of int
      (** star: sink [j] announces routes into the hub (a split-horizon
          source member of its own group), then withdraws half *)
  | Wd_race of int
      (** star: sink [j]'s withdrawal and sink [j+1]'s re-advertisement
          of the same prefixes land in one unsettled window *)
  | Detach of string
      (** star: detach an outbound program for good, with no export
          refresh — the live regroup path *)

type case = {
  seed : int;
  index : int;
  grid : knobs list;  (** equivalence legs; leg 0 is the case's point *)
  topology : topology;
  feed : feed;
  chain : string list;  (** registry manifest names, load order *)
  limit : int option;  (** prefix_limit threshold, when in the chain *)
  rate : int option;  (** rate_limit window, when in the chain *)
  faults : fault list;
  routes : Dataset.Ris_gen.route list;
  roas : Rpki.Roa.t list;  (** initial ROA table *)
  roas2 : Rpki.Roa.t list;  (** the table Roa_swap installs *)
}

(* --- names --- *)

let host_name = function `Frr -> "frr" | `Bird -> "bird"

let feed_name = function
  | Dut_originate -> "dut"
  | Sink_announce -> "sink"

let fault_name = function
  | Flap j -> Printf.sprintf "flap:%d" j
  | Mid_transfer_fail j -> Printf.sprintf "midfail:%d" j
  | Roa_swap -> "roa_swap"
  | Detach_attach p -> "rechain:" ^ p
  | Fabric_fail i -> Printf.sprintf "linkfail:%d" i
  | Fabric_double_fail (i, j) -> Printf.sprintf "doublefail:%d+%d" i j
  | Sink_feed j -> Printf.sprintf "sinkfeed:%d" j
  | Wd_race j -> Printf.sprintf "wdrace:%d" j
  | Detach p -> "detach:" ^ p

let topology_name = function
  | Star _ -> "star"
  | Fabric { fconfig = `Plain; _ } -> "fabric_plain"
  | Fabric { fconfig = `Same_as; _ } -> "fabric_same_as"
  | Fabric { fconfig = `Xbgp; _ } -> "fabric_xbgp"

let pp_knobs ppf k =
  Fmt.pf ppf "%s/%s batch%c groups%c tel%c s%d" (host_name k.host)
    (Ebpf.Vm.engine_name k.engine)
    (if k.batch_updates then '+' else '-')
    (if k.update_groups then '+' else '-')
    (if k.telemetry then '+' else '-')
    k.span_sampling

let pp_case ppf c =
  Fmt.pf ppf "chaos %d/%d %s feed=%s chain=[%s] faults=[%s] (%d legs, %d routes)"
    c.seed c.index (topology_name c.topology) (feed_name c.feed)
    (String.concat "," c.chain)
    (String.concat "," (List.map fault_name c.faults))
    (List.length c.grid) (List.length c.routes)

(* --- knob grid --- *)

let hosts = [| `Frr; `Bird |]
let engines = Array.of_list Ebpf.Vm.all_engines
let other_host = function `Frr -> `Bird | `Bird -> `Frr

let next_engine e =
  let n = Array.length engines in
  let rec idx i = if engines.(i) = e || i = n - 1 then i else idx (i + 1) in
  engines.((idx 0 + 1) mod n)

(* The draw order is part of the case: changing it gives every
   (seed, index) other knobs and breaks older chaos reproducers. *)
let gen_knobs rng =
  let span_sampling = Prng.choose rng [| 1; 1; 4; 16 |] in
  let telemetry = Prng.bool rng in
  let update_groups = Prng.bool rng in
  let batch_updates = Prng.bool rng in
  (* a retired knob's draw, kept so older reproducers still replay *)
  ignore (Prng.bool rng : bool);
  let engine = Prng.choose rng engines in
  let host = Prng.choose rng hosts in
  { host; engine; batch_updates; update_groups; telemetry; span_sampling }

(* Leg 1 crosses the host (the classic differential); leg 2 moves to the
   next engine and flips every boolean knob at once (any pairwise
   divergence still isolates to one leg pair, since legs are compared
   against leg 0); an occasional leg 3 crosses host *and* knobs. *)
let grid_of rng base =
  let cross = { base with host = other_host base.host } in
  let alt =
    {
      base with
      engine = next_engine base.engine;
      batch_updates = not base.batch_updates;
      update_groups = not base.update_groups;
      telemetry = not base.telemetry;
      span_sampling = (if base.span_sampling = 1 then 8 else 1);
    }
  in
  let legs = [ base; cross; alt ] in
  if Prng.int rng 3 = 0 then legs @ [ { alt with host = cross.host } ]
  else legs

(* --- chains --- *)

(* At most one outbound program per chain (two order-0 outbound
   attachments would tie, and execution order among ties is load-order
   trivia, not configuration space worth fuzzing); geoloc is excluded —
   its unknown-attribute host asymmetry is the documented use case, not
   a bug the oracle should drown in. *)
let gen_chain rng ~feed =
  let inbound =
    match feed with
    | Dut_originate -> [] (* locally originated routes skip the import path *)
    | Sink_announce ->
      (if Prng.int rng 2 = 0 then [ "origin_validation" ] else [])
      @ if Prng.int rng 3 = 0 then [ "prefix_limit" ] else []
  in
  let decision = if Prng.int rng 2 = 0 then [ "med_compare" ] else [] in
  let outbound =
    match Prng.int rng 3 with
    | 0 -> [ "community_strip" ]
    | 1 -> [ "igp_filter" ]
    | _ -> []
  in
  inbound @ decision @ outbound

(* --- fault schedules --- *)

(* Sink 0 is the feeder in Sink_announce cases; its link never flaps
   (a scripted sink does not re-announce after a reset, so flapping the
   feeder would just empty the table — the interesting churn is on the
   receiving spokes). *)
let gen_star_fault rng ~npeers ~feed ~chain =
  let target () =
    match feed with
    | Sink_announce -> 1 + Prng.int rng (npeers - 1)
    | Dut_originate -> Prng.int rng npeers
  in
  let candidates =
    [ `Flap; `Mid ]
    @ (if List.mem "origin_validation" chain then [ `Roa ] else [])
    @ if chain <> [] then [ `Detach ] else []
  in
  match Prng.choose rng (Array.of_list candidates) with
  | `Flap -> Flap (target ())
  | `Mid -> Mid_transfer_fail (target ())
  | `Roa -> Roa_swap
  | `Detach ->
    Detach_attach (Prng.choose rng (Array.of_list chain))

let gen_fabric_fault rng ~nlinks =
  if Prng.int rng 3 = 0 then begin
    let i = Prng.int rng nlinks in
    let j = (i + 1 + Prng.int rng (nlinks - 1)) mod nlinks in
    Fabric_double_fail (i, j)
  end
  else Fabric_fail (Prng.int rng nlinks)

(* --- putting a case together --- *)

let case ~seed ~index : case =
  let rng = Prng.create (seed + (index * 0x9E3779B1) + 0xc4a05) in
  let base = gen_knobs rng in
  let grid = grid_of rng base in
  if Prng.int rng 5 = 0 then begin
    (* a Fig. 5 fabric case: loopback-fed, link-level fault schedule *)
    let fconfig = Prng.choose rng [| `Plain; `Plain; `Same_as; `Xbgp; `Xbgp |] in
    let with_transit = Prng.int rng 4 = 0 in
    let nlinks =
      List.length (Dataset.Clos.fig5 ~with_transit ()).Dataset.Clos.links
    in
    let faults =
      List.init (1 + Prng.int rng 2) (fun _ -> gen_fabric_fault rng ~nlinks)
    in
    {
      seed;
      index;
      grid;
      topology = Fabric { fconfig; with_transit };
      feed = Dut_originate;
      chain = [];
      limit = None;
      rate = None;
      faults;
      routes = [];
      roas = [];
      roas2 = [];
    }
  end
  else begin
    let npeers = 2 + Prng.int rng 4 in
    let feed = if Prng.int rng 3 = 0 then Dut_originate else Sink_announce in
    let chain = gen_chain rng ~feed in
    let count = 6 + Prng.int rng 18 in
    let routes =
      Dataset.Ris_gen.generate
        {
          Dataset.Ris_gen.default_config with
          seed = (seed * 7919) + index + 17;
          count;
          disjoint = List.mem "origin_validation" chain;
        }
    in
    let limit =
      if not (List.mem "prefix_limit" chain) then None
      else if Prng.int rng 3 = 0 then
        Some (max 1 ((count / 2) + Prng.int rng (count / 2 + 1)))
      else Some (count + 8)
    in
    let roas, roas2 =
      if List.mem "origin_validation" chain then
        ( Dataset.Ris_gen.roas_for
            ~seed:(Prng.int rng 1_000_000)
            ~valid_pct:60 ~invalid_pct:20 routes,
          Dataset.Ris_gen.roas_for
            ~seed:(Prng.int rng 1_000_000)
            ~valid_pct:40 ~invalid_pct:40 routes )
      else ([], [])
    in
    let faults =
      List.init (Prng.int rng 4) (fun _ ->
          gen_star_fault rng ~npeers ~feed ~chain)
    in
    (* Map-carrying chain programs ride along on sink-fed cases,
       appended AFTER everything above has been drawn and from an
       independently seeded stream, so every existing (seed, index)
       case — and every pinned reproducer — keeps the exact same knobs,
       chain, faults and routes. The trade-off: Detach_attach faults
       generated above never target these two programs. *)
    let chain, rate =
      match feed with
      | Dut_originate -> (chain, None)
      | Sink_announce ->
        let mrng =
          Prng.create ((seed * 31) lxor (index * 0x85EBCA6B) lxor 0x6d6170)
        in
        let damp = Prng.int mrng 3 = 0 in
        let rate =
          if Prng.int mrng 3 = 0 then Some (Prng.int mrng 3) else None
        in
        ( chain
          @ (if damp then [ "flap_damping" ] else [])
          @ (if rate <> None then [ "rate_limit" ] else []),
          rate )
    in
    (* Likewise the export-side churn — split-horizon feeding, the
       withdrawal race and the live regroup — comes last, from its own
       stream, as one extra fault at the end of the schedule. *)
    let faults =
      let frng =
        Prng.create ((seed * 37) lxor (index * 0xC2B2AE35) lxor 0x66616e)
      in
      let outbound =
        List.filter (fun p -> p = "community_strip" || p = "igp_filter") chain
      in
      match (Prng.int frng 6, outbound) with
      | (0 | 1), _ -> faults @ [ Sink_feed (Prng.int frng npeers) ]
      | 2, _ -> faults @ [ Wd_race (Prng.int frng npeers) ]
      | 3, p :: _ -> faults @ [ Detach p ]
      | _ -> faults
    in
    (* the same point with update groups flipped: same host and batching,
       so its UPDATE frame streams must match leg 0's byte for byte *)
    let grid =
      grid @ [ { base with update_groups = not base.update_groups } ]
    in
    {
      seed;
      index;
      grid;
      topology = Star { npeers };
      feed;
      chain;
      limit;
      rate;
      faults;
      routes;
      roas;
      roas2;
    }
  end

(* --- restriction (shrinking / replay) --- *)

let keep indices l =
  match indices with
  | None -> l
  | Some idxs -> List.filteri (fun i _ -> List.mem i idxs) l

let restrict ?faults ?routes c =
  { c with faults = keep faults c.faults; routes = keep routes c.routes }
