(* Seeded generation of fuzz cases.

   A case is a random point in the configuration matrix the daemons
   actually ship: host implementation x eBPF execution engine x
   telemetry / span sampling x extension chain x topology — plus a
   seeded fault schedule to run against it, mutated
   wire frames for one star sink to send, and a set of raw eBPF programs
   for the engine check. Everything is a pure function of (master seed,
   case index), so the shrinker and the replay file only ever need to
   record those two integers plus kept indices into the case's named
   lists.

   The knob *grid* is part of the case: leg 0 is the generated point,
   and the remaining legs are systematic mutations (the other host, the
   next engine with telemetry flipped, and on star cases the same point
   with every multi-prefix UPDATE the sinks send split into one UPDATE
   per prefix) — the oracle demands route-for-route equivalence across
   all legs of the same case, which is the configuration-space form of
   the FRR-vs-BIRD differential, and the split leg is the metamorphic
   check of batched import.

   Hostile frames have no attribute restriction beyond the shared
   native vocabulary of their unmutated form; whatever a mutation does
   to them, both hosts must reach the same session fate and RIBs. *)

module Prng = Dataset.Prng

type knobs = {
  host : Scenario.Testbed.host;
  engine : Ebpf.Vm.engine;
  telemetry : bool;  (** histograms and spans (counters always count) *)
  span_sampling : int;  (** 1-in-N span sampling, 1 = everything *)
  split : bool;
      (** star: the sinks send one UPDATE per prefix (the import oracle's
          metamorphic leg) *)
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
  hostile : int;  (** star: the sink that sends [frames] *)
  frames : bytes list;
      (** star: mutated wire frames, sent after the fault schedule *)
  guided : bool;  (** [progs] are verifier-shaped rather than soup *)
  progs : Ebpf.Insn.t list list;  (** raw programs for the engine check *)
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
  Fmt.pf ppf "%s/%s tel%c s%d%s" (host_name k.host)
    (Ebpf.Vm.engine_name k.engine)
    (if k.telemetry then '+' else '-')
    k.span_sampling
    (if k.split then " split" else "")

let kinds c =
  (topology_name c.topology
  :: (if List.mem "route_reflector" c.chain then [ "rr_ibgp" ] else []))
  @ (if c.frames <> [] then [ "hostile_peer" ] else [])
  @
  match c.progs with
  | [] -> []
  | _ -> [ (if c.guided then "vm_guided" else "vm_soup") ]

let pp_case ppf c =
  Fmt.pf ppf
    "case %d/%d %s feed=%s chain=[%s] faults=[%s] (%d legs, %d routes, %d \
     frames, %d progs)"
    c.seed c.index
    (String.concat "+" (kinds c))
    (feed_name c.feed)
    (String.concat "," c.chain)
    (String.concat "," (List.map fault_name c.faults))
    (List.length c.grid) (List.length c.routes) (List.length c.frames)
    (List.length c.progs)

(* --- knob grid --- *)

let hosts = [| `Frr; `Bird |]
let engines = Array.of_list Ebpf.Vm.all_engines
let other_host = function `Frr -> `Bird | `Bird -> `Frr

let next_engine e =
  let n = Array.length engines in
  let rec idx i = if engines.(i) = e || i = n - 1 then i else idx (i + 1) in
  engines.((idx 0 + 1) mod n)

(* The draw order is part of the case: changing it gives every
   (seed, index) other knobs and breaks older reproducers. *)
let gen_knobs rng =
  let span_sampling = Prng.choose rng [| 1; 1; 4; 16 |] in
  let telemetry = Prng.bool rng in
  (* three retired knobs' draws (update groups, batched updates,
     conversion caches), kept so older reproducers still replay *)
  for _ = 1 to 3 do
    ignore (Prng.bool rng : bool)
  done;
  let engine = Prng.choose rng engines in
  let host = Prng.choose rng hosts in
  { host; engine; telemetry; span_sampling; split = false }

(* Leg 1 crosses the host (the classic differential); leg 2 moves to the
   next engine and flips telemetry (any pairwise divergence still
   isolates to one leg pair, since legs are compared against leg 0); an
   occasional leg 3 crosses host *and* knobs. *)
let grid_of rng base =
  let cross = { base with host = other_host base.host } in
  let alt =
    {
      base with
      engine = next_engine base.engine;
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

(* --- hostile wire frames --- *)

(* Attribute values span the vocabulary both hosts represent natively
   (AS_SETs, 32-bit ASNs, aggregators included); the mutations below
   then break frames at the byte level. *)

let gen_addr rng = Int64.to_int (Prng.next_int64 rng) land 0xFFFFFFFF

let gen_asn rng =
  (* mostly 16-bit, occasionally 32-bit (RFC 6793); never near the
     DUT's own AS, which would trip loop detection *)
  let a =
    if Prng.int rng 8 = 0 then 70_000 + Prng.int rng 1_000_000
    else 1 + Prng.int rng 64_000
  in
  if a >= 64_990 && a <= 65_010 then a + 100 else a

let gen_attrs rng =
  let open Bgp.Attr in
  let as_path =
    List.init (1 + Prng.int rng 2) (fun _ ->
        let asns = List.init (1 + Prng.int rng 4) (fun _ -> gen_asn rng) in
        if Prng.int rng 8 = 0 then Set asns else Seq asns)
  in
  let opt p value = if Prng.int rng p = 0 then [ v value ] else [] in
  [
    v (Origin (Prng.choose rng [| Igp; Egp; Incomplete |]));
    v (As_path as_path);
    v (Next_hop (gen_addr rng));
  ]
  @ opt 3 (Med (Prng.int rng 1000))
  @ opt 4
      (Communities
         (List.init
            (1 + Prng.int rng 3)
            (fun _ -> (Prng.int rng 65_536 lsl 16) lor Prng.int rng 65_536)))
  @ opt 8 Atomic_aggregate
  @ opt 8 (Aggregator (gen_asn rng, gen_addr rng))
  (* now and then stray flag bits (partial, or the unused low nibble):
     decodable, but neither host may let them into xBGP-visible state *)
  |> List.map (fun (a : t) ->
         if Prng.int rng 6 <> 0 then a
         else
           let stray = Prng.choose rng [| flag_partial; 1; 4; 8 |] in
           { a with flags = a.flags lor stray })

let gen_prefix rng = Bgp.Prefix.v (gen_addr rng) (8 + Prng.int rng 21)

let gen_update_frame rng =
  let nlri = List.init (1 + Prng.int rng 3) (fun _ -> gen_prefix rng) in
  let attrs = gen_attrs rng in
  let withdrawn = if Prng.int rng 5 = 0 then [ gen_prefix rng ] else [] in
  Bgp.Message.encode (Bgp.Message.Update { withdrawn; attrs; nlri })

(* A frame with a valid header but an arbitrary body. *)
let gen_garbage_frame rng =
  let len = Bgp.Message.header_size + Prng.int rng 64 in
  let b = Bytes.create len in
  Bytes.fill b 0 16 '\xff';
  Bytes.set_uint16_be b 16 len;
  Bytes.set_uint8 b 18 (1 + Prng.int rng 5) (* types 1..4 valid, 5 not *);
  for i = Bgp.Message.header_size to len - 1 do
    Bytes.set_uint8 b i (Prng.int rng 256)
  done;
  b

let mutate_frame rng frame =
  let len = Bytes.length frame in
  let hdr = Bgp.Message.header_size in
  match Prng.int rng 4 with
  | 0 -> frame (* pass through unmodified *)
  | 1 ->
    (* flip one bit past the marker: corrupts length, type or body *)
    let b = Bytes.copy frame in
    let pos = 16 + Prng.int rng (max 1 (len - 16)) in
    Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl Prng.int rng 8));
    b
  | _ when len <= hdr -> frame
  | 2 ->
    (* truncate the body and patch the length so the frame deframes *)
    let keep = hdr + Prng.int rng (len - hdr) in
    let b = Bytes.sub frame 0 keep in
    Bytes.set_uint16_be b 16 keep;
    b
  | _ ->
    (* corrupt one body byte (the header stays valid) *)
    let b = Bytes.copy frame in
    Bytes.set_uint8 b (hdr + Prng.int rng (len - hdr)) (Prng.int rng 256);
    b

let gen_frames rng =
  List.init (1 + Prng.int rng 8) (fun _ ->
      if Prng.int rng 6 = 0 then gen_garbage_frame rng
      else mutate_frame rng (gen_update_frame rng))

(* --- eBPF programs --- *)

let all_regs = Ebpf.Insn.[| R0; R1; R2; R3; R4; R5; R6; R7; R8; R9; R10 |]
let scratch_regs = Ebpf.Insn.[| R0; R1; R2; R3; R4; R5 |]
let sizes = Ebpf.Insn.[| W8; W16; W32; W64 |]

let alu_ops =
  Ebpf.Insn.[| Add; Sub; Mul; Div; Or; And; Lsh; Rsh; Neg; Mod; Xor; Mov; Arsh |]

let conds = Ebpf.Insn.[| Eq; Gt; Ge; Set; Ne; Sgt; Sge; Lt; Le; Slt; Sle |]

(* helper ids the oracle's recording helpers answer *)
let helper_ids = 25

let gen_soup_insn rng =
  let open Ebpf.Insn in
  let reg () = Prng.choose rng all_regs in
  let width () = if Prng.bool rng then W64bit else W32bit in
  let src () =
    if Prng.bool rng then Imm (Int32.of_int (Prng.int rng 1024 - 512))
    else Reg (reg ())
  in
  let off () = Prng.int rng 1100 - 550 in
  match Prng.int rng 10 with
  | 0 | 1 -> Alu (width (), Prng.choose rng alu_ops, reg (), src ())
  | 2 -> Lddw (reg (), Prng.next_int64 rng)
  | 3 -> Ldx (Prng.choose rng sizes, reg (), reg (), off ())
  | 4 ->
    St (Prng.choose rng sizes, reg (), off (), Int32.of_int (Prng.int rng 256))
  | 5 -> Stx (Prng.choose rng sizes, reg (), off (), reg ())
  | 6 -> Ja (Prng.int rng 16 - 5)
  | 7 -> Jcond (width (), Prng.choose rng conds, reg (), src (), Prng.int rng 16 - 5)
  | 8 -> Call (Prng.int rng helper_ids)
  | _ ->
    if Prng.int rng 3 = 0 then Exit
    else
      Endian
        ( (if Prng.bool rng then Le else Be),
          reg (),
          Prng.choose rng [| 16; 32; 64 |] )

let gen_soup_prog rng =
  List.init (1 + Prng.int rng 30) (fun _ -> gen_soup_insn rng)
  @ [ Ebpf.Insn.Exit ]

(* Verifier-clean programs: ALU and stack traffic, forward conditional
   jumps only (both branches stay reachable, so the dead-code check
   holds), and helper calls whose r1 is a constant — set right before
   the call, or through a join whose two edges carry the same or
   different constants, so the verifier's call-site facts have both
   resolved and unresolved sites to answer for. No Lddw, so slot
   numbering equals instruction numbering; a jump skips [remaining]
   steps at most, and steps only ever expand into more instructions,
   so every target stays in bounds. *)
let gen_guided_prog rng =
  let open Ebpf.Insn in
  let n = 4 + Prng.int rng 20 in
  let reg () = Prng.choose rng scratch_regs in
  let width () = if Prng.bool rng then W64bit else W32bit in
  let imm k = Imm (Int32.of_int k) in
  let cond () = Prng.choose rng conds in
  let const () = imm (Prng.int rng 64) in
  let slot () = -8 * (1 + Prng.int rng 63) in
  let call () = Call (Prng.int rng helper_ids) in
  let step remaining =
    match Prng.int rng 8 with
    | 0 | 1 ->
      let op =
        Prng.choose rng
          [| Add; Sub; Mul; Or; And; Xor; Mov; Arsh; Neg; Div; Mod |]
      in
      let src =
        match op with
        | _ when Prng.bool rng -> Reg (reg ())
        | Div | Mod -> imm (1 + Prng.int rng 1000) (* nonzero *)
        | _ -> imm (Prng.int rng 2048 - 1024)
      in
      [ Alu (width (), op, reg (), src) ]
    | 2 ->
      let w = width () in
      let bits = match w with W32bit -> 32 | W64bit -> 64 in
      [ Alu (w, Prng.choose rng [| Lsh; Rsh |], reg (), imm (Prng.int rng bits)) ]
    | 3 -> [ Stx (Prng.choose rng sizes, R10, slot (), reg ()) ]
    | 4 -> [ Ldx (Prng.choose rng sizes, reg (), R10, slot ()) ]
    | 5 -> [ Alu (W64bit, Mov, R1, const ()); call () ]
    | 6 ->
      let k1 = const () in
      let k2 = if Prng.bool rng then k1 else const () in
      [
        Jcond (width (), cond (), reg (), imm (Prng.int rng 256), 2);
        Alu (W64bit, Mov, R1, k1);
        Ja 1;
        Alu (W64bit, Mov, R1, k2);
        call ();
      ]
    | _ when remaining > 0 ->
      let src =
        if Prng.bool rng then imm (Prng.int rng 256) else Reg (reg ())
      in
      [ Jcond (width (), cond (), reg (), src, Prng.int rng remaining) ]
    | _ -> [ Alu (W64bit, Mov, reg (), Imm 0l) ]
  in
  let body = List.concat (List.init n (fun i -> step (n - i - 1))) in
  (Alu (W64bit, Mov, R0, Imm 0l) :: body) @ [ Exit ]

(* --- putting a case together --- *)

let feed_prefix k = Bgp.Prefix.v (Bgp.Prefix.addr_of_quad (198, 18, k, 0)) 24

(* Exact-prefix ROAs over the sinks' own feed, drawn from no RNG so
   every case keeps its other fields: feed prefix 1 is valid from sink 0
   (origin AS 65101) and invalid from every other sink, feed prefix 3 is
   invalid from all of them, the rest are not-found. One multi-prefix
   UPDATE of a [Sink_feed] or [Wd_race] fault thus mixes all three
   origin-validation tags, so sharing one import verdict across it would
   show on the split leg. *)
let feed_roas =
  [
    Rpki.Roa.v (feed_prefix 1) ~max_len:24 ~asn:65101;
    Rpki.Roa.v (feed_prefix 3) ~max_len:24 ~asn:64512;
  ]

let topology_case ~seed ~index : case =
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
      hostile = 0;
      frames = [];
      guided = false;
      progs = [];
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
            ~valid_pct:60 ~invalid_pct:20 routes
          @ feed_roas,
          Dataset.Ris_gen.roas_for
            ~seed:(Prng.int rng 1_000_000)
            ~valid_pct:40 ~invalid_pct:40 routes
          @ feed_roas )
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
    (* the same point with every multi-prefix UPDATE a sink sends split
       into one UPDATE per prefix: routing state, provenance and map
       state must not notice. rate_limit's window is one UPDATE by
       design, so splitting changes its verdicts; cases carrying it get
       no split leg. *)
    let grid =
      if List.mem "rate_limit" chain then grid
      else grid @ [ { base with split = true } ]
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
      hostile = 0;
      frames = [];
      guided = false;
      progs = [];
    }
  end

(* The engine check's programs, a star sink's hostile frames and the
   route-reflector variant came after everything above, each drawn from
   its own stream, so every earlier (seed, index) keeps its knobs,
   chain, routes and faults. A route-reflector case makes every sink an
   iBGP route-reflector client and appends route_reflector to the
   chain — only on chains without an outbound program, which its export
   bytecode would tie with. *)
let case ~seed ~index =
  let c = topology_case ~seed ~index in
  let stream salt =
    Prng.create ((seed * 41) lxor (index * 0x27D4EB2F) lxor salt)
  in
  let vrng = stream 0x766d in
  let guided = Prng.int vrng 3 = 0 in
  let gen = if guided then gen_guided_prog else gen_soup_prog in
  let c =
    { c with guided; progs = List.init (1 + Prng.int vrng 3) (fun _ -> gen vrng) }
  in
  match c.topology with
  | Fabric _ -> c
  | Star { npeers } ->
    let hrng = stream 0x686f73 in
    let hostile =
      match c.feed with
      | Sink_announce -> 1 + Prng.int hrng (npeers - 1) (* not the feeder *)
      | Dut_originate -> Prng.int hrng npeers
    in
    let frames = if Prng.int hrng 4 = 0 then [] else gen_frames hrng in
    let rr =
      Prng.int hrng 4 = 0
      && not
           (List.exists
              (fun p -> p = "community_strip" || p = "igp_filter")
              c.chain)
    in
    {
      c with
      hostile;
      frames;
      chain = (if rr then c.chain @ [ "route_reflector" ] else c.chain);
    }

(* --- restriction (shrinking / replay) --- *)

let lists = [ "faults"; "routes"; "frames"; "progs" ]

let indices c =
  let ix l = List.mapi (fun i _ -> i) l in
  [
    ("faults", ix c.faults);
    ("routes", ix c.routes);
    ("frames", ix c.frames);
    ("progs", ix c.progs);
  ]

let restrict kept c =
  let keep name l =
    match List.assoc_opt name kept with
    | None -> l
    | Some idxs -> List.filteri (fun i _ -> List.mem i idxs) l
  in
  {
    c with
    faults = keep "faults" c.faults;
    routes = keep "routes" c.routes;
    frames = keep "frames" c.frames;
    progs = keep "progs" c.progs;
  }
