(* The multi-peer fan-out oracle.

   The update-group export engine claims the grouped path is externally
   indistinguishable from per-peer export. This oracle executes the SAME
   deterministic star-topology scenario twice — update groups on, update
   groups off — and requires, for every spoke peer, a byte-identical
   UPDATE frame stream (content AND framing AND order), an identical
   derived adj-RIB-in, and an identical DUT Loc-RIB. Cases sweep both
   hosts, peer counts, outbound extensions (none, a group-invariant one,
   a peer-dependent one that forces the solo fallback) and churn
   (session bounce, a spoke originating routes back into its own group's
   hub — the split-horizon source-member case — a withdrawal racing
   another spoke's re-advertisement of the same prefixes, and mid-run
   detach of the outbound chain, which forces a live regroup). *)

type churn =
  | No_churn
  | Bounce  (** one spoke's link fails, hold timers expire, it rejoins *)
  | Sink_feed  (** one spoke originates routes into the hub, then withdraws *)
  | Rechain  (** the outbound chain is detached mid-run (regroup) *)
  | Wd_race
      (** a withdrawal and a re-advertisement of the same prefixes from
          another spoke land in one unsettled window *)

let churn_name = function
  | No_churn -> "none"
  | Bounce -> "bounce"
  | Sink_feed -> "sink_feed"
  | Rechain -> "rechain"
  | Wd_race -> "wd_race"

type case = {
  seed : int;
  index : int;
  host : Scenario.Testbed.host;
  npeers : int;
  extension : string option;  (** registry manifest name *)
  churn : churn;
  routes : Dataset.Ris_gen.route list;
}

let host_name = function `Frr -> "frr" | `Bird -> "bird"

let pp_case ppf (c : case) =
  Format.fprintf ppf "fanout case %d.%d: host=%s peers=%d ext=%s churn=%s (%d routes)"
    c.seed c.index (host_name c.host) c.npeers
    (Option.value ~default:"none" c.extension)
    (churn_name c.churn) (List.length c.routes)

let case ~seed ~index : case =
  let rand = Random.State.make [| seed; index; 0xfa11 |] in
  let host = if Random.State.bool rand then `Frr else `Bird in
  let npeers = 2 + Random.State.int rand 5 in
  let extension =
    match Random.State.int rand 4 with
    | 0 | 1 -> None
    | 2 -> Some "community_strip"  (* group-invariant outbound chain *)
    | _ -> Some "igp_filter"  (* peer-dependent: forces solo groups *)
  in
  let churn =
    match Random.State.int rand 4 with
    | 0 -> No_churn
    | 1 -> Bounce
    | 2 -> Sink_feed
    | _ -> if extension = None then Bounce else Rechain
  in
  let routes =
    Dataset.Ris_gen.generate
      {
        Dataset.Ris_gen.default_config with
        seed = (seed * 7919) + index;
        count = 12 + Random.State.int rand 36;
      }
  in
  (* Map-carrying chains ride along on a third of the extension-free
     cases: flap damping attaches inbound on the hub, so both export
     legs see the same stream and must end with byte-identical map
     state. Drawn from an independent RNG stream so every other field
     of every existing seeded case stays bit-identical. *)
  let extension =
    let mrand = Random.State.make [| seed; index; 0x6d6170 |] in
    if extension = None && Random.State.int mrand 3 = 0 then
      Some "flap_damping"
    else extension
  in
  (* Likewise the withdrawal race takes over a fifth of the cases from
     its own stream, leaving every other field as it was. *)
  let churn =
    let wrand = Random.State.make [| seed; index; 0x7764 |] in
    if Random.State.int wrand 5 = 0 then Wd_race else churn
  in
  { seed; index; host; npeers; extension; churn; routes }

(* what the spokes and the hub look like after the scenario settles *)
type obs = {
  frames : string list array;  (** per sink, raw UPDATE frames in order *)
  ribs : (Bgp.Prefix.t * Bgp.Attr.t list) list array;
  loc : (Bgp.Prefix.t * Bgp.Attr.t list) list;
  groups : int;
  maps : string;  (** DUT VMM map-state fingerprint ([Oracle.render_map_state]) *)
  tail : string list;  (** DUT flight-recorder tail, divergence-report context *)
}

let extra_prefix k = Bgp.Prefix.v (Bgp.Prefix.addr_of_quad (199, 51, k, 0)) 24

let feed_prefix k = Bgp.Prefix.v (Bgp.Prefix.addr_of_quad (198, 18, k, 0)) 24

let sink_attrs star j =
  Bgp.Attr.
    [
      v (Origin Igp);
      v (As_path [ Seq [ 65101 + j ] ]);
      v (Next_hop (Scenario.Star.sink_address star j));
    ]

let run_leg (c : case) ~grouped : obs =
  let manifest = Option.bind c.extension Xprogs.Registry.find_manifest in
  let star =
    Scenario.Star.create ~host:c.host ?manifest ~update_groups:grouped
      ~hold_time:3 ~npeers:c.npeers ()
  in
  let rc = Obs.Recorder.create ~capacity:4096 ~name:"dut" () in
  Scenario.Star.attach_recorder star rc;
  Scenario.Star.establish star;
  List.iter
    (fun (r : Dataset.Ris_gen.route) ->
      Scenario.Star.originate star r.prefix r.attrs)
    c.routes;
  Scenario.Star.settle star;
  let j = c.index mod c.npeers in
  (match c.churn with
  | No_churn -> ()
  | Bounce ->
    Scenario.Star.set_link_up star j false;
    (* hold_time is 3 s: both ends notice the dead link and close *)
    Scenario.Star.run_for star 4_000_000;
    Scenario.Star.set_link_up star j true;
    Scenario.Star.restart star;
    if
      not
        (Scenario.Star.run_until star (fun () ->
             Scenario.Star.all_established star))
    then failwith "fanout: bounce did not re-establish";
    Scenario.Star.settle star
  | Sink_feed ->
    (* spoke j becomes a source member of its own update group: its
       routes must fan out to every spoke EXCEPT itself *)
    let fed = List.init 4 feed_prefix in
    Scenario.Star.sink_announce star j ~attrs:(sink_attrs star j) fed;
    Scenario.Star.settle star;
    Scenario.Star.sink_withdraw star j [ feed_prefix 0; feed_prefix 2 ];
    Scenario.Star.settle star
  | Wd_race ->
    (* once spoke j's block has settled, its withdrawal and spoke k's
       re-advertisement of the SAME prefixes land in one unsettled
       window: the hub must process the two batches in arrival order,
       and both export modes must emit the resulting transitions *)
    let k = (j + 1) mod c.npeers in
    let race = List.init 8 feed_prefix in
    Scenario.Star.sink_announce star j ~attrs:(sink_attrs star j) race;
    Scenario.Star.settle star;
    Scenario.Star.sink_withdraw star j race;
    Scenario.Star.sink_announce star k ~attrs:(sink_attrs star k) race;
    Scenario.Star.settle star
  | Rechain -> (
    match (Scenario.Star.dut_vmm star, c.extension) with
    | Some vmm, Some prog ->
      (* generation bump: the hub must regroup (split or re-merge) and
         keep the streams seamless *)
      Xbgp.Vmm.detach vmm ~program:prog ~point:Xbgp.Api.Bgp_outbound_filter;
      Scenario.Star.settle star
    | _ -> ()));
  (* a post-churn incremental change rides through the final grouping *)
  Scenario.Star.originate star (extra_prefix 0)
    Bgp.Attr.
      [ v (Origin Igp); v (As_path [ Seq [ 64999 ] ]); v (Next_hop 0x0A000001) ];
  Scenario.Star.withdraw_local star
    (match c.routes with r :: _ -> r.prefix | [] -> extra_prefix 1);
  Scenario.Star.settle star;
  {
    frames =
      Array.init c.npeers (fun i ->
          List.map Bytes.to_string (Scenario.Star.sink_frames star i));
    ribs = Array.init c.npeers (Scenario.Star.sink_rib star);
    loc = Scenario.Daemon.loc_snapshot (Scenario.Star.dut star);
    groups = Scenario.Daemon.group_count (Scenario.Star.dut star);
    maps =
      (match Scenario.Star.dut_vmm star with
      | Some vmm -> Oracle.render_map_state (Xbgp.Vmm.map_state vmm)
      | None -> "");
    tail = Obs.Recorder.tail_lines ~n:12 ~prefix:"    " rc;
  }

let first_mismatch a b =
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | x :: a, y :: b when x = y -> go (i + 1) a b
    | _ -> Some i
  in
  go 0 a b

let diff (c : case) (g : obs) (b : obs) : string list =
  let fs = ref [] in
  let add fmt = Format.kasprintf (fun s -> fs := s :: !fs) fmt in
  for i = 0 to c.npeers - 1 do
    if g.frames.(i) <> b.frames.(i) then
      add
        "sink %d: frame stream diverges at frame %s (grouped %d frames, \
         per-peer %d)"
        i
        (match first_mismatch g.frames.(i) b.frames.(i) with
        | Some k -> string_of_int k
        | None -> "?")
        (List.length g.frames.(i))
        (List.length b.frames.(i));
    if g.ribs.(i) <> b.ribs.(i) then
      add "sink %d: derived adj-RIB-in differs (grouped %d routes, per-peer %d)"
        i
        (List.length g.ribs.(i))
        (List.length b.ribs.(i))
  done;
  if g.loc <> b.loc then
    add "DUT Loc-RIB differs between export modes (%d vs %d routes)"
      (List.length g.loc) (List.length b.loc);
  if g.maps <> b.maps then
    add "DUT map state differs between export modes (grouped=%s per-peer=%s)"
      g.maps b.maps;
  List.rev !fs

let run_case ?(perturb = false) (c : case) : string list =
  let grouped = run_leg c ~grouped:true in
  let baseline = run_leg c ~grouped:false in
  let grouped =
    if perturb && Array.length grouped.frames > 0 then (
      (* self-test: corrupt one grouped frame AND the map fingerprint so
         both the stream oracle and the map-state oracle provably fire *)
      let frames = Array.copy grouped.frames in
      frames.(0) <- frames.(0) @ [ "CORRUPT" ];
      { grouped with frames; maps = grouped.maps ^ "|corrupt" })
    else grouped
  in
  match diff c grouped baseline with
  | [] -> []
  | fs ->
    (* context for the report: what each leg's DUT was doing last *)
    let tail who lines =
      if lines = [] then [] else ("  " ^ who ^ " flight-recorder tail:") :: lines
    in
    fs @ tail "grouped leg" grouped.tail @ tail "per-peer leg" baseline.tail

type summary = {
  cases : int;
  failures : (case * string list) list;  (** failing cases only *)
}

let pp_summary ppf s =
  Format.fprintf ppf
    "fanout oracle: %d cases, %d divergent (grouped vs per-peer export)"
    s.cases
    (List.length s.failures)

let campaign ?(perturb = false) ?(log = fun _ -> ()) ~seed ~cases () :
    summary =
  let failures = ref [] in
  for index = 0 to cases - 1 do
    let c = case ~seed ~index in
    log (Format.asprintf "%a" pp_case c);
    match run_case ~perturb c with
    | [] -> ()
    | fs -> failures := (c, fs) :: !failures
  done;
  { cases; failures = List.rev !failures }
