(* The fuzz campaign.

   One case = one configuration point plus a fault schedule, hostile
   frames and raw eBPF programs ({!Config_gen}). The runner executes the
   SAME scenario — same topology, same route feed, same faults in the
   same order, each event settled to quiescence — once per knob grid
   leg, and demands:

   (a) convergence: every phase (establish, feed, each fault, the
       hostile frames, the aftershock) reaches quiescence inside a
       simulated-time budget, and every session is re-established once
       its faults heal;
   (b) equivalence: the xBGP-visible routing state after every phase —
       DUT Loc-RIB, per-sink derived adj-RIB-ins and session states,
       per-router fabric Loc-RIBs and ToR reachability, the DUT's map
       state, all in the normalized neutral form — is identical on every
       leg of the grid, and legs that share a host and the sinks'
       UPDATE framing leave every sink a byte-identical UPDATE frame
       stream. Leg 1 crosses the host, so this is the FRR-vs-BIRD
       differential; a star case's split leg sends every multi-prefix
       UPDATE as one UPDATE per prefix, the metamorphic check of batched
       import. Settling between fault events makes the event history
       knob-independent, so any difference is a real
       configuration-dependence bug;
   (c) export: after every phase, each star sink whose session is up
       holds exactly what {!Export_model} derives from the DUT's Loc-RIB
       — the reference check of the update-group export engine;
   (d) telemetry invariants: registry counters are monotone across
       phase snapshots, no pipe leaks in-flight chunks at quiescence,
       and update groups re-merge after churn (1 group for a
       group-invariant outbound chain, one solo group per peer for a
       peer-dependent one);
   (e) VM safety: each of the case's programs passes
       {!Oracle.check_prog} (engines, VMM round trip, verifier facts).

   Faults restore what they break before the next phase begins, so the
   final state is a function of the configuration alone — which is what
   makes (b) a meaningful oracle. *)

module Cg = Config_gen

type cls = Oracle.cls = Convergence | Equivalence | Telemetry_oracle | Crash
type finding = Oracle.finding = { cls : cls; detail : string }

let finding = Oracle.finding

(* --- per-phase observations --- *)

type phase = {
  label : string;
  dur_us : int;  (** simulated time from phase start to quiescence *)
  locs : (string * (Bgp.Prefix.t * Bgp.Attr.t list) list) list;
      (** per-daemon normalized Loc-RIB snapshots *)
  ribs : (Bgp.Prefix.t * Bgp.Attr.t list) list array;
      (** star: per-sink derived adj-RIB-ins, normalized *)
  reach : bool list;
      (** fabric: ToR-pair reachability; star: per-sink session up *)
  maps : string;
      (** star: DUT VMM map-state fingerprint ([Oracle.render_map_state]) *)
  frames : string list array;
      (** star: per-sink raw UPDATE frames so far, oldest first *)
}

type leg = {
  knobs : Cg.knobs;
  phases : phase list;  (** oldest first *)
  leg_findings : finding list;
  tail : string list;  (** flight-recorder tail, divergence-report context *)
}

let phase_budget_us = 60_000_000

(* --- telemetry invariants --- *)

let pp_labels ppf l =
  Fmt.pf ppf "{%s}"
    (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l))

(* [Telemetry.counters] is sorted by (name, labels), so two snapshots
   line up in one merge walk. *)
let check_monotone ~leg ~label prev cur =
  let rec go acc prev cur =
    match (prev, cur) with
    | [], _ -> List.rev acc
    | (n, l, v) :: prev', (n', l', v') :: cur' -> (
      match String.compare n n' with
      | 0 when compare l l' > 0 -> go acc prev cur'
      | 0 when l = l' ->
        go
          (if v' < v then
             finding Telemetry_oracle
               "[%a] counter %s%a went backwards (%d -> %d) across phase %s"
               Cg.pp_knobs leg n pp_labels l v v' label
             :: acc
           else acc)
          prev' cur'
      | c when c > 0 -> go acc prev cur'
      | _ -> go (gone n l :: acc) prev' cur)
    | (n, l, _) :: prev', [] -> go (gone n l :: acc) prev' []
  and gone n l =
    finding Telemetry_oracle "[%a] counter %s%a disappeared across phase %s"
      Cg.pp_knobs leg n pp_labels l label
  in
  go [] prev cur

let check_inflight ~leg telemetry =
  List.filter_map
    (fun (n, l, v) ->
      if n = "net_in_flight_chunks" && v <> 0 then
        Some
          (finding Telemetry_oracle
             "[%a] gauge %s%a = %d at quiescence (leaked in-flight bytes)"
             Cg.pp_knobs leg n pp_labels l v)
      else None)
    (Telemetry.gauges telemetry)

(* A stock extension that faults falls back to native on every leg, so
   no comparison sees it; the fault record is reported instead. *)
let check_vmm_faults ~leg daemons =
  List.filter_map
    (fun (name, d) ->
      Option.bind (Scenario.Daemon.vmm d) (fun vmm ->
          Option.map
            (fun r ->
              finding Crash "[%a] %s vmm fault: %s" Cg.pp_knobs leg name
                (Xbgp.Vmm.fault_detail r))
            (Xbgp.Vmm.last_fault_record vmm)))
    daemons

(* --- shared leg scaffolding --- *)

type 'a rig = {
  now : unit -> int;
  settle : unit -> unit;
  snapshot : string -> phase;  (** label -> settled observation *)
  check : unit -> string list;
      (** per-phase differences from a reference model, if the leg has
          one *)
}

let run_phases ~(knobs : Cg.knobs) ~telemetry ~(rig : _ rig) steps =
  let findings = ref [] and phases = ref [] in
  let counters_prev = ref (Telemetry.counters telemetry) in
  let note f = findings := f :: !findings in
  (try
     List.iter
       (fun (label, f) ->
         let t0 = rig.now () in
         f ();
         rig.settle ();
         let dur = rig.now () - t0 in
         if dur > phase_budget_us then
           note
             (finding Convergence
                "[%a] phase %s took %d us simulated (budget %d)" Cg.pp_knobs
                knobs label dur phase_budget_us);
         let cur = Telemetry.counters telemetry in
         List.iter note (check_monotone ~leg:knobs ~label !counters_prev cur);
         counters_prev := cur;
         List.iter
           (fun d ->
             note
               (finding Equivalence "[%a] phase %s: %s" Cg.pp_knobs knobs
                  label d))
           (rig.check ());
         phases := { (rig.snapshot label) with dur_us = dur } :: !phases)
       steps
   with
  | Failure msg ->
    note (finding Convergence "[%a] %s" Cg.pp_knobs knobs msg)
  | e ->
    note
      (finding Crash "[%a] leg raised %s" Cg.pp_knobs knobs
         (Printexc.to_string e)));
  (List.rev !phases, !findings, note)

(* --- the star leg --- *)

let extra_prefix n =
  Bgp.Prefix.v (Bgp.Prefix.addr_of_quad (198, 51, (100 + n) land 0xff, 0)) 24

let dut_extra_attrs =
  Bgp.Attr.
    [ v (Origin Igp); v (As_path [ Seq [ 64999 ] ]); v (Next_hop 0x0A000001) ]

let build_chain_vmm ~(knobs : Cg.knobs) ~telemetry chain =
  match chain with
  | [] -> None
  | chain ->
    let vmm =
      Xbgp.Vmm.create ~engine:knobs.engine ~telemetry ~host:"dut" ()
    in
    List.iter
      (fun name ->
        match Xprogs.Registry.find_manifest name with
        | None -> invalid_arg ("Chaos: unknown manifest " ^ name)
        | Some m -> (
          match Xbgp.Manifest.load vmm ~registry:Xprogs.Registry.find m with
          | Ok () -> ()
          | Error e -> invalid_arg ("Chaos: manifest " ^ name ^ ": " ^ e)))
      chain;
    Some vmm

let star_xtras (c : Cg.case) =
  (if List.mem "origin_validation" c.chain then
     [ ("roa_table", Xprogs.Util.encode_roa_table c.roas) ]
   else [])
  @ (match c.limit with
    | Some n when List.mem "prefix_limit" c.chain ->
      [ ("max_prefix", Xprogs.Util.encode_u32 n) ]
    | _ -> [])
  @
  match c.rate with
  | Some n when List.mem "rate_limit" c.chain ->
    [ ("rate_limit", Xprogs.Util.encode_u32 n) ]
  | _ -> []

let run_star_leg (c : Cg.case) (knobs : Cg.knobs) ~npeers : leg =
  let telemetry = Telemetry.create ~enabled:knobs.telemetry () in
  Telemetry.set_span_sampling telemetry knobs.span_sampling;
  let vmm = build_chain_vmm ~knobs ~telemetry c.chain in
  let rr = List.mem "route_reflector" c.chain in
  (* the chains that may have exported what a sink holds, newest first *)
  let chains = ref [ c.chain ] in
  let star =
    Scenario.Star.create ~host:knobs.host ?vmm ~telemetry ~ibgp:rr
      ~rr_client:(fun _ -> rr) ~hold_time:3 ~xtras:(star_xtras c) ~npeers ()
  in
  let rc = Obs.Recorder.create ~capacity:4096 ~name:"dut" () in
  Scenario.Star.attach_recorder star rc;
  let dut = Scenario.Star.dut star in
  let sched = Scenario.Star.sched star in
  (* the split leg sends each prefix in its own UPDATE *)
  let per_update prefixes =
    if knobs.split then List.map (fun p -> [ p ]) prefixes else [ prefixes ]
  in
  let announce j ~attrs prefixes =
    List.iter (Scenario.Star.sink_announce star j ~attrs) (per_update prefixes)
  in
  let withdraw j prefixes =
    List.iter (Scenario.Star.sink_withdraw star j) (per_update prefixes)
  in
  let sink_announce j prefixes =
    announce j
      ~attrs:
        Bgp.Attr.
          [
            v (Origin Igp);
            v (As_path [ Seq [ 65101 + j ] ]);
            v (Next_hop (Scenario.Star.sink_address star j));
          ]
      prefixes
  in
  let extra_count = ref 0 in
  let inject_extra () =
    let p = extra_prefix !extra_count in
    incr extra_count;
    match c.feed with
    | Cg.Dut_originate -> Scenario.Star.originate star p dut_extra_attrs
    | Cg.Sink_announce -> sink_announce 0 [ p ]
  in
  let feed_all () =
    List.iter
      (fun (r : Dataset.Ris_gen.route) ->
        match c.feed with
        | Cg.Dut_originate -> Scenario.Star.originate star r.prefix r.attrs
        | Cg.Sink_announce -> announce 0 ~attrs:r.attrs [ r.prefix ])
      c.routes
  in
  let rejoin j =
    Scenario.Star.restart star;
    if
      not
        (Scenario.Star.run_until star (fun () ->
             Scenario.Star.all_established star))
    then failwith (Printf.sprintf "sink %d did not re-establish" j)
  in
  let bounce j ~mid_transfer =
    if mid_transfer then begin
      inject_extra ();
      inject_extra ();
      (* frames are now in flight towards the sinks (pipe latency is
         ~100 us); the failure catches the transfer mid-stream *)
      Scenario.Star.run_for star 150
    end;
    Scenario.Star.set_link_up star j false;
    (* hold_time is 3 s: both ends notice the dead link and close *)
    Scenario.Star.run_for star 4_000_000;
    Scenario.Star.set_link_up star j true;
    rejoin j
  in
  let apply_fault = function
    | Cg.Flap j -> bounce j ~mid_transfer:false
    | Cg.Mid_transfer_fail j -> bounce j ~mid_transfer:true
    | Cg.Roa_swap -> (
      Scenario.Daemon.set_xtra dut "roa_table"
        (Xprogs.Util.encode_roa_table c.roas2);
      Scenario.Daemon.rerun_init dut;
      (* re-announce so the import path revalidates under the new table *)
      match c.feed with
      | Cg.Sink_announce ->
        List.iter
          (fun (r : Dataset.Ris_gen.route) ->
            announce 0 ~attrs:r.attrs [ r.prefix ])
          c.routes
      | Cg.Dut_originate -> ())
    | Cg.Detach_attach name -> (
      match vmm with
      | None -> ()
      | Some vmm ->
        let m =
          match Xprogs.Registry.find_manifest name with
          | Some m -> m
          | None -> invalid_arg ("Chaos: unknown manifest " ^ name)
        in
        let points =
          List.sort_uniq compare
            (List.map
               (fun (a : Xbgp.Manifest.attachment) -> a.point)
               m.attachments)
        in
        List.iter
          (fun p -> Xbgp.Vmm.detach vmm ~program:name ~point:p)
          points;
        (* force every adj-RIB-out through the shortened chain so the
           final state does not depend on WHEN each group re-evaluates *)
        Scenario.Daemon.refresh_exports dut;
        Scenario.Star.settle star;
        inject_extra () (* a live change rides the shortened chain *);
        Scenario.Star.settle star;
        List.iter
          (fun (a : Xbgp.Manifest.attachment) ->
            match
              Xbgp.Vmm.attach vmm ~program:a.program ~bytecode:a.bytecode
                ~point:a.point ~order:a.order
            with
            | Ok () -> ()
            | Error e -> failwith ("re-attach " ^ name ^ ": " ^ e))
          m.attachments;
        Scenario.Daemon.refresh_exports dut)
    | Cg.Sink_feed j ->
      (* sink j becomes a source member of its own update group: its
         routes must reach every sink EXCEPT itself *)
      sink_announce j (List.init 4 Cg.feed_prefix);
      Scenario.Star.settle star;
      withdraw j [ Cg.feed_prefix 0; Cg.feed_prefix 2 ]
    | Cg.Wd_race j ->
      (* once sink j's block has settled, its withdrawal and sink k's
         re-advertisement of the SAME prefixes land in one unsettled
         window: the hub must process the two batches in arrival order *)
      let race = List.init 8 Cg.feed_prefix in
      sink_announce j race;
      Scenario.Star.settle star;
      withdraw j race;
      sink_announce ((j + 1) mod npeers) race
    | Cg.Detach name ->
      (* the generation bump alone must regroup (split or re-merge)
         without a refresh, keeping every sink's stream seamless; routes
         exported before it keep the full chain's attributes *)
      Option.iter
        (fun vmm ->
          Xbgp.Vmm.detach vmm ~program:name
            ~point:Xbgp.Api.Bgp_outbound_filter;
          chains := List.filter (( <> ) name) (List.hd !chains) :: !chains)
        vmm
    | Cg.Fabric_fail _ | Cg.Fabric_double_fail _ ->
      invalid_arg "Chaos: fabric fault in a star case"
  in
  let rig =
    {
      now = (fun () -> Netsim.Sched.now sched);
      settle = (fun () -> Scenario.Star.settle star);
      snapshot =
        (fun label ->
          {
            label;
            dur_us = 0;
            locs =
              [
                ( "dut",
                  Oracle.normalize (Scenario.Daemon.loc_snapshot dut) );
              ];
            ribs =
              Array.init npeers (fun i ->
                  Oracle.normalize (Scenario.Star.sink_rib star i));
            reach =
              List.init npeers (Scenario.Daemon.peer_established dut);
            maps =
              (match vmm with
              | Some vmm -> Oracle.render_map_state (Xbgp.Vmm.map_state vmm)
              | None -> "");
            frames =
              Array.init npeers (fun i ->
                  List.map Bytes.to_string (Scenario.Star.sink_frames star i));
          });
      check = (fun () -> Export_model.diff_star star ~chains:!chains);
    }
  in
  let steps =
    [ ("establish", fun () -> Scenario.Star.establish star);
      ("feed", feed_all) ]
    @ List.map
        (fun fault -> (Cg.fault_name fault, fun () -> apply_fault fault))
        c.faults
    @ (match c.frames with
      | [] -> []
      | frames ->
        (* the hostile sink writes the frames 1 ms apart, whatever its
           session thinks; the next phase re-opens whatever they closed *)
        let j = c.hostile in
        [
          ( Printf.sprintf "hostile:%d" j,
            fun () ->
              List.iteri
                (fun i f ->
                  Netsim.Sched.after sched (1_000 * (i + 1)) (fun () ->
                      Scenario.Star.sink_send_raw star j f))
                frames );
          ( Printf.sprintf "rejoin:%d" j,
            fun () ->
              if not (Scenario.Star.all_established star) then begin
                (* a frame the DUT reads as a NOTIFICATION closes its end
                   without a reply, and the sink's own session, which
                   never sent it, only notices at its hold timer *)
                Scenario.Star.run_for star 4_000_000;
                rejoin j
              end );
        ])
    @ [
        ( "aftershock",
          fun () ->
            inject_extra ();
            match c.routes with
            | r :: _ -> (
              match c.feed with
              | Cg.Dut_originate -> Scenario.Star.withdraw_local star r.prefix
              | Cg.Sink_announce -> withdraw 0 [ r.prefix ])
            | [] -> () );
      ]
  in
  let phases, findings, note = run_phases ~knobs ~telemetry ~rig steps in
  (* final-state oracles, only meaningful when every phase completed *)
  if List.length phases = List.length steps then begin
    if not (Scenario.Star.all_established star) then
      note
        (finding Convergence "[%a] sessions down after the last phase"
           Cg.pp_knobs knobs);
    (* a Detach leaves its program off the chain *)
    let expected_groups =
      if
        List.mem "igp_filter" c.chain
        && not (List.mem (Cg.Detach "igp_filter") c.faults)
      then npeers
      else 1
    in
    let got = Scenario.Daemon.group_count dut in
    if got <> expected_groups then
      note
        (finding Telemetry_oracle
           "[%a] update groups did not re-merge: %d active, expected %d \
            (chain=[%s])"
           Cg.pp_knobs knobs got expected_groups
           (String.concat "," c.chain));
    List.iter note (check_vmm_faults ~leg:knobs [ ("dut", dut) ]);
    List.iter note (check_inflight ~leg:knobs telemetry)
  end;
  {
    knobs;
    phases;
    leg_findings = findings;
    tail = Obs.Recorder.tail_lines ~n:12 ~prefix:"    " rc;
  }

(* --- the fabric leg --- *)

let tor_pairs =
  let tors = [ "T20"; "T21"; "T22"; "T23" ] in
  List.concat_map
    (fun a -> List.filter_map (fun b -> if a = b then None else Some (a, b)) tors)
    tors

let run_fabric_leg (c : Cg.case) (knobs : Cg.knobs) ~fconfig ~with_transit :
    leg =
  let telemetry = Telemetry.create ~enabled:knobs.telemetry () in
  Telemetry.set_span_sampling telemetry knobs.span_sampling;
  let fab =
    Scenario.Fabric.build ~host:knobs.host ~with_transit ~engine:knobs.engine
      ~telemetry fconfig
  in
  let rc = Obs.Recorder.create ~capacity:4096 ~name:"fabric" () in
  Scenario.Fabric.attach_recorder fab rc;
  let sched = fab.Scenario.Fabric.sched in
  let links = Array.of_list fab.Scenario.Fabric.clos.Dataset.Clos.links in
  let link i = links.(i mod Array.length links) in
  let run_us us =
    ignore (Netsim.Sched.run ~until:(Netsim.Sched.now sched + us) sched)
  in
  let activity () =
    List.fold_left
      (fun acc (_, d) ->
        let s = Scenario.Daemon.stats d in
        acc + s.Telemetry.updates_rx + s.Telemetry.updates_tx)
      0 fab.Scenario.Fabric.daemons
  in
  (* Quiescence in 500 ms slices, demanding two consecutive quiet
     slices. A freshly failed link is silent until the hold timers
     expire — and the two ends' timers fire up to hold_time (9 s) plus
     one keepalive interval (3 s) after the failure, depending on
     keepalive phase — so fault phases pre-roll past the worst-case
     expiry before watching for the update churn to stop. (The first
     campaign surfaced exactly this: an 11 s pre-roll left a window in
     which a quiet slice could precede a late hold expiry, freezing a
     mid-path-hunt snapshot on timing-shifted legs.) *)
  let pre_roll = ref 0 in
  let quiesce () =
    run_us !pre_roll;
    pre_roll := 0;
    let rec go n quiet last =
      if n > 0 && quiet < 2 then begin
        run_us 500_000;
        let cur = activity () in
        go (n - 1) (if cur = last then quiet + 1 else 0) cur
      end
    in
    go 200 0 (activity ())
  in
  let fail_idx i =
    let a, b = link i in
    Scenario.Fabric.fail_link fab a b
  in
  let repair_idx i =
    let a, b = link i in
    Scenario.Fabric.repair_link fab a b
  in
  (* hold_time (9 s) + keepalive interval (3 s) + margin — covers the
     worst-case hold expiry after a failure AND the worst-case connect
     retry after a repair (a handshake wedged by a multi-link repair
     re-opens one hold interval after its OPEN was lost) *)
  let hold_roll = 13_000_000 in
  let steps =
    [ ("start", fun () -> Scenario.Fabric.start fab) ]
    @ List.concat_map
        (fun fault ->
          match fault with
          | Cg.Fabric_fail i ->
            let name = Cg.fault_name fault in
            [
              ( name,
                fun () ->
                  fail_idx i;
                  pre_roll := hold_roll );
              ( "repair:" ^ name,
                fun () ->
                  repair_idx i;
                  pre_roll := hold_roll );
            ]
          | Cg.Fabric_double_fail (i, j) ->
            let name = Cg.fault_name fault in
            [
              ( name,
                fun () ->
                  fail_idx i;
                  fail_idx j;
                  pre_roll := hold_roll );
              ( "repair:" ^ name,
                fun () ->
                  repair_idx i;
                  repair_idx j;
                  pre_roll := hold_roll );
            ]
          | _ -> invalid_arg "Chaos: star fault in a fabric case")
        c.faults
  in
  let rig =
    {
      now = (fun () -> Netsim.Sched.now sched);
      settle = quiesce;
      snapshot =
        (fun label ->
          {
            label;
            dur_us = 0;
            locs =
              List.map
                (fun (name, d) ->
                  (name, Oracle.normalize (Scenario.Daemon.loc_snapshot d)))
                fab.Scenario.Fabric.daemons;
            ribs = [||];
            reach =
              List.map
                (fun (a, b) -> Scenario.Fabric.reaches fab a b)
                tor_pairs;
            maps = "";
            frames = [||];
          });
      check = (fun () -> []);
    }
  in
  let phases, findings, note = run_phases ~knobs ~telemetry ~rig steps in
  if List.length phases = List.length steps then begin
    let unreachable =
      List.filter (fun (a, b) -> not (Scenario.Fabric.reaches fab a b)) tor_pairs
    in
    if unreachable <> [] then
      note
        (finding Convergence
           "[%a] fabric did not reconverge after repairs: %s" Cg.pp_knobs
           knobs
           (String.concat ", "
              (List.map (fun (a, b) -> a ^ "->" ^ b) unreachable)));
    List.iter note (check_vmm_faults ~leg:knobs fab.Scenario.Fabric.daemons);
    List.iter note (check_inflight ~leg:knobs telemetry)
  end;
  {
    knobs;
    phases;
    leg_findings = findings;
    tail = Obs.Recorder.tail_lines ~n:12 ~prefix:"    " rc;
  }

let run_leg (c : Cg.case) (knobs : Cg.knobs) : leg =
  match c.topology with
  | Cg.Star { npeers } -> run_star_leg c knobs ~npeers
  | Cg.Fabric { fconfig; with_transit } ->
    run_fabric_leg c knobs ~fconfig ~with_transit

(* --- grid equivalence --- *)

let first_mismatch a b =
  let rec go i a b =
    match (a, b) with
    | x :: a, y :: b when x = y -> go (i + 1) a b
    | _ -> i
  in
  go 0 a b

(* [frames]: the legs agree on host and on the sinks' UPDATE framing,
   the two things allowed to change what the DUT sends, so their sinks'
   UPDATE streams must match byte for byte. *)
let diff_phase ~l0 ~l1 ~frames (p0 : phase) (p1 : phase) : string list =
  let locs =
    List.filter_map
      (fun (name, snap0) ->
        match List.assoc_opt name p1.locs with
        | None -> Some (Fmt.str "%s loc-rib missing on %s" name l1)
        | Some snap1 ->
          Oracle.diff_snapshots ~what:(name ^ " loc-rib") ~l0 ~l1 snap0 snap1)
      p0.locs
  in
  let ribs = ref [] in
  if Array.length p0.ribs = Array.length p1.ribs then
    Array.iteri
      (fun i snap0 ->
        match
          Oracle.diff_snapshots
            ~what:(Fmt.str "sink %d adj-rib-in" i)
            ~l0 ~l1 snap0 p1.ribs.(i)
        with
        | Some d -> ribs := d :: !ribs
        | None -> ())
      p0.ribs
  else ribs := [ Fmt.str "sink count differs (%d vs %d)" (Array.length p0.ribs) (Array.length p1.ribs) ];
  let reach =
    if p0.reach <> p1.reach then
      [
        Fmt.str "reachability / session state differs: %s=[%s] %s=[%s]" l0
          (String.concat ""
             (List.map (fun r -> if r then "1" else "0") p0.reach))
          l1
          (String.concat ""
             (List.map (fun r -> if r then "1" else "0") p1.reach));
      ]
    else []
  in
  let maps =
    if p0.maps <> p1.maps then
      [ Fmt.str "map state differs: %s=[%s] %s=[%s]" l0 p0.maps l1 p1.maps ]
    else []
  in
  let frames =
    List.filter_map Fun.id
      (List.mapi
         (fun i f0 ->
           let f1 = p1.frames.(i) in
           if (not frames) || f0 = f1 then None
           else
             Some
               (Fmt.str
                  "sink %d frame stream diverges at frame %d (%s %d frames, \
                   %s %d)"
                  i (first_mismatch f0 f1) l0 (List.length f0) l1
                  (List.length f1)))
         (Array.to_list p0.frames))
  in
  List.map
    (fun d -> Fmt.str "phase %s: %s" p0.label d)
    (locs @ List.rev !ribs @ reach @ maps @ frames)

let compare_legs (base : leg) (other : leg) : finding list =
  let l0 = Fmt.str "%a" Cg.pp_knobs base.knobs in
  let l1 = Fmt.str "%a" Cg.pp_knobs other.knobs in
  let frames =
    base.knobs.host = other.knobs.host && base.knobs.split = other.knobs.split
  in
  let rec go p0s p1s acc =
    match (p0s, p1s) with
    | [], [] -> acc
    | _ :: _, [] | [], _ :: _ ->
      (* a leg that aborted early already carries its own finding *)
      acc
    | p0 :: t0, p1 :: t1 ->
      let diffs =
        List.map
          (fun d -> finding Equivalence "%s vs %s: %s" l0 l1 d)
          (diff_phase ~l0 ~l1 ~frames p0 p1)
      in
      go t0 t1 (acc @ diffs)
  in
  go base.phases other.phases []

(* [perturb] corrupts the base leg's snapshots — the knob the
   self-tests use to prove the oracle, shrinker and replay pipeline fire
   end to end, one corruption per input that can carry a failure, so
   each one shrinks to a core of its own:
   - the phase that loads the table ("feed" on a star, "start" on a
     fabric) loses the head route of its first Loc-RIB snapshot, and a
     star's first non-empty sink stream gets its first frame corrupted
     — a star case needs one accepted route for this;
   - the hostile-frames phase has its session states flipped;
   - the last phase's map fingerprint loses its leading entry (the moral
     equivalent of losing one map write), proving the map-state oracle;
   - {!Oracle.check_prog} bumps the block engine's result. *)
let perturb_leg (l : leg) : leg =
  let last = List.length l.phases - 1 in
  let corrupt i p =
    let p =
      if p.label <> "feed" && p.label <> "start" then p
      else
        let frames = Array.copy p.frames in
        (match Array.find_index (fun s -> s <> []) frames with
        | Some s ->
          frames.(s) <- ("!" ^ List.hd frames.(s)) :: List.tl frames.(s)
        | None -> ());
        match p.locs with
        | (name, _ :: routes) :: others ->
          { p with locs = (name, routes) :: others; frames }
        | _ -> { p with frames }
    in
    let p =
      if String.starts_with ~prefix:"hostile:" p.label then
        { p with reach = List.map not p.reach }
      else p
    in
    if i <> last || p.maps = "" then p
    else
      match String.index_opt p.maps ',' with
      | Some k ->
        (* drop the first map entry, keep the rest well-formed *)
        { p with maps = String.sub p.maps (k + 1) (String.length p.maps - k - 1) }
      | None -> { p with maps = p.maps ^ "|perturbed" }
  in
  { l with phases = List.mapi corrupt l.phases }

let run_case ?(perturb = false) (c : Cg.case) :
    finding list * (string * int) list =
  let legs = List.map (run_leg c) c.grid in
  let legs =
    match legs with
    | base :: rest when perturb -> perturb_leg base :: rest
    | legs -> legs
  in
  let leg_findings = List.concat_map (fun l -> l.leg_findings) legs in
  let equiv =
    match legs with
    | base :: rest -> List.concat_map (compare_legs base) rest
    | [] -> []
  in
  let vm = List.concat (List.mapi (Oracle.check_prog ~perturb) c.progs) in
  let durations =
    match legs with
    | base :: _ -> List.map (fun p -> (p.label, p.dur_us)) base.phases
    | [] -> []
  in
  (* Failing report? Append leg 0's flight-recorder tail to the last
     finding as context — extending a detail keeps the finding count and
     class set exactly what shrinking and the self-tests assert on. *)
  let findings =
    match (List.rev (leg_findings @ equiv @ vm), legs) with
    | last :: rest, base :: _ when base.tail <> [] ->
      let text =
        String.concat "\n"
          (Fmt.str "  [%a] flight-recorder tail:" Cg.pp_knobs base.knobs
          :: base.tail)
      in
      List.rev ({ last with detail = last.detail ^ "\n" ^ text } :: rest)
    | rev, _ -> List.rev rev
  in
  (findings, durations)

(* --- shrinking --- *)

(* Minimize the case's named lists together; the predicate preserves
   the original divergence CLASS, not just "any finding" — a convergence
   timeout must not shrink into an unrelated telemetry violation. *)
let shrink_case ~perturb (c : Cg.case) ~classes =
  let still_fails kept =
    let findings, _ = run_case ~perturb (Cg.restrict kept c) in
    List.exists (fun (f : finding) -> List.mem f.cls classes) findings
  in
  let kept = Shrink.minimize_multi ~still_fails (Cg.indices c) in
  (Cg.restrict kept c, kept)

(* --- the campaign --- *)

type failure = {
  case : Cg.case;  (** minimized *)
  findings : finding list;  (** findings of the minimized case *)
  classes : cls list;  (** divergence classes of the ORIGINAL case *)
  repro : Replay.t;
  repro_path : (string, string) result option;
}

type summary = {
  cases : int;
  kinds : (string * int) list;  (** histogram, first-seen order *)
  failures : failure list;
  convergence : (string * int) list;
      (** (phase label, simulated us) pairs from every case's leg 0 —
          the raw material for the bench's convergence distributions *)
}

let result_of ~perturb ~out (c : Cg.case) ~classes =
  let minimized, kept = shrink_case ~perturb c ~classes in
  let findings, _ = run_case ~perturb minimized in
  let findings =
    if findings = [] then fst (run_case ~perturb c) else findings
  in
  let note =
    match findings with [] -> "" | f :: _ -> Fmt.str "%a" Oracle.pp_finding f
  in
  let repro =
    {
      Replay.seed = c.seed;
      case_index = c.index;
      kind = String.concat "+" (Cg.kinds c);
      perturb;
      kept;
      classes = List.map Oracle.cls_name classes;
      note;
    }
  in
  let repro_path = Option.map (fun dir -> Replay.save ~dir repro) out in
  { case = minimized; findings; classes; repro; repro_path }

let campaign ?out ?(perturb = false) ?(log = fun _ -> ()) ~seed ~cases () :
    summary =
  let histogram = Hashtbl.create 8 in
  let order = ref [] in
  let bump name =
    if not (Hashtbl.mem histogram name) then order := name :: !order;
    Hashtbl.replace histogram name
      (1 + Option.value ~default:0 (Hashtbl.find_opt histogram name))
  in
  let failures = ref [] and convergence = ref [] in
  for index = 0 to cases - 1 do
    let c = Cg.case ~seed ~index in
    List.iter bump (Cg.kinds c);
    let findings, durations = run_case ~perturb c in
    convergence := List.rev_append durations !convergence;
    (match findings with
    | [] -> ()
    | first :: _ ->
      log (Fmt.str "FAIL %a: %a" Cg.pp_case c Oracle.pp_finding first);
      let r =
        result_of ~perturb ~out c ~classes:(Oracle.classes_of findings)
      in
      (match r.repro_path with
      | Some (Ok p) -> log (Fmt.str "  reproducer: %s" p)
      | Some (Error e) -> log (Fmt.str "  reproducer not written: %s" e)
      | None -> ());
      failures := r :: !failures);
    if (index + 1) mod 25 = 0 then
      log
        (Fmt.str "%d/%d cases, %d failing" (index + 1) cases
           (List.length !failures))
  done;
  {
    cases;
    kinds = List.rev_map (fun n -> (n, Hashtbl.find histogram n)) !order;
    failures = List.rev !failures;
    convergence = List.rev !convergence;
  }

(* --- replay --- *)

let replay (r : Replay.t) =
  match Replay.case_of r with
  | Error e -> Error e
  | Ok c ->
    let findings, _ = run_case ~perturb:r.perturb c in
    let recorded =
      List.filter_map Oracle.cls_of_name r.classes |> List.sort_uniq compare
    in
    let reproduced =
      recorded = []
      || List.exists (fun (f : finding) -> List.mem f.cls recorded) findings
    in
    Ok (c, findings, reproduced)

let pp_summary ppf s =
  Fmt.pf ppf "%d cases (%a): %d failing" s.cases
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (n, c) -> Fmt.pf ppf "%s %d" n c))
    s.kinds (List.length s.failures)
