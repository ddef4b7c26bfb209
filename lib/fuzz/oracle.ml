(* The differential oracle.

   One case, three kinds of checks depending on its scenario:

   - host differential: the same route table and the same extension
     manifest through both the FRR-like and the BIRD-like testbed; the
     xBGP-visible state (DUT Loc-RIB and downstream Loc-RIB, rendered in
     the neutral codec form and canonically sorted) must be identical.
   - hostile peer: the same mutated wire frames against an established
     session on each host; the surviving Loc-RIB (normalized to the
     attributes both hosts represent) and the session fate must agree.
   - VM safety: every generated program either fails the verifier with a
     clean error list, or executes to an identical outcome on both
     execution engines (interpreter, block-compiled) — a value or a
     contained fault, never an escaped exception — with an
     identical final register file and an identical host-visible helper
     trace, and survives a full VMM round trip per engine.

   A [Crash] finding means an exception escaped a layer that promises
   not to raise; a [Divergence] finding means the two hosts (or the
   engines) disagreed about xBGP-visible state. *)

type kind = Divergence | Crash

type finding = { kind : kind; detail : string }

let kind_name = function Divergence -> "divergence" | Crash -> "crash"

let pp_finding ppf f = Fmt.pf ppf "[%s] %s" (kind_name f.kind) f.detail

let divergence fmt = Fmt.kstr (fun s -> { kind = Divergence; detail = s }) fmt
let crash fmt = Fmt.kstr (fun s -> { kind = Crash; detail = s }) fmt

(* --- snapshot normalization --- *)

(* Drop attributes outside the shared native vocabulary (the FRR-like
   parser discards Unknown attributes by design) and sort the rest into
   the canonical wire order, so list-construction order cannot fake a
   divergence. *)
let normalize snap =
  List.map
    (fun (p, attrs) ->
      let attrs =
        List.filter
          (fun (a : Bgp.Attr.t) ->
            match a.value with Bgp.Attr.Unknown _ -> false | _ -> true)
          attrs
      in
      (p, Bgp.Attr.sort_canonical attrs))
    snap

let pp_route ppf (p, attrs) =
  Fmt.pf ppf "%a [%a]" Bgp.Prefix.pp p
    (Fmt.list ~sep:(Fmt.any "; ") Bgp.Attr.pp)
    attrs

let diff_snapshots ~what ~l0 ~l1 a b =
  let only r l = Some (Fmt.str "%s: %a only on %s" what pp_route r l) in
  let rec go a b =
    match (a, b) with
    | [], [] -> None
    | ra :: _, [] -> only ra l0
    | [], rb :: _ -> only rb l1
    | ((pa, aa) as ra) :: ta, ((pb, ab) as rb) :: tb ->
      let c = Bgp.Prefix.compare pa pb in
      if c < 0 then only ra l0
      else if c > 0 then only rb l1
      else if
        List.length aa <> List.length ab
        || not (List.for_all2 Bgp.Attr.equal aa ab)
      then
        Some
          (Fmt.str "%s: %a differs: %s=%a %s=%a" what Bgp.Prefix.pp pa l0
             pp_route ra l1 pp_route rb)
      else go ta tb
  in
  go a b

(* --- host differential over the three-router testbed --- *)

type host_state = {
  dut : (Bgp.Prefix.t * Bgp.Attr.t list) list;
  down : (Bgp.Prefix.t * Bgp.Attr.t list) list;
  vmm_fault : string option;
  tail : string list;  (** DUT flight-recorder tail, report context *)
}

(* Append the legs' flight-recorder tails to the last finding, so a
   divergence report shows what the DUTs were doing right before the
   states were snapshotted — without changing the finding count any
   caller asserts on. *)
let with_tails tails findings =
  let text =
    String.concat "\n"
      (List.concat_map
         (fun (who, lines) ->
           if lines = [] then []
           else Printf.sprintf "  %s flight-recorder tail:" who :: lines)
         tails)
  in
  if text = "" then findings
  else
    match List.rev findings with
    | [] -> []
    | last :: rest ->
      List.rev ({ last with detail = last.detail ^ "\n" ^ text } :: rest)

let manifest_exn name =
  match Xprogs.Registry.find_manifest name with
  | Some m -> m
  | None -> invalid_arg ("Oracle: unknown manifest " ^ name)

let mode_for host (c : Gen.case) =
  let module T = Scenario.Testbed in
  match c.scenario with
  | Gen.Plain_ebgp -> T.mode ~host ~ibgp:false ()
  | Gen.Rr_ibgp ->
    T.mode ~host ~ibgp:true ~manifest:(manifest_exn "route_reflector") ()
  | Gen.Ov_ebgp ->
    T.mode ~host ~ibgp:false
      ~manifest:(manifest_exn "origin_validation")
      ~xtras:[ ("roa_table", Xprogs.Util.encode_roa_table c.roas) ]
      ()
  | Gen.Med_ebgp ->
    T.mode ~host ~ibgp:false ~manifest:(manifest_exn "med_compare") ()
  | Gen.Strip_ebgp ->
    T.mode ~host ~ibgp:false ~manifest:(manifest_exn "community_strip") ()
  | Gen.Hostile_peer | Gen.Vm_soup | Gen.Vm_guided ->
    invalid_arg "Oracle.mode_for: not a testbed scenario"

let settle_us = 30_000_000 (* 30 simulated seconds after the feed *)

let run_testbed host (c : Gen.case) : host_state =
  let module T = Scenario.Testbed in
  let tb = T.create (mode_for host c) in
  let rc = Obs.Recorder.create ~capacity:4096 ~name:"dut" () in
  Obs.Recorder.set_clock rc (fun () -> Netsim.Sched.now tb.sched);
  Scenario.Daemon.set_recorder tb.dut (Some rc);
  T.establish tb;
  T.feed tb c.routes;
  ignore (Netsim.Sched.run tb.sched ~until:(Netsim.Sched.now tb.sched + settle_us));
  {
    dut = normalize (Scenario.Daemon.loc_snapshot tb.dut);
    down = normalize (Frrouting.Bgpd.loc_snapshot tb.downstream);
    (* the structured record carries engine/slot/disassembly — worth the
       extra words in a divergence report *)
    vmm_fault =
      Option.bind tb.dut_vmm (fun vmm ->
          Option.map Xbgp.Vmm.fault_detail (Xbgp.Vmm.last_fault_record vmm));
    tail = Obs.Recorder.tail_lines ~n:12 ~prefix:"    " rc;
  }

(* [perturb] artificially corrupts the BIRD-side view — the knob the
   acceptance test and --force-divergence use to prove the oracle,
   shrinker and replay pipeline actually fire. *)
let perturb_state st =
  match st.dut with [] -> st | _ :: rest -> { st with dut = rest }

let run_differential ~perturb (c : Gen.case) =
  let guarded host f =
    match f () with
    | st -> Ok st
    | exception e ->
      Error
        (crash "%s testbed raised %s on %a" host (Printexc.to_string e)
           Gen.pp_case c)
  in
  match
    ( guarded "frr" (fun () -> run_testbed `Frr c),
      guarded "bird" (fun () -> run_testbed `Bird c) )
  with
  | Error f, _ | _, Error f -> [ f ]
  | Ok frr, Ok bird ->
    let bird = if perturb then perturb_state bird else bird in
    let faults =
      List.filter_map
        (fun (host, st) ->
          Option.map (fun e -> crash "%s vmm fault: %s" host e) st.vmm_fault)
        [ ("frr", frr); ("bird", bird) ]
    in
    let diffs =
      List.filter_map
        (fun x -> x)
        [
          diff_snapshots ~what:"dut loc-rib" ~l0:"frr" ~l1:"bird" frr.dut
            bird.dut;
          diff_snapshots ~what:"downstream loc-rib" ~l0:"frr" ~l1:"bird"
            frr.down bird.down;
        ]
      |> List.map (fun d -> divergence "%s" d)
    in
    with_tails
      [ ("frr", frr.tail); ("bird", bird.tail) ]
      (faults @ diffs)

(* --- hostile peer --- *)

(* A scripted "attacker" drives one side of a pipe by hand: it completes
   the OPEN/KEEPALIVE handshake like a well-behaved peer, then injects
   the case's raw frames verbatim. The DUT's session layer is shared
   code, so framing-level behavior is identical by construction; what
   this mode exercises is each daemon's import path on decodable-but-
   odd UPDATEs, and the no-exceptions guarantee. *)

type hostile_state = {
  rib : (Bgp.Prefix.t * Bgp.Attr.t list) list;
  session_up : bool;
}

let attacker_as = 65009
let attacker_addr = Bgp.Prefix.addr_of_quad (10, 9, 0, 2)
let dut_addr = Bgp.Prefix.addr_of_quad (10, 9, 0, 1)

let run_hostile_host host (c : Gen.case) : hostile_state =
  Frrouting.Attr_intern.reset_intern_table ();
  let sched = Netsim.Sched.create () in
  let p_atk, p_dut = Netsim.Pipe.create sched in
  let dut =
    match host with
    | `Frr ->
      Scenario.Daemon.Frr
        (Frrouting.Bgpd.create ~sched
           (Frrouting.Bgpd.config ~name:"dut" ~router_id:dut_addr
              ~local_as:65000 ~local_addr:dut_addr ())
           [
             {
               Frrouting.Bgpd.pname = "attacker";
               remote_as = attacker_as;
               remote_addr = attacker_addr;
               rr_client = false;
               port = p_dut;
             };
           ])
    | `Bird ->
      Scenario.Daemon.Bird
        (Bird.Bgpd.create ~sched
           (Bird.Bgpd.config ~name:"dut" ~router_id:dut_addr ~local_as:65000
              ~local_addr:dut_addr ())
           [
             {
               Bird.Bgpd.pname = "attacker";
               remote_as = attacker_as;
               remote_addr = attacker_addr;
               rr_client = false;
               port = p_dut;
             };
           ])
  in
  (* the attacker half: answer the DUT's OPEN, then stay silent except
     for the injected frames *)
  let pending = ref Bytes.empty in
  let answered = ref false in
  Netsim.Pipe.set_receiver p_atk (fun chunk ->
      pending :=
        (if Bytes.length !pending = 0 then chunk
         else Bytes.cat !pending chunk);
      match Bgp.Message.deframe !pending with
      | frames, rest ->
        pending := rest;
        List.iter
          (fun raw ->
            match Bgp.Message.decode raw with
            | Bgp.Message.Open _ when not !answered ->
              answered := true;
              Netsim.Pipe.send p_atk
                (Bgp.Message.encode
                   (Bgp.Message.Open
                      {
                        version = 4;
                        my_as = attacker_as;
                        hold_time = 90;
                        bgp_id = attacker_addr;
                      }));
              Netsim.Pipe.send p_atk (Bgp.Message.encode Bgp.Message.Keepalive)
            | _ -> ()
            | exception Bgp.Message.Parse_error _ -> ())
          frames
      | exception Bgp.Message.Parse_error _ -> pending := Bytes.empty);
  Scenario.Daemon.start dut;
  let up () = Scenario.Daemon.peer_established dut 0 in
  if not (Netsim.Sched.run_until sched up) then
    failwith "Oracle.run_hostile: session did not establish";
  (* inject the frames 1 ms apart, then let the dust settle *)
  List.iteri
    (fun i frame ->
      Netsim.Sched.after sched (1_000 * (i + 1)) (fun () ->
          Netsim.Pipe.send p_atk frame))
    c.frames;
  ignore (Netsim.Sched.run sched ~until:(Netsim.Sched.now sched + 10_000_000));
  {
    rib = normalize (Scenario.Daemon.loc_snapshot dut);
    session_up = Scenario.Daemon.peer_established dut 0;
  }

let run_hostile ~perturb (c : Gen.case) =
  let guarded host f =
    match f () with
    | st -> Ok st
    | exception e ->
      Error
        (crash "%s hostile rig raised %s on %a" host (Printexc.to_string e)
           Gen.pp_case c)
  in
  match
    ( guarded "frr" (fun () -> run_hostile_host `Frr c),
      guarded "bird" (fun () -> run_hostile_host `Bird c) )
  with
  | Error f, _ | _, Error f -> [ f ]
  | Ok frr, Ok bird ->
    let bird =
      if perturb then { bird with rib = (match bird.rib with [] -> [] | _ :: t -> t) }
      else bird
    in
    let session =
      if frr.session_up <> bird.session_up then
        [
          divergence "session fate differs: frr %s, bird %s"
            (if frr.session_up then "up" else "closed")
            (if bird.session_up then "up" else "closed");
        ]
      else []
    in
    let rib =
      match
        diff_snapshots ~what:"hostile loc-rib" ~l0:"frr" ~l1:"bird" frr.rib
          bird.rib
      with
      | Some d -> [ divergence "%s" d ]
      | None -> []
    in
    session @ rib

(* --- VM / verifier safety --- *)

type vm_result = Value of int64 | Fault of string | Escaped of string

type vm_outcome = {
  result : vm_result;
  regs : int64 array;  (** r0..r10 after the run (or at the fault) *)
  calls : (int * int64 array) list;
      (** host-visible helper trace, oldest first: (id, argument
          registers r1..r5 at the call) *)
}

(* Recording helpers for every id the soup generator emits (0..24): each
   call appends its id and a *copy* of the argument registers to the
   trace — the block engine reuses one argument buffer per call site, so
   aliasing it would record lies — and returns a deterministic mix of id
   and arguments, so helper results feed back into the program. *)
let recording_helper_ids = List.init 25 Fun.id

let recording_helpers trace =
  List.map
    (fun id ->
      ( id,
        fun _vm (a : int64 array) ->
          let args = Array.copy a in
          trace := (id, args) :: !trace;
          let open Int64 in
          Array.fold_left
            (fun acc v -> add (mul acc 31L) v)
            (mul (of_int (id + 1)) 0x9E3779B97F4A7C15L)
            args ))
    recording_helper_ids

let run_engine engine prog : vm_outcome =
  let trace = ref [] in
  let vm =
    Ebpf.Vm.create ~budget:20_000 ~engine ~helpers:(recording_helpers trace)
      prog
  in
  let result =
    match Ebpf.Vm.run vm with
    | v -> Value v
    | exception Ebpf.Vm.Error e -> Fault e
    | exception Ebpf.Memory.Fault e -> Fault e
    | exception e -> Escaped (Printexc.to_string e)
  in
  let regs =
    Array.init 11 (fun i -> Ebpf.Vm.reg vm (Ebpf.Insn.reg_of_index i))
  in
  { result; regs; calls = List.rev !trace }

let engine_name = Ebpf.Vm.engine_name

(* Canonical textual fingerprint of [Vmm.map_state] — the unit the
   map-state oracle compares across engines, fan-out legs and chaos
   legs. Hex-rendered so a divergence report is printable byte-for-byte. *)
let render_map_state ms =
  let hex s =
    String.to_seq s
    |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
    |> List.of_seq |> String.concat ""
  in
  ms
  |> List.map (fun (prog, maps) ->
         Printf.sprintf "%s{%s}" prog
           (String.concat ";"
              (List.map
                 (fun (m, entries) ->
                   Printf.sprintf "%s:[%s]" m
                     (String.concat ","
                        (List.map
                           (fun (k, v) -> hex k ^ "=" ^ hex v)
                           entries)))
                 maps)))
  |> String.concat "|"

(* Engine-blind provenance fingerprint of the dispatch the VMM just
   traced. [Obs.Provenance.step] embeds the engine name (truthful
   display), so the cross-engine oracle renders every field *but* that
   one: program, bytecode, dynamic verdict, attribute mutability and
   writable maps must all agree across engines. *)
let render_provenance = function
  | None -> "-"
  | Some steps ->
    String.concat ";"
      (List.map
         (fun (s : Obs.Provenance.step) ->
           Printf.sprintf "%s/%s:%s%s[%s]" s.program s.bytecode s.outcome
             (if s.attrs_mutated then "!" else "")
             (String.concat "," s.maps_written))
         steps)

(* Full VMM round trip on one engine: register the program
   (re-verifying it, now including the static map-access checks against
   the declared map), attach it to the inbound filter and run it the
   way a daemon would. The VMM contract is that nothing escapes [run] —
   faults turn into the native default. Returns the chain result, the
   fault/fallback counters, the final map-state fingerprint and the
   dispatch's provenance fingerprint, all of which every engine must
   agree on. *)
let vmm_round_trip engine prog :
    (int64 * int * int * string * string, string) result =
  match
    let xp =
      Xbgp.Xprog.v ~name:"fuzzcase"
        ~maps:
          [ Xbgp.Xprog.map ~name:"m0" ~key_size:4 ~value_size:8 ~max_entries:8 () ]
        [ ("main", prog) ]
    in
    let vmm = Xbgp.Vmm.create ~budget:20_000 ~engine ~host:"fuzz" () in
    match Xbgp.Vmm.register vmm xp with
    | Ok () -> (
      match
        Xbgp.Vmm.attach vmm ~program:"fuzzcase" ~bytecode:"main"
          ~point:Xbgp.Api.Bgp_inbound_filter ~order:0
      with
      | Ok () ->
        let prefix_arg = Bytes.make 5 '\x00' in
        let v =
          Xbgp.Vmm.run vmm Xbgp.Api.Bgp_inbound_filter
            ~ops:Xbgp.Host_intf.null_ops
            ~args:
              (Xbgp.Host_intf.Args.of_list
                 [ (Xbgp.Api.arg_prefix, prefix_arg) ])
            ~default:(fun () -> 0L)
        in
        let prov =
          render_provenance
            (Xbgp.Vmm.last_trace vmm Xbgp.Api.Bgp_inbound_filter)
        in
        let st = Xbgp.Vmm.stats vmm in
        ( v,
          st.faults,
          st.native_fallbacks,
          render_map_state (Xbgp.Vmm.map_state vmm),
          prov )
      | Error _ -> (0L, 0, 0, "", ""))
    | Error _ -> (0L, 0, 0, "", "")
  with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let pp_regs ppf regs =
  Fmt.pf ppf "%a"
    Fmt.(array ~sep:(any " ") (fmt "%Lx"))
    regs

let first_trace_diff a b =
  let entry ppf (id, args) = Fmt.pf ppf "h%d(%a)" id pp_regs args in
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | x :: _, [] -> Some (i, Fmt.str "%a vs end-of-trace" entry x)
    | [], y :: _ -> Some (i, Fmt.str "end-of-trace vs %a" entry y)
    | ((ia, aa) as x) :: ta, ((ib, ab) as y) :: tb ->
      if ia = ib && aa = ab then go (i + 1) ta tb
      else Some (i, Fmt.str "%a vs %a" entry x entry y)
  in
  go 0 a b

(* Compare one engine's outcome against the interpreter baseline.
   Outcomes must agree in kind (value vs fault); on success the value,
   the full register file and the helper trace must be identical; on a
   fault the traces must still be identical (the fault messages are not
   compared — the engines word them identically today, but the
   equivalence contract is the fault itself, not its rendering). *)
let compare_outcomes ~pi ~base:(bn, (b : vm_outcome)) (en, (e : vm_outcome)) =
  let trace_diff () =
    match first_trace_diff b.calls e.calls with
    | None -> []
    | Some (i, d) ->
      [
        divergence "engine divergence on prog %d: helper trace differs at call %d: %s=%s"
          pi i (Fmt.str "%s vs %s" bn en) d;
      ]
  in
  match (b.result, e.result) with
  | Escaped _, _ | _, Escaped _ -> [] (* reported separately as crashes *)
  | Value vb, Value ve ->
    let value =
      if Int64.equal vb ve then []
      else
        [
          divergence "engine divergence on prog %d: %s=%Ld %s=%Ld" pi bn vb en
            ve;
        ]
    in
    let regs =
      if b.regs = e.regs then []
      else
        [
          divergence
            "engine divergence on prog %d: registers differ: %s=[%a] %s=[%a]"
            pi bn pp_regs b.regs en pp_regs e.regs;
        ]
    in
    value @ regs @ trace_diff ()
  | Value v, Fault f | Fault f, Value v ->
    [
      divergence
        "engine divergence on prog %d (%s vs %s): one returned %Ld, the \
         other faulted (%s)"
        pi bn en v f;
    ]
  | Fault _, Fault _ -> trace_diff ()

(* Soundness of the verifier's facts against the interpreter's helper
   trace: every traced call is one of the facts' call sites, and when
   every site of that helper resolved r1, the traced r1 is one of those
   values. The first violation is reported. *)
let facts_unsound ~pi (facts : Ebpf.Verifier.facts) calls =
  List.find_map
    (fun (id, (args : int64 array)) ->
      let sites =
        List.filter (fun (c : Ebpf.Verifier.call_site) -> c.helper = id) facts
      in
      let resolved =
        List.filter_map (fun (c : Ebpf.Verifier.call_site) -> c.r1) sites
      in
      if sites = [] then
        Some
          (divergence "verifier facts on prog %d miss traced helper %d" pi id)
      else if
        List.length resolved = List.length sites
        && not (List.mem args.(0) resolved)
      then
        Some
          (divergence
             "verifier facts on prog %d: helper %d traced with r1=%Ld, facts \
              resolve it to {%s}"
             pi id args.(0)
             (String.concat "," (List.map Int64.to_string resolved)))
      else None)
    calls
  |> Option.to_list

let check_prog ~perturb pi prog =
  match Ebpf.Verifier.check prog with
  | exception e ->
    [ crash "verifier raised %s on prog %d" (Printexc.to_string e) pi ]
  | Error _ -> [] (* clean rejection is the success case *)
  | Ok facts ->
    let outs =
      List.map (fun e -> (e, run_engine e prog)) Ebpf.Vm.all_engines
    in
    (* the perturb knob corrupts the block engine's view, proving the
       engine oracle and the shrink/replay pipeline fire end to end *)
    let outs =
      if not perturb then outs
      else
        List.map
          (fun (e, o) ->
            match (e, o.result) with
            | Ebpf.Vm.Block, Value v ->
              (e, { o with result = Value (Int64.add v 1L) })
            | _ -> (e, o))
          outs
    in
    let escaped =
      List.filter_map
        (fun (e, o) ->
          match o.result with
          | Escaped msg ->
            Some
              (crash "%s engine let %s escape on prog %d" (engine_name e) msg
                 pi)
          | _ -> None)
        outs
    in
    let base, rest =
      match outs with
      | (be, bo) :: rest -> ((engine_name be, bo), rest)
      | [] -> assert false
    in
    let diverged =
      List.concat_map
        (fun (e, o) -> compare_outcomes ~pi ~base (engine_name e, o))
        rest
    in
    (* every engine must also survive — and agree across — a full VMM
       round trip (real helpers, heap and scratch wired in) *)
    let vmm_runs =
      List.map (fun e -> (e, vmm_round_trip e prog)) Ebpf.Vm.all_engines
    in
    let vmm_escaped =
      List.filter_map
        (fun (e, r) ->
          match r with
          | Error msg ->
            Some
              (crash "vmm (%s engine) let %s escape on prog %d"
                 (engine_name e) msg pi)
          | Ok _ -> None)
        vmm_runs
    in
    let vmm_diverged =
      match vmm_runs with
      | (be, Ok bres) :: rest ->
        List.filter_map
          (fun (e, r) ->
            match r with
            | Ok res when res <> bres ->
              let render (v, f, nf, ms, prov) =
                Fmt.str "r0=%Ld faults=%d fallbacks=%d maps=%s prov=%s" v f nf
                  ms prov
              in
              Some
                (divergence
                   "vmm divergence on prog %d: %s=(%s) %s=(%s)" pi
                   (engine_name be) (render bres) (engine_name e) (render res))
            | _ -> None)
          rest
      | _ -> []
    in
    let unsound =
      facts_unsound ~pi facts (List.assoc Ebpf.Vm.Interpreted outs).calls
    in
    escaped @ diverged @ vmm_escaped @ vmm_diverged @ unsound

let run_vm ~perturb (c : Gen.case) =
  List.concat (List.mapi (fun i p -> check_prog ~perturb i p) c.progs)

(* --- entry point --- *)

let run ?(perturb = false) (c : Gen.case) : finding list =
  match c.scenario with
  | Gen.Plain_ebgp | Gen.Rr_ibgp | Gen.Ov_ebgp | Gen.Med_ebgp | Gen.Strip_ebgp
    ->
    run_differential ~perturb c
  | Gen.Hostile_peer -> run_hostile ~perturb c
  | Gen.Vm_soup | Gen.Vm_guided -> run_vm ~perturb c
