(* The oracle's vocabulary and its per-input checks.

   - findings: one type for the whole campaign, classified so that
     shrinking can preserve the class of a failure, not just "some
     finding";
   - snapshot comparison: Loc-RIB / adj-RIB-in snapshots in the neutral
     codec form, canonically sorted, compared route for route between
     two legs of a case (hosts, engines, knob settings);
   - VM safety: every generated program either fails the verifier with a
     clean error list, or executes to an identical outcome on both
     execution engines (interpreter, block-compiled) — a value or a
     contained fault, never an escaped exception — with an identical
     final register file and an identical host-visible helper trace, and
     survives a full VMM round trip per engine. The interpreter's trace
     must also agree with the verifier's call-site facts. *)

type cls = Convergence | Equivalence | Telemetry_oracle | Crash

type finding = { cls : cls; detail : string }

let cls_name = function
  | Convergence -> "convergence"
  | Equivalence -> "equivalence"
  | Telemetry_oracle -> "telemetry"
  | Crash -> "crash"

let cls_of_name n =
  List.find_opt
    (fun c -> cls_name c = n)
    [ Convergence; Equivalence; Telemetry_oracle; Crash ]

let pp_finding ppf f = Fmt.pf ppf "[%s] %s" (cls_name f.cls) f.detail
let finding cls fmt = Fmt.kstr (fun s -> { cls; detail = s }) fmt

let classes_of findings =
  List.sort_uniq compare (List.map (fun f -> f.cls) findings)

let divergence fmt = finding Equivalence fmt
let crash fmt = finding Crash fmt

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
