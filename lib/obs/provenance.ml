(* Per-route provenance: the compact "why is this route here?" record.

   The paper's accountability worry is that once operator-shipped
   extensions can rewrite attributes and filter routes, `show ip bgp`
   stops explaining the RIB: the answer now involves which bytecodes
   ran, what each returned, and what it was allowed to touch. A
   provenance record captures exactly that, for the *latest* import of
   each prefix:

   - where the route came from (ingress peer, or locally originated);
   - the import chain that ran: per bytecode its program, engine,
     outcome (accept / reject / next()/ fault), whether it may mutate
     route attributes and which maps it may write — the static half
     comes from the bytecode's [Vmm.facts], derived once from the
     verifier's call sites at registration, the dynamic half from the
     VMM's last-dispatch trace;
   - the import verdict (native policy counts too);
   - the decision outcome: which RFC 4271 step separated this route
     from the runner-up, or that it was the only candidate, or that an
     attached BGP_DECISION extension made the call.

   Determinism contract: a record contains no run counters, no
   timestamps and no engine-internal state, so the same route arriving
   in one multi-prefix UPDATE or in one UPDATE per prefix MUST produce
   equal records — test_provenance.ml and the golden [show provenance]
   outputs enforce it. *)

type step = {
  program : string;
  bytecode : string;
  engine : string;
  outcome : string;
      (** "accept" / "reject" / "next()" / "fault" / "ret=N" — the
          dynamic verdict of this bytecode in the recorded dispatch *)
  attrs_mutated : bool;
      (** statically: the bytecode calls set_attr/add_attr/remove_attr *)
  maps_written : string list;
      (** statically: map names it may update or delete *)
}

(** How the decision process disposed of the route, once imported. *)
type decision =
  | Only_candidate  (** installed without comparison *)
  | Best of { runner_up : string; step : int; step_name : string }
      (** won; [step] is the 1-based RFC 4271 tie-break step that
          separated it from the closest runner-up ([0] = tied, broken
          by arrival order) *)
  | Shadowed of { best : string; step : int; step_name : string }
      (** lost to [best] at [step] — kept as a candidate only *)
  | Xprog_decided of { runner_up : string }
      (** a BGP_DECISION extension chain ordered the candidates *)

type status = Installed | Candidate | Rejected | Withdrawn

type t = {
  prefix : string;
  ingress : string;  (** "peer <name> (AS <n>)" or "local" *)
  chain : step list;  (** import chain, execution order; [] = none *)
  import : string;
      (** "accepted" / "accepted (native)" / "rejected: <why>" *)
  decision : decision option;  (** [None] until the decision process ran *)
  status : status;
}

let status_name = function
  | Installed -> "installed"
  | Candidate -> "candidate"
  | Rejected -> "rejected"
  | Withdrawn -> "withdrawn"

let equal (a : t) (b : t) = a = b

(* --- rendering --- *)

let decision_to_text = function
  | Only_candidate -> "only candidate"
  | Best { runner_up; step = 0; _ } ->
    Printf.sprintf "best (tied with %s, first installed wins)" runner_up
  | Best { runner_up; step; step_name } ->
    Printf.sprintf "best: beats %s at step %d (%s)" runner_up step step_name
  | Shadowed { best; step = 0; _ } ->
    Printf.sprintf "candidate (tied with installed %s)" best
  | Shadowed { best; step; step_name } ->
    Printf.sprintf "candidate: loses to %s at step %d (%s)" best step
      step_name
  | Xprog_decided { runner_up } ->
    Printf.sprintf "best: BGP_DECISION extension preferred it over %s"
      runner_up

let step_to_text s =
  Printf.sprintf "%s/%s [%s] -> %s%s%s" s.program s.bytecode s.engine
    s.outcome
    (if s.attrs_mutated then " (mutates attrs)" else "")
    (match s.maps_written with
    | [] -> ""
    | ms -> Printf.sprintf " (writes maps: %s)" (String.concat "," ms))

let to_text t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s: %s\n  from: %s\n" t.prefix (status_name t.status)
       t.ingress);
  (match t.chain with
  | [] -> Buffer.add_string b "  import chain: (none attached)\n"
  | steps ->
    Buffer.add_string b "  import chain:\n";
    List.iter
      (fun s -> Buffer.add_string b ("    " ^ step_to_text s ^ "\n"))
      steps);
  Buffer.add_string b (Printf.sprintf "  import: %s\n" t.import);
  (match t.decision with
  | None -> ()
  | Some d ->
    Buffer.add_string b
      (Printf.sprintf "  decision: %s\n" (decision_to_text d)));
  Buffer.contents b

let js = Recorder.json_escape

let step_to_json s =
  Printf.sprintf
    "{\"program\":\"%s\",\"bytecode\":\"%s\",\"engine\":\"%s\",\
     \"outcome\":\"%s\",\"attrs_mutated\":%b,\"maps_written\":[%s]}"
    (js s.program) (js s.bytecode) (js s.engine) (js s.outcome)
    s.attrs_mutated
    (String.concat ","
       (List.map (fun m -> Printf.sprintf "\"%s\"" (js m)) s.maps_written))

let decision_to_json = function
  | Only_candidate -> "{\"kind\":\"only_candidate\"}"
  | Best { runner_up; step; step_name } ->
    Printf.sprintf
      "{\"kind\":\"best\",\"runner_up\":\"%s\",\"step\":%d,\
       \"step_name\":\"%s\"}"
      (js runner_up) step (js step_name)
  | Shadowed { best; step; step_name } ->
    Printf.sprintf
      "{\"kind\":\"shadowed\",\"best\":\"%s\",\"step\":%d,\
       \"step_name\":\"%s\"}"
      (js best) step (js step_name)
  | Xprog_decided { runner_up } ->
    Printf.sprintf "{\"kind\":\"xprog_decided\",\"runner_up\":\"%s\"}"
      (js runner_up)

let to_json t =
  Printf.sprintf
    "{\"prefix\":\"%s\",\"status\":\"%s\",\"ingress\":\"%s\",\
     \"chain\":[%s],\"import\":\"%s\",\"decision\":%s}"
    (js t.prefix) (status_name t.status) (js t.ingress)
    (String.concat "," (List.map step_to_json t.chain))
    (js t.import)
    (match t.decision with None -> "null" | Some d -> decision_to_json d)

(* One-line summary for recorder events: compact enough for ring frames,
   detailed enough that a divergence tail explains itself. *)
let summary t =
  Printf.sprintf "%s from=%s import=%s chain=[%s]%s" (status_name t.status)
    t.ingress t.import
    (String.concat ";"
       (List.map (fun s -> s.program ^ ":" ^ s.outcome) t.chain))
    (match t.decision with
    | None -> ""
    | Some d -> " decision=" ^ decision_to_text d)
