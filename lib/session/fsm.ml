(* The BGP session finite-state machine (RFC 4271 §8), simplified to the
   transitions a deterministic simulated transport can exercise:

     Idle -> Open_sent -> Open_confirm -> Established

   Both ends are active openers (the simulated pipe cannot fail to
   connect); collisions cannot happen because each pipe carries exactly
   one session. Keepalives are emitted every hold_time/3 and a hold timer
   tears the session down when the peer goes quiet — which happens when a
   pipe is failed via [Netsim.Pipe.set_up]. *)

let src = Logs.Src.create "session" ~doc:"BGP session FSM"

module Log = (val Logs.src_log src : Logs.LOG)

type state = Idle | Open_sent | Open_confirm | Established

let state_name = function
  | Idle -> "Idle"
  | Open_sent -> "OpenSent"
  | Open_confirm -> "OpenConfirm"
  | Established -> "Established"

type config = {
  local_as : int;
  local_id : int;  (** router id *)
  peer_as : int;  (** expected remote AS (eBGP) or own AS (iBGP) *)
  hold_time : int;  (** seconds of simulated time *)
}

type callbacks = {
  on_update : Bgp.Message.update -> raw:bytes -> unit;
      (** a decoded UPDATE, plus the raw frame for the
          BGP_RECEIVE_MESSAGE insertion point *)
  on_established : unit -> unit;
  on_close : string -> unit;
}

(* A session timer: a deadline plus at most one pending scheduler event,
   as BIRD re-arms [conn->hold_timer] in place and FRR cancels its
   [t_holdtime] before adding another. Moving the deadline schedules
   nothing while an event is pending; an event that wakes before the
   deadline re-schedules itself for the time that remains, so the timer
   still expires exactly at its deadline. *)
type timer = {
  mutable deadline : int;  (** absolute sim time; [max_int] = disarmed *)
  mutable queued : bool;  (** one scheduler event is pending *)
  mutable on_expiry : unit -> unit;  (** set once, by [create] *)
}

let new_timer () = { deadline = max_int; queued = false; on_expiry = ignore }

let rec wake sched tm () =
  tm.queued <- false;
  if Netsim.Sched.now sched >= tm.deadline then begin
    tm.deadline <- max_int;
    tm.on_expiry ()
  end
  else if tm.deadline < max_int then queue sched tm

and queue sched tm =
  tm.queued <- true;
  Netsim.Sched.after sched
    (tm.deadline - Netsim.Sched.now sched)
    (wake sched tm)

(* (Re)start [tm] to expire [delay] µs from now. *)
let restart sched tm delay =
  tm.deadline <- Netsim.Sched.now sched + delay;
  if not tm.queued then queue sched tm

(* A pending event wakes to find no deadline and lapses. *)
let disarm tm = tm.deadline <- max_int

type t = {
  sched : Netsim.Sched.t;
  port : Netsim.Pipe.port;
  config : config;
  callbacks : callbacks;
  tele : Telemetry.t;
  mutable state : state;
  mutable peer_id : int;  (** learned from the peer's OPEN *)
  mutable pending : bytes;  (** unconsumed stream bytes *)
  hold : timer;  (** restarted by every message received *)
  keepalive : timer;  (** Established only *)
  mutable msgs_rx : int;
  mutable msgs_tx : int;
  mutable recorder : Obs.Recorder.t option;
      (** flight recorder; every FSM edge lands in it when attached *)
}

let sec s = s * 1_000_000

(* Every state change funnels through here so the registry sees each
   (from, to) edge — and the flight recorder, when one is attached.
   Transitions are rare, so the counter lookup per edge is fine. *)
let transition t to_state =
  if t.state <> to_state then begin
    Telemetry.Counter.inc
      (Telemetry.counter t.tele ~help:"BGP session state transitions"
         ~name:"bgp_session_transitions_total"
         ~labels:
           [
             ("from", state_name t.state);
             ("to", state_name to_state);
             ("local_as", string_of_int t.config.local_as);
           ]
         ());
    (match t.recorder with
    | None -> ()
    | Some r ->
      Obs.Recorder.record r Obs.Recorder.Session_transition
        [
          ("local_as", string_of_int t.config.local_as);
          ("peer_as", string_of_int t.config.peer_as);
          ("from", state_name t.state);
          ("to", state_name to_state);
        ]);
    t.state <- to_state
  end

let set_recorder t r = t.recorder <- r

let rec create ?telemetry sched port config callbacks =
  let tele =
    match telemetry with
    | Some t -> t
    | None -> Telemetry.create ~enabled:false ()
  in
  let t =
    {
      sched;
      port;
      config;
      callbacks;
      tele;
      state = Idle;
      peer_id = 0;
      pending = Bytes.empty;
      hold = new_timer ();
      keepalive = new_timer ();
      msgs_rx = 0;
      msgs_tx = 0;
      recorder = None;
    }
  in
  t.hold.on_expiry <- (fun () -> hold_expired t);
  t.keepalive.on_expiry <- (fun () -> keepalive_expired t);
  Netsim.Pipe.set_receiver port (fun chunk -> receive t chunk);
  t

and send_msg t msg =
  t.msgs_tx <- t.msgs_tx + 1;
  Netsim.Pipe.send t.port (Bgp.Message.encode msg)

and close t reason =
  if t.state <> Idle then begin
    Log.debug (fun m -> m "AS%d: session closed: %s" t.config.local_as reason);
    transition t Idle;
    disarm t.hold;
    disarm t.keepalive;
    t.pending <- Bytes.empty;
    t.callbacks.on_close reason
  end

and arm_hold_timer t = restart t.sched t.hold (sec t.config.hold_time)

and hold_expired t =
  let handshaking = t.state <> Established in
  (* no Notification for an expired handshake: when both ends retry at
     the same instant, each side's Notification would arrive just ahead
     of the peer's fresh OPEN and tear the new attempt down again — a
     livelock *)
  if not handshaking then
    send_msg t
      (Bgp.Message.Notification { code = 4; subcode = 0; data = Bytes.empty });
  close t "hold timer expired";
  (* connect retry (RFC 4271 §8.2.1): a handshake that never completed
     lost its OPEN — typically sent into a link that was down at the
     time — so re-open, or the session would sit Idle forever even after
     the link heals. An Established session that expires stays down
     until its owner restarts it. *)
  if handshaking then start t

and arm_keepalive t =
  restart t.sched t.keepalive (sec (max 1 (t.config.hold_time / 3)))

and keepalive_expired t =
  send_msg t Bgp.Message.Keepalive;
  arm_keepalive t

and establish t =
  transition t Established;
  arm_hold_timer t;
  arm_keepalive t;
  t.callbacks.on_established ()

and handle_msg t msg ~raw =
  t.msgs_rx <- t.msgs_rx + 1;
  match (t.state, msg) with
  | _, Bgp.Message.Notification n ->
    close t (Printf.sprintf "notification %d/%d received" n.code n.subcode)
  | (Idle | Open_sent | Open_confirm), Bgp.Message.Open o ->
    let expected =
      if t.config.peer_as > 0xffff then Bgp.Message.as_trans
      else t.config.peer_as
    in
    if o.version <> 4 then begin
      send_msg t
        (Bgp.Message.Notification { code = 2; subcode = 1; data = Bytes.empty });
      close t "unsupported version"
    end
    else if o.my_as <> expected then begin
      send_msg t
        (Bgp.Message.Notification { code = 2; subcode = 2; data = Bytes.empty });
      close t
        (Printf.sprintf "bad peer AS %d (expected %d)" o.my_as expected)
    end
    else begin
      (* passive open: an OPEN arriving while Idle (from a peer in its
         connect-retry loop) is answered with our own OPEN instead of
         being dropped — otherwise two peers whose handshakes failed at
         different times livelock, each retry landing in the other's
         Idle. A duplicate OPEN in Open_confirm (simultaneous retries
         answering each other's passive opens) is benign: re-confirm
         rather than treating it as a protocol error. *)
      if t.state = Idle then
        send_msg t
          (Bgp.Message.Open
             {
               version = 4;
               my_as = t.config.local_as;
               hold_time = t.config.hold_time;
               bgp_id = t.config.local_id;
             });
      t.peer_id <- o.bgp_id;
      transition t Open_confirm;
      send_msg t Bgp.Message.Keepalive;
      arm_hold_timer t
    end
  | Open_confirm, Bgp.Message.Keepalive ->
    arm_hold_timer t;
    establish t
  | Established, Bgp.Message.Keepalive -> arm_hold_timer t
  | Established, Bgp.Message.Update u ->
    arm_hold_timer t;
    t.callbacks.on_update u ~raw
  | Idle, _ ->
    (* stale in-flight frames from before a close; drop silently *)
    ()
  | state, msg ->
    send_msg t
      (Bgp.Message.Notification { code = 5; subcode = 0; data = Bytes.empty });
    close t
      (Fmt.str "unexpected %a in state %s" Bgp.Message.pp msg
         (state_name state))

and receive t chunk =
  t.pending <-
    (if Bytes.length t.pending = 0 then chunk
     else Bytes.cat t.pending chunk);
  (match Bgp.Message.deframe t.pending with
  | frames, rest ->
    t.pending <- rest;
    List.iter
      (fun raw ->
        (* Idle frames still reach [handle_msg]: an OPEN there is a
           passive open, everything else is dropped *)
        match Bgp.Message.decode raw with
        | msg -> handle_msg t msg ~raw
        | exception Bgp.Message.Parse_error e ->
          if t.state <> Idle then begin
            send_msg t
              (Bgp.Message.Notification
                 { code = 1; subcode = 0; data = Bytes.empty });
            close t ("parse error: " ^ e)
          end)
      frames
  | exception Bgp.Message.Parse_error e ->
    send_msg t
      (Bgp.Message.Notification { code = 1; subcode = 0; data = Bytes.empty });
    close t ("framing error: " ^ e));
  (* A closed session has no stream to resynchronize: a partial frame
     left over (one whose length field lied) would swallow the next
     session's OPEN, so a closed end keeps no bytes. *)
  if t.state = Idle then t.pending <- Bytes.empty

(* Actively open the session (send OPEN). In the recursive knot because
   the hold-timer expiry of a failed handshake retries through it. *)
and start t =
  if t.state = Idle then begin
    transition t Open_sent;
    send_msg t
      (Bgp.Message.Open
         {
           version = 4;
           my_as = t.config.local_as;
           hold_time = t.config.hold_time;
           bgp_id = t.config.local_id;
         });
    arm_hold_timer t
  end

(** Send an UPDATE; silently ignored unless Established. *)
let send_update t u =
  if t.state = Established then send_msg t (Bgp.Message.Update u)

(** Fan one pre-encoded UPDATE frame out to every Established session,
    sharing the single buffer across the deliveries
    ([Netsim.Pipe.send_shared]). Returns the number of sessions the
    frame was sent to. *)
let send_raw_shared sessions frame =
  let ports =
    List.filter_map
      (fun t ->
        if t.state = Established then begin
          t.msgs_tx <- t.msgs_tx + 1;
          Some t.port
        end
        else None)
      sessions
  in
  Netsim.Pipe.send_shared ports frame;
  List.length ports

let state t = t.state
let is_established t = t.state = Established
let peer_id t = t.peer_id
let stats t = (t.msgs_rx, t.msgs_tx)
