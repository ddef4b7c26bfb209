(** The BGP session finite-state machine (RFC 4271 §8), simplified to the
    transitions a deterministic simulated transport can exercise:

    {v Idle -> OpenSent -> OpenConfirm -> Established v}

    Both ends open actively; keepalives are emitted every [hold_time]/3
    and the hold timer tears the session down when the peer goes quiet
    (e.g. after {!Netsim.Pipe.set_up}[ false]), at the last receipt plus
    [hold_time]. Each timer keeps at most one event pending in the
    scheduler: a received message only moves the hold deadline. *)

type state = Idle | Open_sent | Open_confirm | Established

val state_name : state -> string

type config = {
  local_as : int;
  local_id : int;  (** router id *)
  peer_as : int;  (** expected remote AS *)
  hold_time : int;  (** seconds of simulated time *)
}

type callbacks = {
  on_update : Bgp.Message.update -> raw:bytes -> unit;
      (** decoded UPDATE plus the raw frame, for the BGP_RECEIVE_MESSAGE
          insertion point *)
  on_established : unit -> unit;
  on_close : string -> unit;
}

type t

val create :
  ?telemetry:Telemetry.t ->
  Netsim.Sched.t -> Netsim.Pipe.port -> config -> callbacks -> t
(** [telemetry] receives one [bgp_session_transitions_total] increment
    per state edge, labeled [from]/[to]/[local_as] (default: a fresh
    disabled registry — the counters still count, nobody reads them). *)

val set_recorder : t -> Obs.Recorder.t option -> unit
(** Attach a flight recorder: every FSM edge is recorded as a
    [Session_transition] event (labeled local/peer AS, from, to). *)

val start : t -> unit
(** Actively open the session (send OPEN). *)

val send_update : t -> Bgp.Message.update -> unit
(** Ignored unless Established. *)

val send_raw : t -> bytes -> unit
(** Send a pre-encoded UPDATE frame — the daemons build frames themselves
    so the BGP_ENCODE_MESSAGE insertion point can append attribute
    bytes. *)

val send_raw_shared : t list -> bytes -> int
(** Fan one pre-encoded UPDATE frame out to every Established session of
    the list, sharing the single buffer across deliveries
    ({!Netsim.Pipe.send_shared}); non-Established sessions are skipped.
    Returns the number of sessions the frame went to. *)

val state : t -> state
val is_established : t -> bool

val peer_id : t -> int
(** The peer's router id, learned from its OPEN. *)

val stats : t -> int * int
(** Messages received, messages sent. *)
