(** The flight recorder: a bounded binary ring of structured events.

    Sessions, routes, update groups, xprog faults, map evictions and
    full-map rejections all report here; the ring keeps the most recent
    history, evicts the oldest whole records on overflow and counts
    every eviction in [xbgp_recorder_dropped_total] — truncation is
    observable, never silent. Timestamps come from an injectable
    microsecond clock so a recording made under [Netsim.Sched] is
    deterministic and byte-reproducible. *)

type kind =
  | Session_transition
  | Route_add
  | Route_replace
  | Route_withdraw
  | Group_split
  | Group_merge
  | Group_rekey
  | Xprog_fault
  | Native_fallback
  | Map_evict
  | Map_full  (** a full map refused an insert *)
  | Note  (** free-form marker (scenario phase labels, test annotations) *)

val all_kinds : kind list
val kind_name : kind -> string

type event = {
  seq : int;  (** monotonically increasing, never reused *)
  ts_us : int;  (** injectable clock at record time *)
  kind : kind;
  fields : (string * string) list;  (** in record order *)
}

type t

val create : ?capacity:int -> ?telemetry:Telemetry.t -> ?name:string ->
  unit -> t
(** [capacity] is the ring size in bytes (default 64 KiB, minimum 256).
    [telemetry] receives [xbgp_recorder_events_total{kind}],
    [xbgp_recorder_dropped_total] and the [xbgp_recorder_bytes]
    occupancy gauge; [name] labels them when several recorders share a
    registry. *)

val set_clock : t -> (unit -> int) -> unit
(** Install the microsecond clock (scenarios inject the simulated
    scheduler's [now]). Default: a constant 0. *)

val record : t -> kind -> (string * string) list -> unit
(** Frame and append one event. Field keys are truncated at 255 bytes,
    values at 65535. On overflow the oldest whole frames are evicted
    (and counted) until the new frame fits. *)

val events : t -> event list
(** Every event still in the ring, oldest first. *)

val tail : ?n:int -> t -> event list
(** The last [n] (default 20) events, oldest first. *)

val since : t -> int -> event list
(** Events with [seq >=] the given seqno, oldest first. *)

val dropped : t -> int
(** Events evicted by overflow since creation. *)

val next_seq : t -> int
(** The seqno the next [record] will take (= events ever recorded). *)

val length : t -> int
(** Events currently held. *)

val capacity : t -> int

val event_to_text : event -> string
(** ["#seq TSus kind k=v k=v"]. *)

val event_to_json : event -> string

val to_json : ?since:int -> t -> string
(** [{"next_seq":..,"dropped":..,"events":[..]}]. *)

val tail_lines : ?n:int -> ?prefix:string -> t -> string list
(** The last-N tail as report lines (oldest first) — what fuzz
    divergence reports attach next to their fault records. *)

