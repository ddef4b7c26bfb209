(** The shared measurement substrate: a zero-dependency registry of
    counters, gauges and log2-bucketed histograms, plus a span-based
    tracer with a bounded ring buffer.

    One registry is threaded through a whole simulated deployment — the
    VMM, both BGP daemons, the session FSMs and the netsim pipes all
    record into it — so a single export (Prometheus text, Chrome trace
    JSON) shows the full picture.

    Two design rules keep it honest on the hot path:

    - {b counters and gauges are always on}: an increment is one integer
      store, cheaper than the branch that would gate it, and the daemons'
      [stats] accessors are derived from them so they must always count;
    - {b histograms and spans obey {!enabled}}: they allocate, so the
      disabled path is a single load-and-branch (the bench's paired
      enabled/disabled run bounds the residual cost).

    The trace timebase is injectable ({!set_clock_us}) and is expected to
    be the netsim scheduler clock, which makes traces deterministic under
    simulation. Durations for latency histograms come from a separate
    nanosecond clock ({!set_clock_ns}) because simulated work takes zero
    simulated time; hosts with access to a real clock install one. *)

type t
(** A registry: metric families, the tracer ring, and the two clocks. *)

val create : ?enabled:bool -> ?ring_capacity:int -> unit -> t
(** [enabled] gates histograms and spans (default [true]);
    [ring_capacity] bounds the finished-span ring (default 4096). *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val set_span_sampling : t -> int -> unit
(** [set_span_sampling t n] records only one span in [n] (deterministic
    modulo counting, not random). Counters and gauges remain exact;
    histograms fed from sampled code paths (e.g. the VMM's span-derived
    latency histograms) see proportionally fewer observations. [n <= 1]
    restores the record-everything default. *)

val span_sampling : t -> int
(** The current 1-in-N span sampling factor (1 = every span). *)

val sample : t -> bool
(** Consume one sampling tick: [true] when the registry is enabled and
    this event is the 1-in-N one that should pay for expensive
    instrumentation (clock reads, allocation). Hot paths use this to
    gate latency measurements the same way {!span_begin} gates spans. *)

val set_clock_us : t -> (unit -> int) -> unit
(** Install the trace timebase, in microseconds. The simulator installs
    [fun () -> Netsim.Sched.now sched]; the default clock returns 0. *)

val set_clock_ns : t -> (unit -> int) -> unit
(** Install the duration clock, in nanoseconds, used for latency
    histograms and span durations measured in wall time. The default is
    derived from [Sys.time] (coarse but dependency-free). *)

val now_us : t -> int
val now_ns : t -> int

(** {1 Metrics}

    Metrics are identified by a family name plus a label set; asking for
    the same (name, labels) twice returns the same instance, so hot paths
    cache the handle once and pay only the store per event. *)

module Counter : sig
  type t

  val inc : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  (** Also tracks the high-water mark. *)

  val add : t -> int -> unit
  val value : t -> int

  val max_value : t -> int
  (** Highest value ever {!set} (the queue-depth / heap high-water
      mark). *)
end

module Histogram : sig
  (** Log2-bucketed histogram of non-negative integers. Bucket 0 holds
      values [<= 0]; value [v >= 1] lands in bucket [1 + floor(log2 v)],
      i.e. bucket [k >= 1] covers [2^(k-1) .. 2^k - 1]. A reported
      percentile is the upper bound of the bucket holding that rank, so
      for any true quantile [q]: [q <= reported < 2 * max q 1]. *)

  type t

  val observe : t -> int -> unit
  val count : t -> int
  val sum : t -> int

  val bucket_index : int -> int
  (** The bucket a value lands in. *)

  val bucket_upper : int -> int
  (** Inclusive upper bound of a bucket: [0] for bucket 0, else
      [2^k - 1], saturating at [max_int] for the top buckets. *)

  val bucket_count : t -> int -> int
  (** Observations in one bucket. *)

  val merge_into : dst:t -> t -> unit
  (** Bucket-wise addition of [src] into [dst]. *)

  val percentile : t -> float -> int
  (** [percentile h p] for [p] in [0..100]: the upper bound of the
      bucket containing the [ceil (p/100 * count)]-th smallest
      observation; [0] when empty. *)

  val p50 : t -> int
  val p99 : t -> int
end

val counter :
  t -> ?help:string -> name:string -> labels:(string * string) list ->
  unit -> Counter.t

val gauge :
  t -> ?help:string -> name:string -> labels:(string * string) list ->
  unit -> Gauge.t

val histogram :
  t -> ?help:string -> name:string -> labels:(string * string) list ->
  unit -> Histogram.t

val counter_value : t -> name:string -> labels:(string * string) list -> int
(** Read a counter without creating it; [0] when absent — what tests use
    to assert on metrics. *)

val histogram_count :
  t -> name:string -> labels:(string * string) list -> int

val metric_names : t -> string list
(** Registered family names, sorted. *)

val counters : t -> (string * (string * string) list * int) list
(** Every counter instance as [(family, labels, value)], sorted by
    family then labels — two snapshots of the same registry line up
    pairwise, which is how the chaos fuzzer asserts monotonicity. *)

val gauges : t -> (string * (string * string) list * int) list
(** Every gauge instance as [(family, labels, value)], same order
    contract as {!counters} (the chaos fuzzer's leak oracle reads the
    [net_in_flight_chunks] instances at quiescence). *)

(** {1 Spans}

    A span is one timed operation (a [Vmm.run], a scenario phase). Spans
    nest: a span begun while another is open records it as its parent.
    Finished spans land in a bounded ring — when it wraps, the oldest
    spans are dropped and counted in {!dropped_spans}. When the registry
    is disabled, {!span_begin} returns a shared dummy and records
    nothing; under {!set_span_sampling} it does the same for the
    unsampled ticks. *)

module Span : sig
  type t = {
    id : int;  (** 0 on the disabled dummy *)
    parent : int;  (** 0 = no parent *)
    name : string;
    mutable tags : (string * string) list;
    ts_us : int;  (** start, trace timebase *)
    mutable dur_us : int;
    ts_ns : int;  (** start, duration clock *)
    mutable dur_ns : int;
  }

  val tag : t -> string -> string option
end

val span_begin : t -> ?tags:(string * string) list -> string -> Span.t

val span_end : t -> ?tags:(string * string) list -> Span.t -> unit
(** Close the span (extra [tags] are appended) and push it into the
    ring. Closing a span closes any still-open descendants' nesting
    scope as well. *)

val spans : t -> Span.t list
(** Finished spans, oldest first (at most the ring capacity). *)

val dropped_spans : t -> int
val reset_spans : t -> unit

(** {1 Exporters} *)

val to_prometheus : t -> string
(** Prometheus text exposition format, version 0.0.4: [# HELP]/[# TYPE]
    headers, one sample line per labeled instance, histograms expanded
    into [_bucket]/[_sum]/[_count] with cumulative [le] labels. *)

val json_escape : string -> string
(** Minimal JSON string escaping (quote, backslash, control characters),
    shared by every JSON emitter in the tree. *)

val to_chrome_trace : t -> string
(** Chrome trace-event JSON ([{"traceEvents": [...]}]), one complete
    event (["ph":"X"]) per finished span, [ts]/[dur] in microseconds of
    the trace timebase, tags as [args] — loadable in [chrome://tracing]
    or Perfetto. *)

val profile_table : t -> string
(** The per-xprog profile: one row per (insertion point, program,
    engine) with run count and p50/p99 retired instructions and
    nanoseconds, derived from the [xbgp_run_insns]/[xbgp_run_ns]
    histogram families the VMM records. Empty string when nothing was
    recorded. *)

(** {1 The shared daemon-stats snapshot}

    Both BGP daemons expose [stats : t -> stats] returning this record,
    assembled from their registry counters — one definition instead of
    two drifting copies. *)

type daemon_stats = {
  mutable updates_rx : int;
  mutable routes_in : int;
  mutable withdrawals_rx : int;
  mutable import_rejected : int;
  mutable export_rejected : int;
  mutable updates_tx : int;
}
