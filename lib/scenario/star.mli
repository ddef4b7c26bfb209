(** Star topology: one DUT hub fanning a table out to N spoke peers — the
    harness behind the repository benchmark's fan-out workload and the
    chaos campaign's star cases, whose sinks the export reference model
    ({!Fuzz.Export_model}) checks after every phase.

    The DUT runs either host. Every spoke is a minimal scripted "sink"
    peer built directly on {!Session.Fsm}: it completes the handshake,
    keeps the session alive, and records each UPDATE frame it receives —
    in arrival order, raw bytes included — so two legs of one case can be
    compared stream-for-stream. Sinks can also originate routes into the
    DUT, making one of them a split-horizon source member of its own
    update group. *)

type t

val create :
  ?host:Testbed.host ->
  ?manifest:Xbgp.Manifest.t ->
  ?engine:Ebpf.Vm.engine ->
  ?telemetry:Telemetry.t ->
  ?vmm:Xbgp.Vmm.t ->
  ?update_groups:bool ->
  ?batch_updates:bool ->
  ?ibgp:bool ->
  ?native_rr:bool ->
  ?rr_client:(int -> bool) ->
  ?hold_time:int ->
  ?record_frames:bool ->
  ?track_rib:bool ->
  ?xtras:(string * bytes) list ->
  npeers:int ->
  unit ->
  t
(** [vmm] installs a pre-built VMM on the DUT (benchmarks attach custom
    bytecode); otherwise [manifest] is instantiated through the program
    registry. [ibgp] makes every spoke an iBGP peer (default: each spoke
    its own AS); [rr_client i] marks spoke [i] a route-reflector client.
    [record_frames] / [track_rib] (default true) can be switched off to
    keep full-table benchmark runs lean. [xtras] are the DUT's named
    configuration extras (ROA tables, thresholds) fed to [get_xtra].
    [update_groups] and [batch_updates] change nothing: the DUT has one
    export path (update groups) and one import path (batched NLRI), and
    the two labels stay for the repository benchmark, which passes
    [true] (see {!Testbed.only_path}).
    Also resets the FRR intern table (fresh-process semantics).
    @raise Invalid_argument unless [1 <= npeers <= 200], or if
    [update_groups] or [batch_updates] is [false]. *)

val npeers : t -> int
val dut : t -> Daemon.t
val dut_vmm : t -> Xbgp.Vmm.t option
val telemetry : t -> Telemetry.t
val sched : t -> Netsim.Sched.t

val start : t -> unit
(** Start the DUT and open every sink session (no settling). *)

val establish : t -> unit
(** {!start}, then run until every session is Established on both ends.
    @raise Failure if they do not come up. *)

val all_established : t -> bool

val run_for : t -> int -> unit
(** Run the simulation for that many microseconds of simulated time. *)

val run_until : ?timeout_us:int -> t -> (unit -> bool) -> bool
(** Run until the predicate holds; false if [timeout_us] (default 120 s)
    of simulated time passes first. The event queue never drains while
    keepalive timers are armed, so every run is time-bounded. *)

val settle : ?slice_us:int -> ?max_slices:int -> t -> unit
(** Run until a whole [slice_us] window (default 200 ms simulated)
    brings no new route activity at any sink — long past the +0 flush
    delay and the 100 us pipe latency, far under the keepalive period. *)

val attach_recorder : t -> Obs.Recorder.t -> unit
(** Attach a flight recorder to the DUT (daemon, VMM, session FSMs,
    update-group engine), clocked by the simulated scheduler so event
    timestamps are reproducible. *)

val attach_collector : t -> Obs.Bmp.collector -> unit
(** Attach a BMP-style passive collector mirroring the DUT's received
    UPDATEs and session edges. *)

val originate : t -> Bgp.Prefix.t -> Bgp.Attr.t list -> unit
val withdraw_local : t -> Bgp.Prefix.t -> unit

val sink_announce : t -> int -> attrs:Bgp.Attr.t list -> Bgp.Prefix.t list -> unit
(** Originate routes from sink [i] into the DUT (split-horizon tests). *)

val sink_withdraw : t -> int -> Bgp.Prefix.t list -> unit

val sink_send_raw : t -> int -> bytes -> unit
(** Write one raw frame on sink [i]'s wire, bypassing its session state
    machine — how a hostile peer injects mutated frames. *)

val sink_established : t -> int -> bool

val sink_address : t -> int -> int
(** Sink [i]'s address (its NEXT_HOP when it originates routes) and its
    BGP identifier. *)

(** {1 The DUT's configuration, as an export model reads it} *)

val dut_as : t -> int

val dut_address : t -> int
(** The DUT's router id, cluster id and next-hop-self address. *)

val native_rr : t -> bool
val sink_as : t -> int -> int
val sink_rr_client : t -> int -> bool

val sink_frames : t -> int -> bytes list
(** UPDATE frames received by sink [i], oldest first, raw bytes — the
    stream the chaos oracle compares between legs on one host. *)

val sink_adv_seen : t -> int -> int
val sink_rib_size : t -> int -> int

val sink_rib : t -> int -> (Bgp.Prefix.t * Bgp.Attr.t list) list
(** Sink [i]'s derived adj-RIB-in, sorted by prefix (reset when its
    session closes). *)

val set_link_up : t -> int -> bool -> unit
(** Fail / repair the link to sink [i] (both directions). *)

val restart : t -> unit
(** Re-open every session that has fallen back to Idle on both the DUT
    and the sinks (e.g. after a link failure healed). *)

