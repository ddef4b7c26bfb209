(** Update groups: the encode-once / fan-out-many export engine.

    Peers whose outbound policy provably produces identical bytes are
    partitioned into groups sharing one adj-RIB-out; a daemon evaluates
    export policy and the outbound xprog chain once per group, encodes
    each UPDATE once, and fans the frames to every member.

    The module is daemon-neutral and generic in the attribute
    representation ['attrs] (the FRR-like host groups interned records,
    the BIRD-like host wire-form attribute sets) — equality is injected
    at {!create}. Sharing is only sound when the caller groups peers
    whose outbound chains pass {!Vmm.group_invariant}; peer-dependent
    chains belong in singleton groups, which flow through the same
    machinery and behave exactly as a per-peer Adj-RIB-Out would.

    Membership is dynamic: peers {!join} on session sync, {!leave} on
    close, and {!rekey} re-partitions everyone when attachment changes
    alter the export-relevant key. Churn is observable through the
    [bgp_update_groups_active] gauge and the [bgp_group_splits_total] /
    [bgp_group_merges_total] / [bgp_fanout_bytes_saved_total] counters
    (label [daemon]). *)

type 'attrs t
(** The partition: every tracked peer is in exactly one group. *)

type 'attrs group

val create :
  ?telemetry:Telemetry.t ->
  daemon:string ->
  equal:('attrs -> 'attrs -> bool) ->
  unit ->
  'attrs t
(** [equal] decides whether two export results are the same
    advertisement (drives re-advertise suppression, as a per-peer
    Adj-RIB-Out's comparison would). *)

val set_recorder : 'attrs t -> Obs.Recorder.t option -> unit
(** Attach a flight recorder: every split, merge and re-key cluster
    move is recorded as a structured event (fields [daemon], [key] /
    [from]/[to], moved peer indices). *)

val group_count : 'attrs t -> int
val iter_groups : 'attrs t -> ('attrs group -> unit) -> unit
(** Stable order (group creation order), so flush framing is
    reproducible. Allocates nothing. *)

val members : 'attrs group -> int list
(** Ascending peer indices. *)

val size : 'attrs group -> int
(** Number of members. *)

val representative : 'attrs group -> except:int -> int option
(** The lowest-indexed member other than [except] — the peer a daemon
    evaluates export policy for on the group's behalf. [None] when
    [except] is the only member (or the group is empty). *)

val key : 'attrs group -> string
val is_member : 'attrs group -> int -> bool
val member_group : 'attrs t -> int -> 'attrs group option
val pending : 'attrs group -> bool
val rib_size : 'attrs group -> int
val rib_find : 'attrs group -> Bgp.Prefix.t -> ('attrs * int) option

val join : 'attrs t -> peer:int -> key:string -> 'attrs group
(** Put [peer] into the group for [key], creating it when absent
    (joining an existing group counts one merge). A no-op returning the
    current group when the peer is already under that key (including a
    re-keyed ["key#n"] variant of it). *)

val leave : 'attrs t -> peer:int -> unit
(** Remove a peer (session close); empty groups are deleted. *)

val route_update :
  'attrs t -> 'attrs group -> Bgp.Prefix.t -> ('attrs * int) option -> unit
(** One Loc-RIB change with the export evaluated once for a
    representative member. [Some (attrs, skip)]: every member except
    [skip] (the route's source; [-1] when not a member) should carry
    [attrs]. [None]: nobody should. Updates the shared adj-RIB-out and
    queues exactly the per-member advertise/withdraw transitions a
    per-peer Adj-RIB-Out would emit. *)

val catch_up_entry :
  'attrs group -> Bgp.Prefix.t -> 'attrs -> skip:int -> member:int -> unit
(** Queue a targeted advertisement bringing a just-joined [member] up to
    date with one accepted export ([attrs]); creates the shared RIB
    entry (with [skip]) when the group didn't have it yet. Call in
    Loc-RIB iteration order so the catch-up stream is an initial table
    sync in prefix order. *)

val take_classes :
  'attrs group ->
  (int list * Bgp.Prefix.t list * (Bgp.Prefix.t * 'attrs) list) list
(** Drain the queued events into flush classes
    [(members, withdrawals, advertisements)]: members of one class have
    bytewise-identical pending streams (both lists in enqueue order), so
    the caller encodes each class once and fans the frames to all its
    members. Returns [[]] when nothing is pending. *)

val rekey : 'attrs t -> desired:(int -> string) -> unit
(** Re-partition after export-relevant keys changed (xprog
    attach/detach). Members of one group moving to one key travel as a
    cluster: they merge into an existing group under that key only when
    its shared RIB equals theirs, and otherwise seed a fresh group from
    a copy of their RIB — no events are emitted (a chain change alone
    re-exports nothing). Counts one split per cluster that
    leaves a surviving group and one merge per cluster absorbed into an
    existing group.
    @raise Invalid_argument if an affected group has pending events —
    flush before re-keying. *)

val note_fanout_saved : 'attrs t -> int -> unit
(** Credit [bgp_fanout_bytes_saved_total] with bytes that were fanned
    out instead of re-encoded ((recipients − 1) × frame length). *)
