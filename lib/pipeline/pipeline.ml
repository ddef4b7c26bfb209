(* The BGP daemon pipeline shared by both xBGP hosts.

   The paper's hosts (§2.1) differ in how they *represent* routes, not in
   what they do with them: FRRouting interns host-byte-order records,
   BIRD keeps eattrs in wire form; FRRouting validates origins against a
   ROA trie, BIRD against a hash store. The same extension bytecode runs
   unchanged on both. This module is everything else — sessions, the
   Fig. 2 processing pipeline, export and update groups, provenance,
   recorder and BMP hooks, introspection — written once over a [REPR]
   that holds only what differs between hosts. A divergence the
   differential fuzzer reports between the two instantiations can
   therefore only come from a representation.

   The processing pipeline per received UPDATE follows Fig. 2:
   receive-message point -> parse -> inbound filter point (once per
   UPDATE when the chain provably ignores the prefix, else per prefix) ->
   Loc-RIB candidate/decision -> outbound filter point (once per update
   group) -> the group's Adj-RIB-Out -> encode-message point (once per
   flush class) -> wire. There is one import path and one export path,
   as in the real hosts: FRR exports only through update groups, and
   BIRD imports a whole UPDATE at a time. The Loc-RIB candidate is
   the one record kept per (prefix, peer), as FRR's [bgp_path_info] and
   BIRD's per-channel route are: it is the post-policy Adj-RIB-In, and it
   carries its import note for provenance. Soft-reconfiguration inbound
   (a pre-policy copy) is not modelled.

   Each native policy step is one [REPR] call, so a host whose mutations
   re-intern (FRR) still interns once per step: without flambda, calls
   into a functor argument are never inlined, and a finer-grained
   signature would add both interning and indirect calls on the hot
   path. *)

(** What differs between hosts: the attribute representation, its xBGP
    adapter, the ROA store and the native policy steps over them. *)
module type REPR = sig
  type attrs
  (** The host's attribute set. *)

  val impl : string
  (** The [impl] telemetry label ("frr" / "bird"). *)

  val of_attrs : Bgp.Attr.t list -> attrs
  (** Admit parsed attributes (the host's native parser). *)

  val to_attrs : attrs -> Bgp.Attr.t list
  (** Known attributes in the shared codec form (the native encoder's
      view). *)

  val equal : attrs -> attrs -> bool
  (** Adj-RIB-Out and update-group equality. *)

  (** {1 UPDATE grouping} — prefixes whose attributes share a key are
      packed into one UPDATE. *)

  module Group_tbl : Hashtbl.S

  val group_key : attrs -> Group_tbl.key

  val encode_known : Buffer.t -> Group_tbl.key -> attrs -> unit
  (** Append the native encoding of the known attributes. *)

  (** {1 The xBGP adapter} *)

  val get_tlv : attrs -> int -> bytes option
  val set_tlv : attrs -> bytes -> attrs option
  (** [None] on a TLV the host cannot parse. *)

  val remove : attrs -> int -> attrs
  (** ORIGIN, AS_PATH and NEXT_HOP are mandatory: removing one is a
      no-op on both hosts. *)

  (** {1 Decision-view reads} *)

  val local_pref : attrs -> int
  val as_path_len : attrs -> int
  val origin : attrs -> int
  val med : attrs -> int
  val neighbor_as : attrs -> int

  val originator_id : attrs -> default:int -> int
  (** ORIGINATOR_ID, or [default] (the advertising router) when absent. *)

  val cluster_list_len : attrs -> int
  val next_hop : attrs -> int
  val origin_as : attrs -> int option
  val contains_as : attrs -> int -> bool

  (** {1 The ROA store} *)

  type roa_store

  val store_name : string
  (** The [store] telemetry label ("trie" / "hash"). *)

  val validate : roa_store -> Bgp.Prefix.t -> int -> Rpki.Roa.validation

  (** {1 Native policy steps} — one call each *)

  val reflection_loop : attrs -> router_id:int -> cluster_id:int -> bool
  (** RFC 4456 §8 import loop check: our ORIGINATOR_ID or CLUSTER_ID is
      already on the route. *)

  val ov_tag : attrs -> int -> attrs
  (** Append an origin-validation result community. *)

  val reflect : attrs -> originator_id:int -> cluster_id:int -> attrs
  (** RFC 4456 §8 reflection: set ORIGINATOR_ID if absent, prepend
      [cluster_id] to CLUSTER_LIST. *)

  val canonicalize_ebgp :
    attrs -> local_as:int -> local_addr:int -> strip_med:bool -> attrs
  (** Outbound towards an eBGP peer: prepend [local_as], next-hop-self,
      drop LOCAL_PREF, ORIGINATOR_ID and CLUSTER_LIST, and MED when
      [strip_med]. *)

  val canonicalize_ibgp :
    attrs -> next_hop_self:bool -> local_addr:int -> attrs
  (** Outbound towards an iBGP peer: make LOCAL_PREF explicit, and set
      the next hop to [local_addr] when [next_hop_self]. *)
end

(** The daemon interface both hosts expose. *)
module type S = sig
  type attrs
  type roa_store

  type peer_conf = {
    pname : string;
    remote_as : int;
    remote_addr : int;
    rr_client : bool;  (** route-reflector client (RFC 4456) *)
    port : Netsim.Pipe.port;
  }

  type config

  val config :
    ?cluster_id:int ->
    ?hold_time:int ->
    ?native_rr:bool ->
    ?native_ov:roa_store ->
    ?igp_metric:(int -> int) ->
    ?xtras:(string * bytes) list ->
    name:string ->
    router_id:int ->
    local_as:int ->
    local_addr:int ->
    unit ->
    config
  (** [cluster_id] defaults to the router id; [igp_metric] maps a
      next-hop address to its IGP cost; [xtras] feed the [get_xtra]
      helper. A multi-prefix UPDATE's NLRI is imported as one batch
      sharing one converted attribute view, and peers are partitioned
      into update groups ({!Rib.Update_group}), so export policy,
      outbound dispatch and UPDATE encoding run once per group and the
      frames fan out to every member. *)

  (** Validation-result communities attached by native origin validation
      and, identically, by the extension (65535:1/2/3). *)

  val ov_community_valid : int
  val ov_community_invalid : int
  val ov_community_notfound : int

  (** Route provenance tags. *)

  val src_local : int
  val src_ebgp : int
  val src_ibgp : int

  type route = {
    attrs : attrs;
    src : int;  (** peer index; -1 = locally originated *)
    src_type : int;
    src_router_id : int;
    src_addr : int;
    src_rr_client : bool;
    igp_cost : int;
  }

  type peer = {
    idx : int;
    conf : peer_conf;
    peer_type : int;
    label : string;
    session : Session.Fsm.t;
  }

  type stats = Telemetry.daemon_stats = {
    mutable updates_rx : int;
    mutable routes_in : int;
    mutable withdrawals_rx : int;
    mutable import_rejected : int;
    mutable export_rejected : int;
    mutable updates_tx : int;
  }
  (** The shared daemon-stats shape ({!Telemetry.daemon_stats}); {!stats}
      returns a point-in-time snapshot assembled from the registry
      counters ([bgp_*_total] with labels [daemon]/[impl]). *)

  type t

  val create :
    ?telemetry:Telemetry.t -> ?vmm:Xbgp.Vmm.t -> sched:Netsim.Sched.t ->
    config -> peer_conf list -> t
  (** Passing [vmm] makes the daemon xBGP-compliant: every insertion point
      consults it, including the decision process. [telemetry] is the
      registry all counters land in (default: the VMM's registry when a
      VMM is given, else a fresh disabled one). *)

  val start : t -> unit
  (** Run extension init bytecodes, then open all sessions. *)

  val originate : t -> Bgp.Prefix.t -> Bgp.Attr.t list -> unit
  (** Originate a route locally with explicit attributes (e.g. a RIS
      feed, §3.2); it enters the Loc-RIB and is advertised per policy. *)

  val withdraw_local : t -> Bgp.Prefix.t -> unit

  val restart_sessions : t -> unit
  (** Re-open any session that has fallen back to Idle (e.g. after a link
      failure healed); peers already Established are untouched. *)

  val set_xtra : t -> string -> bytes -> unit
  (** Replace (or add) one named configuration extra at runtime — how an
      operator delivers an updated ROA file or threshold to a running
      router. Init-time extension state needs {!rerun_init} afterwards. *)

  val rerun_init : t -> unit
  (** Re-run the extension init bytecodes against the current xtras (the
      runtime half of a configuration swap, e.g. an RPKI ROA update). *)

  val refresh_exports : t -> unit
  (** Re-evaluate export policy for every best route — what a daemon does
      when IGP state changes (§3.1). *)

  (** {1 Introspection} *)

  val loc_count : t -> int
  val loc_best : t -> Bgp.Prefix.t -> route option
  val best_route : t -> Bgp.Prefix.t -> route option
  val best_attrs : t -> Bgp.Prefix.t -> Bgp.Attr.t list option

  val loc_snapshot : t -> (Bgp.Prefix.t * Bgp.Attr.t list) list
  (** Whole-Loc-RIB snapshot in the neutral codec form, sorted by prefix
      — the xBGP-visible state compared across hosts by the differential
      fuzzer. *)

  val iter_loc : t -> (Bgp.Prefix.t -> route -> unit) -> unit
  val stats : t -> stats
  val telemetry : t -> Telemetry.t

  val group_count : t -> int
  (** Active update groups (0 until a peer syncs). *)

  val peer : t -> int -> peer
  val peer_established : t -> int -> bool
  val set_log : t -> (string -> unit) -> unit
  val name : t -> string
  val vmm : t -> Xbgp.Vmm.t option

  (** {1 Observability: provenance, flight recorder, BMP mirror} *)

  val provenance : t -> Bgp.Prefix.t -> Obs.Provenance.t option
  (** Provenance of the prefix's current best route — ingress peer, the
      import chain that ran (per-bytecode verdicts, attribute mutations,
      map writes) and the decision-process disposal computed against the
      live Loc-RIB. Falls back to the last reject/withdraw record once no
      candidate is left. *)

  val provenance_candidates : t -> Bgp.Prefix.t -> Obs.Provenance.t list
  (** Provenance of every candidate for the prefix, in no particular
      order; each record carries its own status. *)

  val provenance_snapshot : t -> (Bgp.Prefix.t * Obs.Provenance.t) list
  (** One record per installed best route, sorted by prefix. *)

  val set_recorder : t -> Obs.Recorder.t option -> unit
  (** Attach (or detach) a flight recorder; the hook is pushed down to
      the VMM (xprog faults, native fallbacks, map evictions and full-map
      rejections), the session FSMs (transitions) and the update-group
      engine (split/merge/rekey), while the daemon itself records route
      add/replace/withdraw events with provenance digests. *)

  val recorder : t -> Obs.Recorder.t option

  val set_collector : t -> Obs.Bmp.collector option -> unit
  (** Attach a BMP-style (RFC 7854-inspired) monitoring collector: every
      received UPDATE is mirrored verbatim as Route Monitoring, and every
      session edge as Peer Up / Peer Down. *)

  val collector : t -> Obs.Bmp.collector option

  val group_details : t -> (string * int list) list
  (** Update-group partition [(key, ascending member indices)] in group
      creation order — the [show update-groups] payload. *)
end

module Make (R : REPR) :
  S with type attrs = R.attrs and type roa_store = R.roa_store = struct
  type attrs = R.attrs
  type roa_store = R.roa_store

  type peer_conf = {
    pname : string;
    remote_as : int;
    remote_addr : int;
    rr_client : bool;
    port : Netsim.Pipe.port;
  }

  type config = {
    name : string;
    router_id : int;
    local_as : int;
    local_addr : int;  (** used for next-hop-self *)
    cluster_id : int;
    hold_time : int;
    native_rr : bool;  (** RFC 4456 reflection in native code *)
    native_ov : R.roa_store option;
        (** native origin validation through the host's ROA store *)
    igp_metric : int -> int;  (** IGP metric towards a next-hop address *)
    xtras : (string * bytes) list;  (** config extras for [get_xtra] *)
  }

  let config ?(cluster_id = 0) ?(hold_time = 90) ?(native_rr = false)
      ?native_ov ?(igp_metric = fun _ -> 0) ?(xtras = []) ~name ~router_id
      ~local_as ~local_addr () =
    {
      name;
      router_id;
      local_as;
      local_addr;
      cluster_id = (if cluster_id = 0 then router_id else cluster_id);
      hold_time;
      native_rr;
      native_ov;
      igp_metric;
      xtras;
    }

  (* Communities used to tag origin-validation results, both by native code
     and by the extension (the paper's extension tags but does not drop). *)
  let ov_community_valid = (65535 * 65536) + 1
  let ov_community_invalid = (65535 * 65536) + 2
  let ov_community_notfound = (65535 * 65536) + 3

  let src_local = 0
  let src_ebgp = 1
  let src_ibgp = 2

  type route = {
    attrs : R.attrs;
    src : int;  (** peer index; -1 = locally originated *)
    src_type : int;  (** [src_local] / [src_ebgp] / [src_ibgp] *)
    src_router_id : int;
    src_addr : int;
    src_rr_client : bool;
    igp_cost : int;
  }

  (* A Loc-RIB candidate: the route as imported plus its import note, the
     chain steps and verdict that provenance replays. Export, update
     groups and the E20 memo see only [route], the very record the import
     built, so the memo's identity check still holds. *)
  type cand = {
    route : route;
    chain : Obs.Provenance.step list;
    import : string;  (** {!import_verdict}, or a fixed local note *)
  }

  type peer = {
    idx : int;
    conf : peer_conf;
    peer_type : int;  (** [src_ebgp] or [src_ibgp] *)
    label : string;  (** ["peer <name> (AS <n>)"], as provenance shows it *)
    session : Session.Fsm.t;
  }

  type stats = Telemetry.daemon_stats = {
    mutable updates_rx : int;
    mutable routes_in : int;
    mutable withdrawals_rx : int;
    mutable import_rejected : int;
    mutable export_rejected : int;
    mutable updates_tx : int;
  }

  (* Counter handles interned once at daemon creation; [stats] snapshots
     them, so the registry is the single source of truth. *)
  type probes = {
    c_updates_rx : Telemetry.Counter.t;
    c_routes_in : Telemetry.Counter.t;
    c_withdrawals_rx : Telemetry.Counter.t;
    c_import_rejected : Telemetry.Counter.t;
    c_export_rejected : Telemetry.Counter.t;
    c_updates_tx : Telemetry.Counter.t;
    c_decisions : Telemetry.Counter.t;
    c_roa_valid : Telemetry.Counter.t;
    c_roa_invalid : Telemetry.Counter.t;
    c_roa_notfound : Telemetry.Counter.t;
  }

  let make_probes tele ~daemon ~impl ~store =
    let labels = [ ("daemon", daemon); ("impl", impl) ] in
    let c help name =
      Telemetry.counter tele ~help ~name ~labels ()
    in
    let roa result =
      Telemetry.counter tele ~help:"native origin-validation lookups"
        ~name:"bgp_roa_lookups_total"
        ~labels:(labels @ [ ("store", store); ("result", result) ])
        ()
    in
    {
      c_updates_rx = c "UPDATE messages received" "bgp_updates_rx_total";
      c_routes_in = c "routes accepted into Adj-RIB-In" "bgp_routes_in_total";
      c_withdrawals_rx = c "prefixes withdrawn by peers" "bgp_withdrawals_rx_total";
      c_import_rejected = c "routes rejected by import policy" "bgp_import_rejected_total";
      c_export_rejected = c "routes rejected by export policy" "bgp_export_rejected_total";
      c_updates_tx = c "UPDATE messages sent" "bgp_updates_tx_total";
      c_decisions = c "decision-process route comparisons" "bgp_decisions_total";
      c_roa_valid = roa "valid";
      c_roa_invalid = roa "invalid";
      c_roa_notfound = roa "not_found";
    }

  type t = {
    config : config;
    sched : Netsim.Sched.t;
    vmm : Xbgp.Vmm.t option;
    tele : Telemetry.t;
    probes : probes;
    mutable peers : peer array;
    loc : cand Rib.Loc_rib.t;
    mutable flush_scheduled : bool;
    ugroups : R.attrs Rib.Update_group.t;
        (** update-group partition, which holds the Adj-RIB-Out: each
            flush class is encoded once and fanned out to its members *)
    mutable group_gen : int;
        (** {!Xbgp.Vmm.generation} at the last re-grouping; -1 forces the
            first {!refresh_grouping} to compute the partition key *)
    mutable groupable : bool;
        (** both outbound points pass {!Xbgp.Vmm.group_invariant}; when
            false every peer gets a singleton "solo" group *)
    mutable chain_sig : string;  (** outbound chain signatures *)
    mutable batch_gen : int;
        (** {!Xbgp.Vmm.generation} at the last batch-invariance check; -1
            forces the first {!refresh_batching} *)
    mutable import_batchable : bool;
        (** the inbound chain passes {!Xbgp.Vmm.batch_invariant} over
            the prefix argument: one import verdict covers an UPDATE *)
    mutable export_batchable : bool;
        (** the same proof for the outbound chain: one export evaluation
            per (route, target) covers an UPDATE's prefixes *)
    mutable export_memo : (route * int * R.attrs option) option array;
        (** per target peer index, the last export evaluated inside the
            current [learn_routes] batch: (route record, {!map_epoch} after
            the run, result). Empty outside a batch. *)
    mutable memo_on : bool;  (** a memoizing batch is in progress *)
    mutable chain_gen : int;
        (** {!Xbgp.Vmm.generation} at the last dispatch; -1 makes the
            first dispatch invalidate the incumbent fast path *)
    mutable last_cand : cand option;
        (** the candidate {!candidate} made last, shared by the next
            prefix imported alike *)
    last_prov : (Bgp.Prefix.t, Obs.Provenance.t) Hashtbl.t;
        (** last reject/withdraw record per prefix — what [show
            provenance] answers once no candidate is left *)
    mutable recorder : Obs.Recorder.t option;
    mutable collector : Obs.Bmp.collector option;
        (** BMP-style monitoring mirror (RFC 7854-inspired) *)
    xtras : (string, bytes) Hashtbl.t;
    mutable log_fn : string -> unit;
    mutable base_ops : Xbgp.Host_intf.ops;
        (** the per-update-invariant ops closures, built once at [create]
            instead of per message (dispatch fast path) *)
    args_pool : Xbgp.Host_intf.Args.t array;
    mutable args_busy : int;  (** bitmask over [args_pool] slots *)
  }

  let decision_view : cand Rib.Decision.view =
    {
      local_pref = (fun c -> R.local_pref c.route.attrs);
      as_path_len = (fun c -> R.as_path_len c.route.attrs);
      origin = (fun c -> R.origin c.route.attrs);
      med = (fun c -> R.med c.route.attrs);
      neighbor_as = (fun c -> R.neighbor_as c.route.attrs);
      is_ebgp = (fun c -> c.route.src_type = src_ebgp);
      igp_cost = (fun c -> c.route.igp_cost);
      originator_id =
        (fun c -> R.originator_id c.route.attrs ~default:c.route.src_router_id);
      cluster_list_len = (fun c -> R.cluster_list_len c.route.attrs);
      peer_addr = (fun c -> c.route.src_addr);
    }

  (* --- construction --- *)

  let peer_info t (p : peer) : Xbgp.Host_intf.peer_info =
    {
      peer_type =
        (if p.peer_type = src_ebgp then Xbgp.Api.ebgp_session
         else Xbgp.Api.ibgp_session);
      peer_as = p.conf.remote_as;
      peer_router_id = Session.Fsm.peer_id p.session;
      peer_addr = p.conf.remote_addr;
      local_as = t.config.local_as;
      local_router_id = t.config.router_id;
      cluster_id = t.config.cluster_id;
      rr_client = p.conf.rr_client;
    }

  (* forward declaration knot: base_ops needs route injection, which needs
     the outbound machinery defined below *)
  let rib_add_hook :
      (t -> addr:int -> len:int -> nexthop:int -> bool) ref =
    ref (fun _ ~addr:_ ~len:_ ~nexthop:_ -> false)

  let make_base_ops t =
    {
      Xbgp.Host_intf.null_ops with
      get_xtra = (fun key -> Hashtbl.find_opt t.xtras key);
      rib_add = (fun ~addr ~len ~nexthop -> !rib_add_hook t ~addr ~len ~nexthop);
      log = (fun m -> t.log_fn (t.config.name ^ ": " ^ m));
    }

  (* Reusable argument buffers for [Vmm.run]: a dispatch borrows a parked
     buffer and returns it when the run ends. Dispatches nest — a rib_add
     helper can originate, propagate and re-enter [Vmm.run] while the
     outer run still reads its arguments — so a small pool with a busy
     bitmask hands each nesting level its own buffer, allocating fresh
     only past the pool's depth. *)
  let borrow_args t =
    let n = Array.length t.args_pool in
    let rec go i =
      if i >= n then Xbgp.Host_intf.Args.create ()
      else if t.args_busy land (1 lsl i) = 0 then begin
        t.args_busy <- t.args_busy lor (1 lsl i);
        t.args_pool.(i)
      end
      else go (i + 1)
    in
    go 0

  let release_args t a =
    Xbgp.Host_intf.Args.clear a;
    let n = Array.length t.args_pool in
    let rec go i =
      if i < n then
        if t.args_pool.(i) == a then
          t.args_busy <- t.args_busy land lnot (1 lsl i)
        else go (i + 1)
    in
    go 0

  (* A chain change may alter the BGP_DECISION behaviour hidden inside
     the Loc-RIB's compare closure: drop the incumbent fast path until
     each prefix has re-selected in full. One integer compare per
     dispatch. *)
  let invalidate_best_on_chain_change t =
    let gen = match t.vmm with Some v -> Xbgp.Vmm.generation v | None -> 0 in
    if gen <> t.chain_gen then begin
      Rib.Loc_rib.invalidate_best t.loc;
      t.chain_gen <- gen
    end

  let map_epoch t =
    match t.vmm with Some v -> Xbgp.Vmm.map_writes v | None -> 0

  let vmm_run t point ~ops ~args ~default =
    invalidate_best_on_chain_change t;
    match t.vmm with
    | None -> default ()
    | Some vmm -> Xbgp.Vmm.run vmm point ~ops ~args ~default

  let set_prefix_arg b p =
    Bytes.set_int32_be b 0 (Int32.of_int (Bgp.Prefix.addr p));
    Bytes.set_uint8 b 4 (Bgp.Prefix.len p)

  let prefix_arg p =
    let b = Bytes.create 5 in
    set_prefix_arg b p;
    b

  let source_arg (r : route) =
    Xbgp.Host_intf.source_to_bytes
      {
        src_peer_type = r.src_type;
        src_router_id = r.src_router_id;
        src_addr = r.src_addr;
        src_rr_client = r.src_rr_client;
        src_is_local = r.src = -1;
      }

  (* ops over a mutable route under construction/modification; the copy
     shares [t.base_ops]'s invariant closures *)
  let route_ops t ~peer ~(route_ref : route ref) =
    {
      t.base_ops with
      Xbgp.Host_intf.peer_info =
        (fun () -> Option.map (fun p -> peer_info t p) peer);
      nexthop =
        (fun () ->
          let nh = R.next_hop !route_ref.attrs in
          Some (nh, t.config.igp_metric nh));
      get_attr = (fun code -> R.get_tlv !route_ref.attrs code);
      set_attr =
        (fun tlv ->
          match R.set_tlv !route_ref.attrs tlv with
          | Some attrs ->
            route_ref := { !route_ref with attrs };
            true
          | None -> false);
      remove_attr =
        (fun code ->
          route_ref := { !route_ref with attrs = R.remove !route_ref.attrs code };
          true);
    }

  (* The BGP_DECISION insertion point (circle 3 of Fig. 2): extension
     bytecode may compare two candidate routes ahead of the native
     RFC 4271 tie-breaking; a tie (or fault) falls back to it. *)
  let candidate_arg t (r : route) =
    ignore t;
    Xbgp.Host_intf.candidate_to_bytes
      {
        Xbgp.Host_intf.cd_local_pref = R.local_pref r.attrs;
        cd_as_path_len = R.as_path_len r.attrs;
        cd_origin = R.origin r.attrs;
        cd_med = R.med r.attrs;
        cd_igp_metric = r.igp_cost;
        cd_originator_id = R.originator_id r.attrs ~default:r.src_router_id;
        cd_peer_addr = r.src_addr;
        cd_is_ebgp = r.src_type = src_ebgp;
      }

  let decision_compare t vmm a b =
    Telemetry.Counter.inc t.probes.c_decisions;
    if Xbgp.Vmm.has_attachment vmm Xbgp.Api.Bgp_decision then begin
      let args = borrow_args t in
      Xbgp.Host_intf.Args.set args Xbgp.Api.arg_candidate_a
        (candidate_arg t a.route);
      Xbgp.Host_intf.Args.set args Xbgp.Api.arg_candidate_b
        (candidate_arg t b.route);
      let verdict =
        Xbgp.Vmm.run vmm Xbgp.Api.Bgp_decision ~ops:t.base_ops ~args
          ~default:(fun () -> Xbgp.Api.decision_tie)
      in
      release_args t args;
      if verdict = Xbgp.Api.decision_first then -1
      else if verdict = Xbgp.Api.decision_second then 1
      else Rib.Decision.compare decision_view a b
    end
    else Rib.Decision.compare decision_view a b

  (* --- provenance and monitoring mirror --- *)

  let src_label t idx =
    if idx < 0 then "local" else t.peers.(idx).label

  (* Read the import chain's execution trace immediately after the
     dispatch: the VMM keeps only the last dispatch per point, and the
     propagate step below re-enters it for the outbound chain. *)
  let import_trace t =
    match t.vmm with
    | None -> []
    | Some vmm -> (
      match Xbgp.Vmm.last_trace vmm Xbgp.Api.Bgp_inbound_filter with
      | Some steps -> steps
      | None -> [])

  (* the chain itself produced the verdict: its last executed bytecode
     returned instead of deferring ([next()]) or faulting to native *)
  let chain_decided (chain : Obs.Provenance.step list) =
    match List.rev chain with
    | last :: _ ->
      last.Obs.Provenance.outcome <> "next()"
      && last.Obs.Provenance.outcome <> "fault"
    | [] -> false

  (* constant strings, so notes built alike compare physically *)
  let import_verdict chain ~accepted =
    match (accepted, chain_decided chain) with
    | true, true -> "accepted"
    | true, false -> "accepted (native)"
    | false, true -> "rejected"
    | false, false -> "rejected (native)"

  (* The candidate for a route imported with this note. Prefixes imported
     alike share one, as they share the route record, so a prefix
     repeated within an UPDATE leaves its incumbent physically in place
     ([Loc_rib.update] reports [Unchanged]). *)
  let candidate t route ~chain ~import =
    match t.last_cand with
    | Some c when c.route == route && c.chain == chain && c.import == import -> c
    | _ ->
      let c = { route; chain; import } in
      t.last_cand <- Some c;
      c

  (* Decision-process disposal for the route contributed by [src], against
     the Loc-RIB's current state. Computed on demand (query time, recorder
     events) rather than stored, so the record always explains the state
     the operator is looking at — including after a competing withdrawal
     promotes a shadowed candidate. Runner-up ranking deliberately uses
     the native RFC 4271 order and never dispatches the BGP_DECISION
     chain: explaining a route must not perturb maps, counters or the
     dispatch trace. An attached decision extension is reported as
     [Xprog_decided] instead of a fabricated tie-break step. *)
  let decision_info t prefix ~src :
      Obs.Provenance.decision option * Obs.Provenance.status =
    match Rib.Loc_rib.best_with_peer t.loc prefix with
    | None -> (None, Obs.Provenance.Withdrawn)
    | Some (bpeer, best) ->
      let cands = Rib.Loc_rib.candidates t.loc prefix in
      let others = List.filter (fun (p, _) -> p <> bpeer) cands in
      let xprog =
        match t.vmm with
        | Some vmm -> Xbgp.Vmm.has_attachment vmm Xbgp.Api.Bgp_decision
        | None -> false
      in
      if src = bpeer then
        match others with
        | [] -> (Some Obs.Provenance.Only_candidate, Obs.Provenance.Installed)
        | first :: rest ->
          let rup, ru =
            List.fold_left
              (fun (bp, br) (p, r) ->
                if Rib.Decision.compare decision_view r br < 0 then (p, r)
                else (bp, br))
              first rest
          in
          let d =
            if xprog then
              Obs.Provenance.Xprog_decided { runner_up = src_label t rup }
            else
              let step = Rib.Decision.deciding_step decision_view best ru in
              Obs.Provenance.Best
                {
                  runner_up = src_label t rup;
                  step;
                  step_name = Rib.Decision.step_name step;
                }
          in
          (Some d, Obs.Provenance.Installed)
      else
        let d =
          if xprog then
            Some (Obs.Provenance.Xprog_decided { runner_up = src_label t bpeer })
          else
            match List.assoc_opt src cands with
            | None -> None
            | Some r ->
              let step = Rib.Decision.deciding_step decision_view best r in
              Some
                (Obs.Provenance.Shadowed
                   {
                     best = src_label t bpeer;
                     step;
                     step_name = Rib.Decision.step_name step;
                   })
        in
        (d, Obs.Provenance.Candidate)

  let import_record t prefix ~src ~chain ~import ~status : Obs.Provenance.t =
    {
      Obs.Provenance.prefix = Bgp.Prefix.to_string prefix;
      ingress = src_label t src;
      chain;
      import;
      decision = None;
      status;
    }

  (* The record of [src]'s candidate [c], built when asked for. *)
  let assemble_prov t prefix (c : cand) ~src =
    let decision, status = decision_info t prefix ~src in
    {
      (import_record t prefix ~src ~chain:c.chain ~import:c.import ~status)
      with
      Obs.Provenance.decision;
    }

  let record_route_event t kind prefix (pr : Obs.Provenance.t) =
    match t.recorder with
    | None -> ()
    | Some rc ->
      Obs.Recorder.record rc kind
        [
          ("daemon", t.config.name);
          ("prefix", Bgp.Prefix.to_string prefix);
          ("prov", Obs.Provenance.summary pr);
        ]

  let bmp_peer (p : peer) : Obs.Bmp.peer =
    {
      Obs.Bmp.addr = p.conf.remote_addr;
      asn = p.conf.remote_as;
      bgp_id = Session.Fsm.peer_id p.session;
    }

  let mirror t frame =
    match t.collector with
    | None -> ()
    | Some col -> Obs.Bmp.receive col frame

  (* --- native policies --- *)

  (* Import policy: RFC 4456 loop checks when reflecting natively, then
     origin validation tagging when a ROA store is configured. *)
  let native_import t (route_ref : route ref) prefix peer =
    let r = !route_ref in
    if
      t.config.native_rr && peer.peer_type = src_ibgp
      && R.reflection_loop r.attrs ~router_id:t.config.router_id
           ~cluster_id:t.config.cluster_id
    then Xbgp.Api.filter_reject
    else begin
      (match t.config.native_ov with
      | Some store ->
        let origin = Option.value ~default:0 (R.origin_as r.attrs) in
        let tag =
          match R.validate store prefix origin with
          | Rpki.Roa.Valid ->
            Telemetry.Counter.inc t.probes.c_roa_valid;
            ov_community_valid
          | Rpki.Roa.Invalid ->
            Telemetry.Counter.inc t.probes.c_roa_invalid;
            ov_community_invalid
          | Rpki.Roa.Not_found ->
            Telemetry.Counter.inc t.probes.c_roa_notfound;
            ov_community_notfound
        in
        route_ref := { r with attrs = R.ov_tag r.attrs tag }
      | None -> ());
      Xbgp.Api.filter_accept
    end

  (* Export policy: split horizon on iBGP, native route reflection when
     enabled. Modifies the outbound route (reflection attributes). *)
  let native_export t (route_ref : route ref) (target : peer) =
    let r = !route_ref in
    if r.src_type = src_ibgp && target.peer_type = src_ibgp then
      if t.config.native_rr && (r.src_rr_client || target.conf.rr_client) then begin
        (* reflection: RFC 4456 §8 *)
        route_ref :=
          {
            r with
            attrs =
              R.reflect r.attrs ~originator_id:r.src_router_id
                ~cluster_id:t.config.cluster_id;
          };
        Xbgp.Api.filter_accept
      end
      else Xbgp.Api.filter_reject
    else Xbgp.Api.filter_accept

  (* Standard outbound canonicalization, applied after the filters. *)
  let canonicalize t (r : route) (target : peer) =
    if target.peer_type = src_ebgp then
      (* MED is meant for the neighbouring AS but is not propagated beyond
         it: strip it only from eBGP-learned routes *)
      R.canonicalize_ebgp r.attrs ~local_as:t.config.local_as
        ~local_addr:t.config.local_addr ~strip_med:(r.src_type = src_ebgp)
    else
      R.canonicalize_ibgp r.attrs ~next_hop_self:(r.src_type <> src_ibgp)
        ~local_addr:t.config.local_addr

  (* One run of the outbound filter point for [target], then
     canonicalization; [None] (counted) when the route is rejected. *)
  let evaluate_export t (target : peer) prefix (r : route) =
    let route_ref = ref r in
    let ops = route_ops t ~peer:(Some target) ~route_ref in
    let args = borrow_args t in
    Xbgp.Host_intf.Args.set args Xbgp.Api.arg_prefix (prefix_arg prefix);
    Xbgp.Host_intf.Args.set args Xbgp.Api.arg_source (source_arg r);
    let verdict =
      vmm_run t Xbgp.Api.Bgp_outbound_filter ~ops ~args
        ~default:(fun () -> native_export t route_ref target)
    in
    release_args t args;
    if verdict = Xbgp.Api.filter_accept then
      Some (canonicalize t !route_ref target)
    else begin
      Telemetry.Counter.inc t.probes.c_export_rejected;
      None
    end

  (* --- outbound machinery --- *)

  (* RFC 4271 §4: every UPDATE is framed through [split_update_raw], so a
     prefix list (or an attribute block grown by an encode-point
     extension) can never push a frame past the 4096-byte maximum. *)
  let withdrawal_frames prefixes =
    Bgp.Message.split_update_raw ~withdrawn:prefixes ~attr_bytes:Bytes.empty
      ~nlri:[]

  let rec schedule_flush t =
    if not t.flush_scheduled then begin
      t.flush_scheduled <- true;
      Netsim.Sched.after t.sched 0 (fun () ->
          t.flush_scheduled <- false;
          flush t)
    end

  (* Drain each group's queued events as flush classes (members whose
     pending streams are identical), encode each class's frames once,
     and share the buffers across every member session. *)
  and flush t =
    let classes = ref [] in
    Rib.Update_group.iter_groups t.ugroups (fun g ->
        List.iter
          (fun (members, wds, advs) ->
            let sessions =
              List.filter_map
                (fun m ->
                  let p = t.peers.(m) in
                  if Session.Fsm.is_established p.session then Some p.session
                  else None)
                members
            in
            if sessions <> [] then
              classes := (members, wds, advs, sessions) :: !classes)
          (Rib.Update_group.take_classes g));
    let send sessions frames =
      List.iter
        (fun frame ->
          let sent = Session.Fsm.send_raw_shared sessions frame in
          Telemetry.Counter.add t.probes.c_updates_tx sent;
          Rib.Update_group.note_fanout_saved t.ugroups
            ((sent - 1) * Bytes.length frame))
        frames
    in
    List.iter
      (fun (members, wds, advs, sessions) ->
        send sessions (withdrawal_frames wds);
        if advs <> [] then
          send sessions (advertisement_frames t t.peers.(List.hd members) advs))
      (List.rev !classes)

  (* Build the UPDATE frames advertising [advs] towards [peer]. The flush
     calls this once per flush class with a representative member —
     sound because peers only share a group when the outbound chains
     pass [Vmm.group_invariant], so the bytecode provably never observes
     which peer the ops record answers for. *)
  and advertisement_frames t peer advs =
    (* group prefixes whose attributes share the host's grouping key *)
    let groups : (R.attrs * Bgp.Prefix.t list ref) R.Group_tbl.t =
      R.Group_tbl.create 16
    in
    let order = ref [] in
    List.iter
      (fun (p, attrs) ->
        let key = R.group_key attrs in
        match R.Group_tbl.find_opt groups key with
        | Some (_, l) -> l := p :: !l
        | None ->
          R.Group_tbl.replace groups key (attrs, ref [ p ]);
          order := key :: !order)
      advs;
    List.concat_map
      (fun key ->
        let attrs, prefixes = R.Group_tbl.find groups key in
        let prefixes = List.rev !prefixes in
        (* native encoder: known attributes only *)
        let buf = Buffer.create 64 in
        R.encode_known buf key attrs;
        (* BGP_ENCODE_MESSAGE point: extensions may append attribute bytes
           (e.g. the GeoLoc TLV the native encoder cannot emit) *)
        let ops =
          {
            t.base_ops with
            Xbgp.Host_intf.peer_info = (fun () -> Some (peer_info t peer));
            get_attr = (fun code -> R.get_tlv attrs code);
            write_buf =
              (fun b ->
                Buffer.add_bytes buf b;
                true);
          }
        in
        let args = borrow_args t in
        Xbgp.Host_intf.Args.set args Xbgp.Api.arg_update_payload
          (Buffer.to_bytes buf);
        ignore
          (vmm_run t Xbgp.Api.Bgp_encode_message ~ops ~args
             ~default:(fun () -> Xbgp.Api.ret_ok));
        release_args t args;
        let attr_bytes = Buffer.to_bytes buf in
        Bgp.Message.split_update_raw ~withdrawn:[] ~attr_bytes ~nlri:prefixes)
      (List.rev !order)

  (* Inside a [learn_routes] batch whose outbound chain is batch-invariant,
     every prefix sharing one route record exports identically to a given
     target: the chain never reads the prefix, and [native_export] and
     [canonicalize] read only the route and the peer. So the first
     evaluation per (target, record) is reused for the rest of the
     UPDATE, as long as no map write (by the import or decision chains
     running in between) could have changed what the chain read. A
     rejection still counts once per prefix. *)
  and export t (target : peer) prefix (r : route) : R.attrs option =
    if r.src = target.idx then None
    else if not t.memo_on then evaluate_export t target prefix r
    else
      match t.export_memo.(target.idx) with
      | Some (r', epoch, result) when r' == r && epoch = map_epoch t ->
        if Option.is_none result then
          Telemetry.Counter.inc t.probes.c_export_rejected;
        result
      | _ ->
        let result = evaluate_export t target prefix r in
        t.export_memo.(target.idx) <- Some (r, map_epoch t, result);
        result

  (* Which update group a peer belongs in: everything the export path can
     observe about the peer. [native_export] and [canonicalize] read only
     the peer type and reflection role; the xprog chains are covered by
     their signatures and may not read peer identity at all when
     [t.groupable] holds. Peer-dependent chains degrade every peer to a
     singleton group, which flows through the same machinery. *)
  and group_key t peer =
    if not t.groupable then Printf.sprintf "solo:%d" peer.idx
    else
      Printf.sprintf "pt%d:rr%b:%s" peer.peer_type peer.conf.rr_client
        t.chain_sig

  (* Re-derive the partition key when the attached chains changed (one
     integer compare per propagate — [Vmm.generation] bumps only on
     attach/detach). Queued events are drained under the old partition
     first; the re-key itself emits nothing. *)
  and refresh_grouping t =
    let gen = match t.vmm with Some v -> Xbgp.Vmm.generation v | None -> 0 in
    if gen <> t.group_gen then begin
      flush t;
      (match t.vmm with
      | Some vmm ->
        t.groupable <-
          Xbgp.Vmm.group_invariant vmm Xbgp.Api.Bgp_outbound_filter
            ~allow_write_buf:false
          && Xbgp.Vmm.group_invariant vmm Xbgp.Api.Bgp_encode_message
               ~allow_write_buf:true;
        t.chain_sig <-
          Xbgp.Vmm.chain_signature vmm Xbgp.Api.Bgp_outbound_filter
          ^ "|"
          ^ Xbgp.Vmm.chain_signature vmm Xbgp.Api.Bgp_encode_message
      | None ->
        t.groupable <- true;
        t.chain_sig <- "");
      t.group_gen <- gen;
      Rib.Update_group.rekey t.ugroups ~desired:(fun m ->
          group_key t t.peers.(m))
    end

  (* The batch-invariance verdicts behind [learn_routes], likewise
     re-derived only when the attached chains changed. *)
  and refresh_batching t =
    let gen = match t.vmm with Some v -> Xbgp.Vmm.generation v | None -> 0 in
    if gen <> t.batch_gen then begin
      (match t.vmm with
      | Some vmm ->
        let inv point =
          Xbgp.Vmm.batch_invariant vmm point
            ~variant_args:[ Xbgp.Api.arg_prefix ]
        in
        t.import_batchable <- inv Xbgp.Api.Bgp_inbound_filter;
        t.export_batchable <- inv Xbgp.Api.Bgp_outbound_filter
      | None ->
        t.import_batchable <- true;
        t.export_batchable <- true);
      t.batch_gen <- gen
    end

  (* One export evaluation per group instead of per peer: run the filter
     chain for a representative member and let the engine expand the
     result into per-member transitions. *)
  and export_to_group t g prefix (r : route) =
    match Rib.Update_group.representative g ~except:r.src with
    | None -> Rib.Update_group.route_update t.ugroups g prefix None
    | Some rep ->
      let src_member = Rib.Update_group.is_member g r.src in
      let entry =
        match export t t.peers.(rep) prefix r with
        | Some attrs -> Some (attrs, if src_member then r.src else -1)
        | None ->
          (* keep the rejection counter peer-accurate: one rejection
             per eligible member *)
          let eligible =
            Rib.Update_group.size g - if src_member then 1 else 0
          in
          Telemetry.Counter.add t.probes.c_export_rejected (eligible - 1);
          None
      in
      Rib.Update_group.route_update t.ugroups g prefix entry

  and propagate t prefix (change : cand Rib.Loc_rib.change) =
    refresh_grouping t;
    match change with
    | Rib.Loc_rib.Unchanged -> ()
    | Rib.Loc_rib.Withdrawn ->
      Rib.Update_group.iter_groups t.ugroups (fun g ->
          Rib.Update_group.route_update t.ugroups g prefix None);
      schedule_flush t
    | Rib.Loc_rib.New_best { route = r; _ } ->
      Rib.Update_group.iter_groups t.ugroups (fun g ->
          export_to_group t g prefix r);
      schedule_flush t

  (* --- inbound processing --- *)

  (* Withdraw [src]'s candidate for [prefix], which exists. *)
  let drop_candidate t ~src prefix ~import =
    let pr =
      import_record t prefix ~src ~chain:[] ~import
        ~status:Obs.Provenance.Withdrawn
    in
    Hashtbl.replace t.last_prov prefix pr;
    let change = Rib.Loc_rib.update t.loc ~peer:src prefix None in
    record_route_event t Obs.Recorder.Route_withdraw prefix pr;
    propagate t prefix change

  let withdraw_prefix t peer prefix =
    if Rib.Loc_rib.has_candidate t.loc ~peer:peer.idx prefix then begin
      Telemetry.Counter.inc t.probes.c_withdrawals_rx;
      drop_candidate t ~src:peer.idx prefix ~import:"withdrawn"
    end

  (* Install [src]'s candidate [c] for [prefix]. *)
  let install t ~src prefix (c : cand) =
    let existed =
      t.recorder <> None && Rib.Loc_rib.has_candidate t.loc ~peer:src prefix
    in
    let change = Rib.Loc_rib.update t.loc ~peer:src prefix (Some c) in
    (match t.recorder with
    | None -> ()
    | Some _ ->
      record_route_event t
        (if existed then Obs.Recorder.Route_replace else Obs.Recorder.Route_add)
        prefix
        (assemble_prov t prefix c ~src));
    propagate t prefix change

  let accept_route t peer prefix c =
    Telemetry.Counter.inc t.probes.c_routes_in;
    install t ~src:peer.idx prefix c

  let reject_route t peer prefix ~chain ~import =
    Telemetry.Counter.inc t.probes.c_import_rejected;
    withdraw_prefix t peer prefix;
    (* the rejection supersedes the withdrawal record the clear leaves *)
    Hashtbl.replace t.last_prov prefix
      (import_record t prefix ~src:peer.idx ~chain ~import
         ~status:Obs.Provenance.Rejected)

  (* Import every prefix of one UPDATE: one shared verdict when the
     inbound chain allows it, else one dispatch per prefix. *)
  let import_batch t peer prefixes (route : route) =
    match prefixes with
    | [] -> ()
    | first :: _ ->
      let has_inbound_ext =
        match t.vmm with
        | Some vmm -> Xbgp.Vmm.has_attachment vmm Xbgp.Api.Bgp_inbound_filter
        | None -> false
      in
      if t.import_batchable && t.config.native_ov = None then begin
        (* Fast path: no prefix-dependent policy anywhere on the import
           chain. The RFC 4456 loop checks in [native_import] read only
           the shared attributes, and any attached bytecode provably
           never fetches the prefix argument and has no per-call state
           ([Vmm.batch_invariant]) — so one verdict (and one set of
           route-attribute edits) covers the whole NLRI list. *)
        let route_ref = ref route in
        let verdict =
          if has_inbound_ext then begin
            let ops = route_ops t ~peer:(Some peer) ~route_ref in
            let args = borrow_args t in
            Xbgp.Host_intf.Args.set args Xbgp.Api.arg_prefix (prefix_arg first);
            Xbgp.Host_intf.Args.set args Xbgp.Api.arg_source (source_arg route);
            let v =
              vmm_run t Xbgp.Api.Bgp_inbound_filter ~ops ~args
                ~default:(fun () -> native_import t route_ref first peer)
            in
            release_args t args;
            v
          end
          else native_import t route_ref first peer
        in
        (* one trace covers the whole batch — [batch_invariant] is exactly
           the proof that per-prefix dispatches would have replayed it *)
        let chain = if has_inbound_ext then import_trace t else [] in
        let accepted = verdict = Xbgp.Api.filter_accept in
        let import = import_verdict chain ~accepted in
        if accepted then
          let c = candidate t !route_ref ~chain ~import in
          List.iter (fun prefix -> accept_route t peer prefix c) prefixes
        else
          List.iter
            (fun prefix -> reject_route t peer prefix ~chain ~import)
            prefixes
      end
      else begin
        (* The per-prefix lane: the ops record, the source argument and
           the argument buffer are hoisted out of the loop. The 5-byte
           prefix buffer is mutated in place between runs — safe because
           [get_arg] copies the payload into the VM heap. *)
        let route_ref = ref route in
        let ops = route_ops t ~peer:(Some peer) ~route_ref in
        let src = source_arg route in
        let pbuf = Bytes.create 5 in
        let args = borrow_args t in
        Xbgp.Host_intf.Args.set args Xbgp.Api.arg_prefix pbuf;
        Xbgp.Host_intf.Args.set args Xbgp.Api.arg_source src;
        List.iter
          (fun prefix ->
            route_ref := route;
            set_prefix_arg pbuf prefix;
            let verdict =
              vmm_run t Xbgp.Api.Bgp_inbound_filter ~ops ~args
                ~default:(fun () -> native_import t route_ref prefix peer)
            in
            let chain = import_trace t in
            let accepted = verdict = Xbgp.Api.filter_accept in
            let import = import_verdict chain ~accepted in
            if accepted then
              accept_route t peer prefix (candidate t !route_ref ~chain ~import)
            else reject_route t peer prefix ~chain ~import)
          prefixes;
        release_args t args
      end

  (* Batched NLRI processing: every prefix of one UPDATE shares the same
     attribute record, so share the converted view and the dispatch
     plumbing across the batch. When the outbound chain is batch-invariant
     too, [export] memoizes per (route record, target) for the duration of
     the batch, so every prefix whose new best is that same record reuses
     one outbound evaluation. The inbound and outbound points'
     [xbgp_runs_total], native-fallback and fault counters and recorder
     events therefore count evaluations, not prefixes, while
     [bgp_import_rejected_total] and [bgp_export_rejected_total] still
     count one per prefix. The memo is dropped when the batch ends, so
     nothing in it outlives the UPDATE; a single-prefix UPDATE, which
     could never hit it, skips it. *)
  let learn_routes t peer prefixes (route : route) =
    refresh_batching t;
    match prefixes with
    | _ :: _ :: _ when t.export_batchable ->
      t.memo_on <- true;
      Fun.protect
        ~finally:(fun () ->
          t.memo_on <- false;
          Array.fill t.export_memo 0 (Array.length t.export_memo) None)
        (fun () -> import_batch t peer prefixes route)
    | _ -> import_batch t peer prefixes route

  (* RFC 7606 treat-as-withdraw: an UPDATE that carries NLRI but lacks any
     of the mandatory ORIGIN / AS_PATH / NEXT_HOP attributes must not be
     learned — the interned record would silently fabricate defaults
     (next-hop 0.0.0.0) where a list-based host keeps the absence, so the
     two implementations would diverge on exactly the malformed input. An
     extension at BGP_RECEIVE_MESSAGE may still supply the missing
     attribute before the check. *)
  let mandatory_present (attrs : Bgp.Attr.t list) extra_tlvs =
    let codes =
      List.map Bgp.Attr.code attrs
      @ List.filter_map
          (fun tlv ->
            match Bgp.Attr.of_tlv tlv with
            | a -> Some (Bgp.Attr.code a)
            | exception Bgp.Attr.Parse_error _ -> None)
          extra_tlvs
    in
    List.mem Bgp.Attr.code_origin codes
    && List.mem Bgp.Attr.code_as_path codes
    && List.mem Bgp.Attr.code_next_hop codes

  let on_update t peer (u : Bgp.Message.update) ~raw =
    Telemetry.Counter.inc t.probes.c_updates_rx;
    (* BMP-style route monitoring: mirror the UPDATE PDU verbatim, pre
       policy (RFC 7854 §5) *)
    if t.collector <> None then
      mirror t
        (Obs.Bmp.route_monitoring ~peer:(bmp_peer peer)
           ~ts_us:(Netsim.Sched.now t.sched)
           ~update:(Bytes.to_string raw));
    (* BGP_RECEIVE_MESSAGE point: extensions may recover attributes the
       native parser drops; additions are collected as neutral TLVs *)
    let extra_tlvs = ref [] in
    (* withdraw-only UPDATEs go through the point too (flap damping needs
       to see withdrawals; the point runs before they are processed);
       only truly empty messages — End-of-RIB markers — are skipped *)
    (if u.nlri <> [] || u.withdrawn <> [] then
       let body =
         Bytes.sub raw Bgp.Message.header_size
           (Bytes.length raw - Bgp.Message.header_size)
       in
       let ops =
         {
           t.base_ops with
           Xbgp.Host_intf.peer_info = (fun () -> Some (peer_info t peer));
           set_attr =
             (fun tlv ->
               extra_tlvs := tlv :: !extra_tlvs;
               true);
         }
       in
       let args = borrow_args t in
       Xbgp.Host_intf.Args.set args Xbgp.Api.arg_update_payload body;
       ignore
         (vmm_run t Xbgp.Api.Bgp_receive_message ~ops ~args
            ~default:(fun () -> Xbgp.Api.ret_ok));
       release_args t args);
    List.iter (fun p -> withdraw_prefix t peer p) u.withdrawn;
    if u.nlri <> [] && not (mandatory_present u.attrs (List.rev !extra_tlvs))
    then
      List.iter
        (fun p ->
          withdraw_prefix t peer p;
          Hashtbl.replace t.last_prov p
            (import_record t p ~src:peer.idx ~chain:[]
               ~import:
                 "rejected: missing mandatory attribute (treat-as-withdraw)"
               ~status:Obs.Provenance.Rejected))
        u.nlri
    else if u.nlri <> [] then begin
      let attrs0 = R.of_attrs u.attrs in
      (* apply extension-recovered attributes *)
      let attrs0 =
        List.fold_left
          (fun acc tlv -> Option.value ~default:acc (R.set_tlv acc tlv))
          attrs0 (List.rev !extra_tlvs)
      in
      (* eBGP loop prevention: our own AS in the path. RFC 4271 treats
         such a route as unfeasible, which makes it an IMPLICIT WITHDRAWAL
         of any earlier route for the same NLRI from this peer — silently
         ignoring the update would leave the older advertisement in
         Adj-RIB-In even though the sender has moved on, and path hunting
         can then lock the fabric onto a stable cycle of such stale
         entries. *)
      if
        peer.peer_type = src_ebgp && R.contains_as attrs0 t.config.local_as
      then
        List.iter
          (fun p ->
            reject_route t peer p ~chain:[]
              ~import:"rejected: own AS in AS_PATH (eBGP loop)")
          u.nlri
      else begin
        let route =
          {
            attrs = attrs0;
            src = peer.idx;
            src_type = peer.peer_type;
            src_router_id = Session.Fsm.peer_id peer.session;
            src_addr = peer.conf.remote_addr;
            src_rr_client = peer.conf.rr_client;
            igp_cost = t.config.igp_metric (R.next_hop attrs0);
          }
        in
        learn_routes t peer u.nlri route
      end
    end

  (* --- session lifecycle --- *)

  let sync_peer t peer =
    if t.collector <> None then
      mirror t
        (Obs.Bmp.peer_up ~peer:(bmp_peer peer)
           ~ts_us:(Netsim.Sched.now t.sched)
           ~local_addr:t.config.local_addr ~local_asn:t.config.local_as
           ~local_bgp_id:t.config.router_id ~hold_time:t.config.hold_time);
    refresh_grouping t;
    let g =
      Rib.Update_group.join t.ugroups ~peer:peer.idx ~key:(group_key t peer)
    in
    (* catch-up: one fresh export per Loc-RIB best, targeted at the
       joiner only — the initial table sync, and self-healing for group
       entries dropped while nobody listened *)
    Rib.Loc_rib.iter_best t.loc (fun prefix { route = r; _ } ->
        match export t peer prefix r with
        | Some attrs ->
          let skip =
            if Rib.Update_group.is_member g r.src then r.src else -1
          in
          Rib.Update_group.catch_up_entry g prefix attrs ~skip
            ~member:peer.idx
        | None -> ());
    schedule_flush t

  let on_close t peer =
    if t.collector <> None then
      mirror t
        (Obs.Bmp.peer_down ~peer:(bmp_peer peer)
           ~ts_us:(Netsim.Sched.now t.sched)
           ~reason:Obs.Bmp.reason_remote_no_notification);
    Rib.Update_group.leave t.ugroups ~peer:peer.idx;
    (* like FRR's [bgp_clear_route] and BIRD's [rt_prune]: walk the
       Loc-RIB for the peer's candidates *)
    List.iter
      (fun prefix ->
        drop_candidate t ~src:peer.idx prefix
          ~import:"withdrawn: session closed")
      (Rib.Loc_rib.peer_prefixes t.loc ~peer:peer.idx)

  let create ?telemetry ?vmm ~sched (config : config)
      (peer_confs : peer_conf list) : t =
    (* share the VMM's registry unless the caller supplies one, so the
       whole deployment lands in a single export *)
    let tele =
      match telemetry with
      | Some t -> t
      | None -> (
        match vmm with
        | Some v -> Xbgp.Vmm.telemetry v
        | None -> Telemetry.create ~enabled:false ())
    in
    let t =
      {
        config;
        sched;
        vmm;
        tele;
        probes =
          make_probes tele ~daemon:config.name ~impl:R.impl ~store:R.store_name;
        peers = [||];
        loc = Rib.Loc_rib.create decision_view;
        flush_scheduled = false;
        ugroups =
          Rib.Update_group.create ~telemetry:tele ~daemon:config.name
            ~equal:R.equal ();
        group_gen = -1;
        groupable = false;
        chain_sig = "";
        batch_gen = -1;
        import_batchable = false;
        export_batchable = false;
        export_memo = [||];
        memo_on = false;
        chain_gen = -1;
        last_cand = None;
        last_prov = Hashtbl.create 16;
        recorder = None;
        collector = None;
        xtras = Hashtbl.create 8;
        log_fn = ignore;
        base_ops = Xbgp.Host_intf.null_ops;
        args_pool = Array.init 4 (fun _ -> Xbgp.Host_intf.Args.create ());
        args_busy = 0;
      }
    in
    t.base_ops <- make_base_ops t;
    List.iter (fun (k, v) -> Hashtbl.replace t.xtras k v) config.xtras;
    t.peers <-
      Array.of_list
        (List.mapi
           (fun idx conf ->
             let peer_type =
               if conf.remote_as = config.local_as then src_ibgp else src_ebgp
             in
             let session_config =
               {
                 Session.Fsm.local_as = config.local_as;
                 local_id = config.router_id;
                 peer_as = conf.remote_as;
                 hold_time = config.hold_time;
               }
             in
             let rec peer =
               lazy
                 {
                   idx;
                   conf;
                   peer_type;
                   label =
                     Printf.sprintf "peer %s (AS %d)" conf.pname conf.remote_as;
                   session =
                     Session.Fsm.create ~telemetry:tele sched conf.port
                       session_config
                       {
                         on_update =
                           (fun u ~raw -> on_update t (Lazy.force peer) u ~raw);
                         on_established =
                           (fun () -> sync_peer t (Lazy.force peer));
                         on_close = (fun _ -> on_close t (Lazy.force peer));
                       };
                 }
             in
             Lazy.force peer)
           peer_confs);
    t.export_memo <- Array.make (Array.length t.peers) None;
    Rib.Loc_rib.set_compare t.loc
      (Some
         (match vmm with
         | Some vmm -> decision_compare t vmm
         | None ->
           (* still count decision comparisons when no VMM is attached *)
           fun a b ->
             Telemetry.Counter.inc t.probes.c_decisions;
             Rib.Decision.compare decision_view a b));
    t

  let start t =
    (match t.vmm with
    | Some vmm -> Xbgp.Vmm.run_init vmm ~ops:t.base_ops
    | None -> ());
    Array.iter (fun p -> Session.Fsm.start p.session) t.peers

  let originate t prefix (attrs : Bgp.Attr.t list) =
    let route =
      {
        attrs = R.of_attrs attrs;
        src = -1;
        src_type = src_local;
        src_router_id = t.config.router_id;
        src_addr = t.config.local_addr;
        src_rr_client = false;
        igp_cost = 0;
      }
    in
    install t ~src:(-1) prefix
      { route; chain = []; import = "accepted (local origination)" }

  (* the add_route_to_rib helper (the paper's "dedicated helper enables an
     extension to add a new route to the RIB"): inject a locally-sourced
     route with incomplete origin and the requested next hop *)
  let () =
    rib_add_hook :=
      fun t ~addr ~len ~nexthop ->
        match Bgp.Prefix.v addr len with
        | prefix ->
          originate t prefix
            [
              Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Incomplete);
              Bgp.Attr.v (Bgp.Attr.As_path []);
              Bgp.Attr.v (Bgp.Attr.Next_hop nexthop);
            ];
          true
        | exception Invalid_argument _ -> false

  let withdraw_local t prefix =
    if Rib.Loc_rib.has_candidate t.loc ~peer:(-1) prefix then begin
      let pr =
        import_record t prefix ~src:(-1) ~chain:[] ~import:"withdrawn (local)"
          ~status:Obs.Provenance.Withdrawn
      in
      Hashtbl.replace t.last_prov prefix pr;
      record_route_event t Obs.Recorder.Route_withdraw prefix pr
    end;
    let change = Rib.Loc_rib.update t.loc ~peer:(-1) prefix None in
    propagate t prefix change

  let set_xtra t key value = Hashtbl.replace t.xtras key value

  let rerun_init t =
    match t.vmm with
    | Some vmm -> Xbgp.Vmm.run_init vmm ~ops:t.base_ops
    | None -> ()

  let restart_sessions t =
    Array.iter
      (fun p ->
        if not (Session.Fsm.is_established p.session) then
          Session.Fsm.start p.session)
      t.peers

  let refresh_exports t =
    refresh_grouping t;
    Rib.Loc_rib.iter_best t.loc (fun prefix { route = r; _ } ->
        Rib.Update_group.iter_groups t.ugroups (fun g ->
            export_to_group t g prefix r));
    schedule_flush t

  (* --- introspection --- *)

  let loc_count t = Rib.Loc_rib.count t.loc
  let loc_best t prefix =
    Option.map (fun c -> c.route) (Rib.Loc_rib.best t.loc prefix)

  let iter_loc t f = Rib.Loc_rib.iter_best t.loc (fun p c -> f p c.route)

  (* a point-in-time snapshot assembled from the registry counters *)
  let stats t : stats =
    {
      updates_rx = Telemetry.Counter.value t.probes.c_updates_rx;
      routes_in = Telemetry.Counter.value t.probes.c_routes_in;
      withdrawals_rx = Telemetry.Counter.value t.probes.c_withdrawals_rx;
      import_rejected = Telemetry.Counter.value t.probes.c_import_rejected;
      export_rejected = Telemetry.Counter.value t.probes.c_export_rejected;
      updates_tx = Telemetry.Counter.value t.probes.c_updates_tx;
    }

  let telemetry t = t.tele

  let group_count t = Rib.Update_group.group_count t.ugroups
  let vmm t = t.vmm

  let set_recorder t r =
    t.recorder <- r;
    (match t.vmm with
    | Some vmm -> Xbgp.Vmm.set_recorder vmm r
    | None -> ());
    Rib.Update_group.set_recorder t.ugroups r;
    Array.iter (fun p -> Session.Fsm.set_recorder p.session r) t.peers

  let recorder t = t.recorder

  let set_collector t c = t.collector <- c

  let collector t = t.collector

  let provenance t prefix =
    match Rib.Loc_rib.best_with_peer t.loc prefix with
    | Some (bpeer, c) -> Some (assemble_prov t prefix c ~src:bpeer)
    | None -> Hashtbl.find_opt t.last_prov prefix

  let provenance_candidates t prefix =
    List.map
      (fun (src, c) -> assemble_prov t prefix c ~src)
      (Rib.Loc_rib.candidates t.loc prefix)

  let provenance_snapshot t =
    let acc = ref [] in
    Rib.Loc_rib.iter_best t.loc (fun p _ ->
        match provenance t p with
        | Some pr -> acc := (p, pr) :: !acc
        | None -> ());
    List.sort (fun (a, _) (b, _) -> Bgp.Prefix.compare a b) !acc

  let group_details t =
    let acc = ref [] in
    Rib.Update_group.iter_groups t.ugroups (fun g ->
        acc := (Rib.Update_group.key g, Rib.Update_group.members g) :: !acc);
    List.rev !acc
  let peer t idx = t.peers.(idx)
  let peer_established t idx = Session.Fsm.is_established t.peers.(idx).session
  let set_log t f = t.log_fn <- f
  let name t = t.config.name

  let best_attrs t prefix =
    Option.map (fun r -> R.to_attrs r.attrs) (loc_best t prefix)

  let loc_snapshot t =
    let acc = ref [] in
    iter_loc t (fun p r -> acc := (p, R.to_attrs r.attrs) :: !acc);
    List.sort (fun (a, _) (b, _) -> Bgp.Prefix.compare a b) !acc

  let best_route t prefix = loc_best t prefix
end
