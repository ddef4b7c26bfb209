(* Instantiate the Fig. 5 data-center fabric as live daemons: a
   {!Topology} preset with one router per Clos node and one link per edge.

   Three configurations matter for §3.3:
   - [`Plain]    distinct ASNs, no filter: valleys are accepted;
   - [`Same_as]  the duplicate-ASN configuration trick (S1/S2 share an
                 AS, leaf pairs share ASes): valleys are blocked by
                 ordinary loop prevention, but double failures partition
                 the fabric;
   - [`Xbgp]     distinct ASNs + the valley_free extension on every
                 router: valleys blocked for external prefixes, recovery
                 paths for fabric-internal prefixes allowed. *)

type config = [ `Plain | `Same_as | `Xbgp ]

type t = {
  sched : Netsim.Sched.t;
  clos : Dataset.Clos.t;
  daemons : (string * Daemon.t) list;
  pipes : ((string * string) * (Netsim.Pipe.port * Netsim.Pipe.port)) list;
}

let hold_time = 9 (* short hold: failure scenarios converge quickly *)

let build ?(host : Testbed.host = `Frr) ?(with_transit = false)
    ?(engine = Ebpf.Vm.Interpreted) ?telemetry (config : config) : t =
  let clos =
    Dataset.Clos.fig5 ~with_transit ~same_spine_as:(config = `Same_as) ()
  in
  let telemetry = Topology.registry telemetry in
  let xtras =
    if config = `Xbgp then
      [
        ("vf_pairs", Xprogs.Util.encode_as_pairs clos.vf_pairs);
        ("vf_internal", Xprogs.Util.encode_asn_list clos.internal_asns);
      ]
    else []
  in
  let router (r : Dataset.Clos.router) =
    let vmm =
      if config = `Xbgp then
        Some
          (Xprogs.Registry.vmm_of_manifest ~engine ~telemetry ~host:r.rname
             Xprogs.Valley_free.manifest)
      else None
    in
    Topology.router ~host ~hold_time ~xtras ?vmm ~name:r.rname
      ~router_id:r.router_id ~local_as:r.asn ()
  in
  let topo =
    Topology.create ~telemetry
      (List.map router clos.routers)
      (List.map (fun (a, b) -> Topology.link a b) clos.links)
  in
  { sched = topo.sched; clos; daemons = topo.daemons; pipes = topo.pipes }

(* The fabric as the topology it was built from, for the shared
   operations. *)
let topo (t : t) =
  { Topology.sched = t.sched; daemons = t.daemons; sinks = [||]; pipes = t.pipes }

let daemon t name = List.assoc name t.daemons
let attach_recorder t rc = Topology.attach_recorder (topo t) rc
let attach_collector t name col = Topology.attach_collector (topo t) name col

(** Start every daemon; every router originates its prefix. *)
let start t =
  Topology.start (topo t);
  List.iter
    (fun (r : Dataset.Clos.router) ->
      Daemon.originate (daemon t r.rname)
          (Dataset.Clos.originated_prefix r)
          [
            Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
            Bgp.Attr.v (Bgp.Attr.As_path []);
            Bgp.Attr.v (Bgp.Attr.Next_hop r.addr);
          ])
    t.clos.routers

(** Advance simulated time by [seconds]. *)
let settle t seconds = Topology.run_for (topo t) (seconds * 1_000_000)

(** Fail the link [a]--[b]; sessions notice via their hold timers. *)
let fail_link t a b = Topology.set_link_up (topo t) a b false

(** Repair the link [a]--[b] and re-open the sessions that died. *)
let repair_link t a b =
  Topology.set_link_up (topo t) a b true;
  Topology.restart (topo t)

(** Does [router] currently hold a route towards [target]'s prefix? *)
let reaches t router target =
  let r = Dataset.Clos.router t.clos target in
  Daemon.has_route (daemon t router) (Dataset.Clos.originated_prefix r)

let path t router target =
  let r = Dataset.Clos.router t.clos target in
  Daemon.best_path (daemon t router) (Dataset.Clos.originated_prefix r)
