(** The three-router testbed of Fig. 3: upstream — DUT — downstream.

    As in the paper, upstream and downstream always run the FRR-like
    daemon; the Device Under Test runs either host, natively or with
    extension bytecode. Sessions are iBGP for the route-reflection
    experiment (§3.2), eBGP for origin validation (§3.4). *)

type host = [ `Bird | `Frr ]

type mode = {
  host : host;
  ibgp : bool;
  manifest : Xbgp.Manifest.t option;  (** extension config for the DUT *)
  native_rr : bool;
  native_ov_roas : Rpki.Roa.t list option;
  xtras : (string * bytes) list;  (** DUT configuration extras *)
  hold_time : int;
  engine : Ebpf.Vm.engine;  (** eBPF engine for the DUT's extensions *)
  telemetry : Telemetry.t option;
      (** shared registry for the whole deployment; None = disabled *)
}

val mode :
  ?host:host ->
  ?ibgp:bool ->
  ?manifest:Xbgp.Manifest.t ->
  ?native_rr:bool ->
  ?native_ov_roas:Rpki.Roa.t list ->
  ?xtras:(string * bytes) list ->
  ?hold_time:int ->
  ?engine:Ebpf.Vm.engine ->
  ?telemetry:Telemetry.t ->
  ?batch_updates:bool ->
  ?update_groups:bool ->
  unit ->
  mode
(** Every daemon imports a multi-prefix UPDATE as one batch and exports
    through update groups; there is no other lane. [batch_updates] and
    [update_groups] are accepted for the repository benchmark's callers,
    which pass [true]; they change nothing.
    @raise Invalid_argument if either is [false]. *)

val only_path :
  fn:string -> batch_updates:bool option -> update_groups:bool option -> unit
(** The check behind {!mode}'s and {!Star.create}'s two legacy labels:
    [None] or [Some true] pass.
    @raise Invalid_argument naming [fn] on [Some false]. *)

type t = {
  sched : Netsim.Sched.t;
  upstream : Frrouting.Bgpd.t;
  dut : Daemon.t;
  downstream : Frrouting.Bgpd.t;
  dut_vmm : Xbgp.Vmm.t option;
  telemetry : Telemetry.t;
      (** the deployment's registry (the one from [mode], or a fresh
          disabled one); its trace clock is the scheduler clock *)
}

val create : mode -> t
(** Also resets the FRR intern table (fresh-process semantics). *)

val establish : t -> unit
(** Bring all sessions up. @raise Failure if they do not establish. *)

val feed : t -> Dataset.Ris_gen.route list -> unit
(** Originate the table at the upstream router (§3.2: "the upstream
    router is first fed with IPv4 BGP routes"). *)

val run_until_downstream_has : t -> int -> bool
(** Run the simulation until the downstream router holds that many
    routes — the paper's measurement interval; false if the event queue
    drains first. *)

val downstream_count : t -> int
