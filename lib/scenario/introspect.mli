(** `show`-style live introspection queries over a running daemon:
    Loc-RIB, per-route provenance, update-group partition, eBPF map
    contents, flight-recorder events and the BMP mirror. Each query has
    a text form and a JSON form and is strictly read-only — answering
    never dispatches extension bytecode or perturbs daemon state. *)

val show_rib : ?json:bool -> Daemon.t -> string

val show_provenance : ?json:bool -> Daemon.t -> Bgp.Prefix.t -> string
(** Why the prefix's best route is installed: ingress peer, the import
    chain's per-bytecode verdicts/mutations and the winning decision
    step (falls back to the last reject/withdraw record). *)

val show_update_groups : ?json:bool -> Daemon.t -> string
val show_maps : ?json:bool -> Daemon.t -> string

val show_recorder : ?json:bool -> ?since:int -> Daemon.t -> string
(** Flight-recorder contents; [since] restricts to events with
    seqno >= the given value. *)

val show_bmp : ?json:bool -> Daemon.t -> string

val usage : string

val query : Daemon.t -> json:bool -> string list -> (string, string) result
(** Dispatch a tokenized query — [["rib"]], [["provenance"; p]],
    [["update-groups"]], [["maps"]], [["recorder"]],
    [["recorder"; "--since"; n]], [["bmp"]]. *)
