(** A reference model of a {!Scenario.Star} hub's export side: from the
    hub's Loc-RIB, the native export rules (split horizon, iBGP-to-iBGP
    suppression, RFC 4456 reflection, eBGP/iBGP outbound
    canonicalization) and the outbound programs the fuzz chains draw
    (community_strip, igp_filter, route_reflector), what each sink must
    hold. It reads the daemon and nothing else: no extension runs, no
    map is written, no counter moves. *)

val diff_star : Scenario.Star.t -> chains:string list list -> string list
(** Every difference between a sink's adj-RIB-in and the model, over the
    sinks whose session is up at both ends; [[]] when they all agree.
    Attributes are compared as known values in canonical order.
    [chains] are the manifest chains (load order) that may have
    exported what a sink holds: after a chain change with no export
    refresh, a route may match any of them.
    @raise Invalid_argument on a chain program the model does not
    know. *)
