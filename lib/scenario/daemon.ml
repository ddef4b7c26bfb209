(* A uniform handle over the two daemons, for harness code (tests,
   examples, benchmarks) that instantiates either host. Both are
   [Pipeline.Make] over different representations, so both implement
   [Pipeline.S] and every accessor below is written once over the packed
   host; their types stay distinct (route attributes are interned records
   in one, eattr lists in the other), hence the sum type. *)

type t = Frr of Frrouting.Bgpd.t | Bird of Bird.Bgpd.t
type host = Host : (module Pipeline.S with type t = 'd) * 'd -> host

let host = function
  | Frr d -> Host ((module Frrouting.Bgpd), d)
  | Bird d -> Host ((module Bird.Bgpd), d)

let name t = match host t with Host ((module D), d) -> D.name d
let start t = match host t with Host ((module D), d) -> D.start d

let originate t prefix attrs =
  match host t with Host ((module D), d) -> D.originate d prefix attrs

let withdraw_local t prefix =
  match host t with Host ((module D), d) -> D.withdraw_local d prefix

let loc_count t = match host t with Host ((module D), d) -> D.loc_count d

let peer_established t idx =
  match host t with Host ((module D), d) -> D.peer_established d idx

(** Attributes of the best route for [prefix], in the shared codec type —
    this is how the equivalence tests compare hosts. *)
let best_attrs t prefix =
  match host t with Host ((module D), d) -> D.best_attrs d prefix

let has_route t prefix = best_attrs t prefix <> None

(** Whole-Loc-RIB snapshot in the neutral codec form, sorted by prefix. *)
let loc_snapshot t =
  match host t with Host ((module D), d) -> D.loc_snapshot d

(** The peer each best route came from ([-1] = locally originated),
    sorted by prefix like {!loc_snapshot}. *)
let best_sources t =
  match host t with
  | Host ((module D), d) ->
    let acc = ref [] in
    D.iter_loc d (fun p r -> acc := (p, r.D.src) :: !acc);
    List.sort (fun (a, _) (b, _) -> Bgp.Prefix.compare a b) !acc

(** AS path (flattened) of the best route towards [prefix]. *)
let best_path t prefix =
  Option.bind (best_attrs t prefix) (fun attrs ->
      List.find_map
        (fun (a : Bgp.Attr.t) ->
          match a.value with
          | Bgp.Attr.As_path segs -> Some (Bgp.Attr.as_path_asns segs)
          | _ -> None)
        attrs)

(** Community values of the best route towards [prefix]. *)
let best_communities t prefix =
  match best_attrs t prefix with
  | None -> None
  | Some attrs ->
    Some
      (Option.value ~default:[]
         (List.find_map
            (fun (a : Bgp.Attr.t) ->
              match a.value with
              | Bgp.Attr.Communities cs -> Some cs
              | _ -> None)
            attrs))

let stats t = match host t with Host ((module D), d) -> D.stats d
let updates_rx t = (stats t).updates_rx
let import_rejected t = (stats t).import_rejected
let set_log t f = match host t with Host ((module D), d) -> D.set_log d f

let restart_sessions t =
  match host t with Host ((module D), d) -> D.restart_sessions d

let set_xtra t key value =
  match host t with Host ((module D), d) -> D.set_xtra d key value

let rerun_init t = match host t with Host ((module D), d) -> D.rerun_init d

let refresh_exports t =
  match host t with Host ((module D), d) -> D.refresh_exports d

(** Active update groups on the daemon (0 until a peer syncs). *)
let group_count t = match host t with Host ((module D), d) -> D.group_count d

let vmm t = match host t with Host ((module D), d) -> D.vmm d

(** Provenance of the prefix's current best route (or the last
    reject/withdraw record). *)
let provenance t prefix =
  match host t with Host ((module D), d) -> D.provenance d prefix

let provenance_candidates t prefix =
  match host t with Host ((module D), d) -> D.provenance_candidates d prefix

let provenance_snapshot t =
  match host t with Host ((module D), d) -> D.provenance_snapshot d

let set_recorder t r =
  match host t with Host ((module D), d) -> D.set_recorder d r

let recorder t = match host t with Host ((module D), d) -> D.recorder d

let set_collector t c =
  match host t with Host ((module D), d) -> D.set_collector d c

let collector t = match host t with Host ((module D), d) -> D.collector d

(** Update-group partition [(key, member indices)] in creation order. *)
let group_details t =
  match host t with Host ((module D), d) -> D.group_details d
