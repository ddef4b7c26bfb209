(* A reference model of a star hub's export side.

   Given the hub's Loc-RIB (each best route's attributes and the peer it
   came from), the model states what every sink's Adj-RIB-In must hold:
   the native export rules — split horizon towards the source peer,
   iBGP-to-iBGP suppression, RFC 4456 reflection, eBGP/iBGP outbound
   canonicalization — and the outbound programs the fuzz chains draw
   (community_strip, igp_filter, route_reflector), each restated here in
   a few lines of OCaml rather than run. It is written from the RFCs and
   the programs' documented behaviour, not from the pipeline's code, so
   a fault in the update-group engine (a member skipped, a stale entry
   kept, a rule applied to the wrong member) shows as a difference.

   The model only reads the daemon ({!Scenario.Daemon.loc_snapshot},
   {!Scenario.Daemon.best_sources}): it runs no extension, writes no map
   and bumps no counter, so checking it after every phase leaves the
   scenario exactly as it was. *)

module Star = Scenario.Star

let find f attrs = List.find_map (fun (a : Bgp.Attr.t) -> f a.value) attrs

let drop code attrs =
  List.filter (fun (a : Bgp.Attr.t) -> Bgp.Attr.code a <> code) attrs

let set value attrs =
  Bgp.Attr.v value :: drop (Bgp.Attr.code_of_value value) attrs

(* RFC 4456 §8: ORIGINATOR_ID when absent, our cluster id (the router
   id) in front of CLUSTER_LIST *)
let reflect star ~src attrs =
  let originator =
    find (function Bgp.Attr.Originator_id o -> Some o | _ -> None) attrs
  in
  let clusters =
    find (function Bgp.Attr.Cluster_list l -> Some l | _ -> None) attrs
  in
  let attrs =
    if originator <> None then attrs
    else set (Bgp.Attr.Originator_id (Star.sink_address star src)) attrs
  in
  set
    (Bgp.Attr.Cluster_list
       (Star.dut_address star :: Option.value ~default:[] clusters))
    attrs

(* community_strip: drop the communities tagged with our own AS; an
   attribute left empty goes away *)
let strip_own_communities star attrs =
  match find (function Bgp.Attr.Communities l -> Some l | _ -> None) attrs with
  | None -> attrs
  | Some cs -> (
    match List.filter (fun c -> c lsr 16 <> Star.dut_as star) cs with
    | kept when List.length kept = List.length cs -> attrs
    | [] -> drop Bgp.Attr.code_communities attrs
    | kept -> set (Bgp.Attr.Communities kept) attrs)

(* the outbound canonicalization RFC 4271 §5.1 asks of every speaker *)
let canonicalize star ~src_ebgp ~src_ibgp ~target_ebgp attrs =
  let self = Star.dut_address star in
  if target_ebgp then
    let path = find (function Bgp.Attr.As_path p -> Some p | _ -> None) attrs in
    let path = Option.value ~default:[] path in
    let attrs =
      set (Bgp.Attr.As_path (Bgp.Attr.as_path_prepend (Star.dut_as star) path))
        attrs
      |> set (Bgp.Attr.Next_hop self)
      |> drop Bgp.Attr.code_local_pref
      |> drop Bgp.Attr.code_originator_id
      |> drop Bgp.Attr.code_cluster_list
    in
    (* MED is not passed beyond the neighbouring AS *)
    if src_ebgp then drop Bgp.Attr.code_med attrs else attrs
  else
    let pref = find (function Bgp.Attr.Local_pref p -> Some p | _ -> None) attrs in
    let attrs = set (Bgp.Attr.Local_pref (Option.value ~default:100 pref)) attrs in
    if src_ibgp then attrs else set (Bgp.Attr.Next_hop self) attrs

(* What sink [target] must hold for a best route with [attrs] learned
   from sink [src] ([-1] = originated by the hub), under the manifest
   chain [chain] (load order). [None]: nothing. *)
let export star ~chain ~target ~src attrs =
  let ibgp i = Star.sink_as star i = Star.dut_as star in
  let src_ibgp = src >= 0 && ibgp src in
  let src_ebgp = src >= 0 && not src_ibgp in
  let target_ebgp = not (ibgp target) in
  let ibgp_to_ibgp = src_ibgp && not target_ebgp in
  let client = Star.sink_rr_client star in
  let reflects = ibgp_to_ibgp && (client src || client target) in
  (* each outbound program either decides or defers to the next, and
     the native export policy decides when every program deferred *)
  let rec outbound attrs = function
    | [] ->
      if not ibgp_to_ibgp then Some attrs
      else if Star.native_rr star && reflects then Some (reflect star ~src attrs)
      else None
    | "community_strip" :: rest ->
      outbound
        (if target_ebgp then strip_own_communities star attrs else attrs)
        rest
    | "route_reflector" :: rest ->
      if not ibgp_to_ibgp then outbound attrs rest
      else if reflects then Some (reflect star ~src attrs)
      else None
    (* igp_filter rejects only past a configured IGP metric, and the
       star's hub has no IGP: every next hop costs 0, so it defers. The
       others act inbound or at the decision point. *)
    | ( "igp_filter" | "origin_validation" | "prefix_limit" | "flap_damping"
      | "rate_limit" | "med_compare" )
      :: rest ->
      outbound attrs rest
    | p :: _ -> invalid_arg ("Export_model: no model of " ^ p)
  in
  if src = target then None
  else
    Option.map
      (canonicalize star ~src_ebgp ~src_ibgp ~target_ebgp)
      (outbound attrs chain)

(* One comparable form: known attributes with their RFC-default flags,
   in canonical order. The model states what is exported, not how it is
   framed: flags and bytes are held to account by the legs' frame-stream
   comparison and the cross-host snapshots. *)
let canonical attrs =
  List.filter_map
    (fun (a : Bgp.Attr.t) ->
      match a.value with Bgp.Attr.Unknown _ -> None | v -> Some (Bgp.Attr.v v))
    attrs
  |> Bgp.Attr.sort_canonical

let pp_held =
  Fmt.option ~none:(Fmt.any "nothing")
    (Fmt.brackets (Fmt.list ~sep:(Fmt.any "; ") Bgp.Attr.pp))

let diff_star star ~chains =
  let dut = Star.dut star in
  let loc =
    List.map2
      (fun (p, src) (_, attrs) -> (p, (src, attrs)))
      (Scenario.Daemon.best_sources dut)
      (Scenario.Daemon.loc_snapshot dut)
  in
  let diff_sink j =
    let held = Star.sink_rib star j in
    let expected p =
      match List.assoc_opt p loc with
      | None -> [ None ]
      | Some (src, attrs) ->
        List.sort_uniq compare
          (List.map
             (fun chain ->
               Option.map canonical (export star ~chain ~target:j ~src attrs))
             chains)
    in
    List.filter_map
      (fun p ->
        let got = Option.map canonical (List.assoc_opt p held) in
        let want = expected p in
        if List.mem got want then None
        else
          Some
            (Fmt.str "sink %d holds %a for %a, the export model expects %a" j
               pp_held got Bgp.Prefix.pp p
               (Fmt.list ~sep:(Fmt.any " or ") pp_held)
               want))
      (List.sort_uniq Bgp.Prefix.compare (List.map fst loc @ List.map fst held))
  in
  List.concat_map
    (fun j ->
      if Star.sink_established star j && Scenario.Daemon.peer_established dut j
      then diff_sink j
      else [])
    (List.init (Star.npeers star) Fun.id)
