(* FRRouting-style attribute storage.

   Like FRRouting's `struct attr`, this is a *fixed host-byte-order
   record* with one field per known attribute, deduplicated ("interned")
   through a weak hash table so identical live attribute sets share one
   allocation.
   Nothing here is close to the wire format: every crossing of the xBGP
   boundary converts between this record and the neutral network-byte-
   order TLV — the conversion work that made the FRRouting adapter 589
   lines against BIRD's 400 in the paper (§2.1).

   FRRouting also had no way to carry attributes "not defined by any
   standard"; the [extra] field is the equivalent of the attribute API the
   authors had to add to the host to support [add_attr]. Note that the
   native UPDATE *parser* still drops unknown attributes and the native
   *encoder* still only emits known ones — recovering and re-emitting
   unknown attributes is exactly what the GeoLoc extension's
   BGP_RECEIVE_MESSAGE and BGP_ENCODE_MESSAGE bytecodes are for. *)

type t = {
  origin : int;
  as_path : Bgp.Attr.segment list;
  as_path_len : int;  (** cached at intern time, like FRR *)
  next_hop : int;
  med : int option;
  local_pref : int option;
  atomic : bool;
  aggregator : (int * int) option;
  communities : int list;
  originator_id : int option;
  cluster_list : int list;
  extra : (int * int * string) list;
      (** (code, flags, payload) of non-standard attributes, sorted by
          code — the attribute API added for xBGP *)
}

let empty =
  {
    origin = Bgp.Attr.origin_code Bgp.Attr.Incomplete;
    as_path = [];
    as_path_len = 0;
    next_hop = 0;
    med = None;
    local_pref = None;
    atomic = false;
    aggregator = None;
    communities = [];
    originator_id = None;
    cluster_list = [];
    extra = [];
  }

(* --- interning --- *)

(* Full-structure hash: the stdlib polymorphic hash only explores a
   bounded number of nodes, which makes AS-path-heavy records collide
   catastrophically once the table holds tens of thousands of entries. *)
let hash_attrs t =
  let h = ref (t.origin + (t.next_hop * 31)) in
  let mix v = h := ((!h * 131) + v) land max_int in
  List.iter
    (fun seg ->
      match seg with
      | Bgp.Attr.Seq l ->
        mix 1;
        List.iter mix l
      | Bgp.Attr.Set l ->
        mix 2;
        List.iter mix l)
    t.as_path;
  mix (Option.value ~default:(-1) t.med);
  mix (Option.value ~default:(-1) t.local_pref);
  mix (if t.atomic then 1 else 0);
  (match t.aggregator with
  | Some (a, r) ->
    mix a;
    mix r
  | None -> mix (-2));
  List.iter mix t.communities;
  mix (Option.value ~default:(-1) t.originator_id);
  List.iter mix t.cluster_list;
  List.iter
    (fun (code, flags, payload) ->
      mix code;
      mix flags;
      mix (Hashtbl.hash payload))
    t.extra;
  !h

(* [hash_attrs] never reads the derived [as_path_len] *)
let hash = hash_attrs

(* Hash table over *interned* records: physical equality suffices and the
   full-structure hash avoids the stdlib polymorphic hash's bounded
   traversal, which collides catastrophically on attribute records. *)
module Interned_tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = hash
end)

(* Semantic equality for the intern table: every field except the
   derived [as_path_len]. *)
let semantic_equal a b =
  a.origin = b.origin && a.next_hop = b.next_hop && a.med = b.med
  && a.local_pref = b.local_pref && a.atomic = b.atomic
  && a.aggregator = b.aggregator
  && a.originator_id = b.originator_id
  && a.as_path = b.as_path
  && a.communities = b.communities
  && a.cluster_list = b.cluster_list
  && a.extra = b.extra

(* Weak, like the BIRD-like host's table: a record no route references
   any more is reclaimed, so a peer that keeps sending new attribute sets
   cannot grow the table without bound. *)
module Table = Weak.Make (struct
  type nonrec t = t

  let equal = semantic_equal
  let hash = hash
end)

let intern_table = Table.create 4096

let intern raw =
  Table.merge intern_table
    { raw with as_path_len = Bgp.Attr.as_path_length raw.as_path }

let intern_table_size () = Table.count intern_table
let reset_intern_table () = Table.clear intern_table

(* --- conversion from/to the shared wire codec types --- *)

(** Build the interned record from parsed attributes. Unknown attributes
    are dropped, as FRRouting's parser does (the GeoLoc use case relies on
    this). *)
let of_attrs (attrs : Bgp.Attr.t list) =
  let t =
    List.fold_left
      (fun acc (a : Bgp.Attr.t) ->
        match a.value with
        | Origin o -> { acc with origin = Bgp.Attr.origin_code o }
        | As_path p -> { acc with as_path = p }
        | Next_hop n -> { acc with next_hop = n }
        | Med m -> { acc with med = Some m }
        | Local_pref p -> { acc with local_pref = Some p }
        | Atomic_aggregate -> { acc with atomic = true }
        | Aggregator (a, r) -> { acc with aggregator = Some (a, r) }
        | Communities cs -> { acc with communities = cs }
        | Originator_id r -> { acc with originator_id = Some r }
        | Cluster_list l -> { acc with cluster_list = l }
        | Unknown _ -> acc)
      empty attrs
  in
  intern t

(** The known attributes, in canonical code order, ready for the native
    encoder. [extra] is deliberately *not* included (see module header). *)
let to_attrs t : Bgp.Attr.t list =
  let open Bgp.Attr in
  let origin =
    match origin_of_code t.origin with Some o -> o | None -> Incomplete
  in
  List.filter_map
    (fun x -> x)
    [
      Some (v (Origin origin));
      Some (v (As_path t.as_path));
      Some (v (Next_hop t.next_hop));
      Option.map (fun m -> v (Med m)) t.med;
      Option.map (fun p -> v (Local_pref p)) t.local_pref;
      (if t.atomic then Some (v Atomic_aggregate) else None);
      Option.map (fun (a, r) -> v (Aggregator (a, r))) t.aggregator;
      (match t.communities with [] -> None | cs -> Some (v (Communities cs)));
      Option.map (fun r -> v (Originator_id r)) t.originator_id;
      (match t.cluster_list with
      | [] -> None
      | l -> Some (v (Cluster_list l)));
    ]

(* --- the xBGP adapter: neutral TLV <-> interned record --- *)

(** Fetch one attribute as a neutral TLV; requires building the wire form
    from the host representation (the FRR-side conversion cost). *)
let get_tlv t acode =
  let of_value value = Some (Bgp.Attr.to_tlv (Bgp.Attr.v value)) in
  let open Bgp.Attr in
  if acode = code_origin then
    of_value
      (Origin
         (match origin_of_code t.origin with
         | Some o -> o
         | None -> Incomplete))
  else if acode = code_as_path then of_value (As_path t.as_path)
  else if acode = code_next_hop then of_value (Next_hop t.next_hop)
  else if acode = code_med then Option.bind t.med (fun m -> of_value (Med m))
  else if acode = code_local_pref then
    Option.bind t.local_pref (fun p -> of_value (Local_pref p))
  else if acode = code_atomic_aggregate then
    if t.atomic then of_value Atomic_aggregate else None
  else if acode = code_aggregator then
    Option.bind t.aggregator (fun (a, r) -> of_value (Aggregator (a, r)))
  else if acode = code_communities then
    match t.communities with
    | [] -> None
    | cs -> of_value (Communities cs)
  else if acode = code_originator_id then
    Option.bind t.originator_id (fun r -> of_value (Originator_id r))
  else if acode = code_cluster_list then
    match t.cluster_list with
    | [] -> None
    | l -> of_value (Cluster_list l)
  else
    match List.find_opt (fun (c, _, _) -> c = acode) t.extra with
    | Some (c, flags, payload) ->
      let p = Bytes.of_string payload in
      Some
        (Bgp.Attr.to_tlv
           (Bgp.Attr.with_flags flags (Unknown { code = c; payload = p })))
    | None -> None

(** Install/replace an attribute from its neutral TLV; parses the wire
    form, updates the record and re-interns. @raise Bgp.Attr.Parse_error *)
let set_tlv t tlv =
  let a = Bgp.Attr.of_tlv tlv in
  let open Bgp.Attr in
  let t =
    match a.value with
    | Origin o -> { t with origin = origin_code o }
    | As_path p -> { t with as_path = p }
    | Next_hop n -> { t with next_hop = n }
    | Med m -> { t with med = Some m }
    | Local_pref p -> { t with local_pref = Some p }
    | Atomic_aggregate -> { t with atomic = true }
    | Aggregator (asn, r) -> { t with aggregator = Some (asn, r) }
    | Communities cs -> { t with communities = cs }
    | Originator_id r -> { t with originator_id = Some r }
    | Cluster_list l -> { t with cluster_list = l }
    | Unknown { code; payload } ->
      let extra =
        (code, a.flags, Bytes.to_string payload)
        :: List.filter (fun (c, _, _) -> c <> code) t.extra
      in
      { t with extra = List.sort Stdlib.compare extra }
  in
  intern t

let remove t acode =
  let open Bgp.Attr in
  let t =
    if acode = code_med then { t with med = None }
    else if acode = code_local_pref then { t with local_pref = None }
    else if acode = code_atomic_aggregate then { t with atomic = false }
    else if acode = code_aggregator then { t with aggregator = None }
    else if acode = code_communities then { t with communities = [] }
    else if acode = code_originator_id then { t with originator_id = None }
    else if acode = code_cluster_list then { t with cluster_list = [] }
    else { t with extra = List.filter (fun (c, _, _) -> c <> acode) t.extra }
  in
  intern t

let has_extra t code = List.exists (fun (c, _, _) -> c = code) t.extra

(* --- convenience used by the decision process and policies --- *)

let local_pref_or_default t = Option.value ~default:100 t.local_pref
let med_or_default t = Option.value ~default:0 t.med
let neighbor_as t = Option.value ~default:0 (Bgp.Attr.as_path_first t.as_path)
let origin_as t = Bgp.Attr.as_path_origin t.as_path

let contains_as t asn = List.mem asn (Bgp.Attr.as_path_asns t.as_path)

let prepend_as t asn =
  intern { t with as_path = Bgp.Attr.as_path_prepend asn t.as_path }

(* --- perfbench entry points: no conversion cache exists (see the
   interface) --- *)

let set_conversion_cache (_ : bool) = ()
let conversion_cache_stats () = (0, 0)
let reset_conversion_cache_stats () = ()
