(* BIRD-style attribute storage.

   BIRD keeps route attributes as a generic list of `eattr` records whose
   payloads stay in (or very near) wire form, with one flexible API over
   all of them — which is why the paper's BIRD xBGP adapter was thinner
   than FRRouting's (§2.1: "BIRD includes a flexible API to manage BGP
   attributes. xBGP simply extends this API").

   Consequences faithfully reproduced here:
   - converting to/from the neutral xBGP TLV is nearly free (the payload
     *is* the network-byte-order wire payload), and so is the native
     encoder: it copies each known attribute's payload behind a header;
   - any attribute code, standard or not, is carried uniformly — but the
     native UPDATE parser still only admits codes it knows (so the GeoLoc
     use case behaves the same on both hosts), and the native encoder
     only emits known codes;
   - attribute sets are hash-consed, as BIRD's `ea_lookup`/`rta_lookup`
     do in nest/rt-attr.c: one physical set per distinct eattr list, held
     by a weak table so a set no route references is reclaimed by the GC;
   - scalar readers parse the payload on each access (with the small
     per-route cache BIRD keeps for hot fields, we cache only the AS-path
     length). *)

type t = { code : int; flags : int; payload : string }

(** An interned attribute set: eattrs sorted by code, unique per code.

    Every constructor goes through {!intern}, so two live sets with equal
    eattrs are one physical record and [==] is set equality. [hash] is
    the eattrs' hash, stored so identity-keyed tables need not walk the
    list. *)
type set = {
  eattrs : t list;
  path_len : int;  (** cached AS-path length *)
  hash : int;
}

let find_code code set =
  List.find_opt (fun (e : t) -> e.code = code) set.eattrs

(* --- payload readers (network byte order) --- *)

let read_u32 s off =
  ((Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3])

let u32_payload v =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (v land 0xFFFFFFFF));
  Bytes.to_string b

(** Walk an AS_PATH payload: segment length counting a SET as 1. *)
let path_length_of_payload s =
  let n = String.length s in
  let rec go off acc =
    if off + 2 > n then acc
    else
      let ty = Char.code s.[off] in
      let count = Char.code s.[off + 1] in
      let next = off + 2 + (4 * count) in
      if next > n then acc
      else go next (acc + if ty = 2 then count else 1)
  in
  go 0 0

(** All ASNs of an AS_PATH payload, leftmost first. *)
let path_asns_of_payload s =
  let n = String.length s in
  let rec go off acc =
    if off + 2 > n then List.rev acc
    else
      let count = Char.code s.[off + 1] in
      let next = off + 2 + (4 * count) in
      if next > n then List.rev acc
      else begin
        let rec asns i acc =
          if i = count then acc
          else asns (i + 1) (read_u32 s (off + 2 + (4 * i)) :: acc)
        in
        go next (asns 0 acc)
      end
  in
  go 0 []

(* --- interning --- *)

let equal_eattr (a : t) (b : t) =
  a.code = b.code && a.flags = b.flags && String.equal a.payload b.payload

(* Walks every payload in full: the stdlib polymorphic hash stops after
   a bounded number of list cells, which would collide on long sets. *)
let hash_eattrs eattrs =
  List.fold_left
    (fun h (e : t) ->
      let h = (((h * 31) + e.code) * 31) + e.flags in
      ((h * 65599) + Hashtbl.hash e.payload) land max_int)
    0 eattrs

module Table = Weak.Make (struct
  type t = set

  let equal a b = a.hash = b.hash && List.equal equal_eattr a.eattrs b.eattrs
  let hash s = s.hash
end)

let table = Table.create 4096

(* The one live set for [eattrs], which must be sorted by code and
   unique per code (as [upsert] and [drop] keep it). *)
let intern eattrs =
  let path_len =
    match List.find_opt (fun (e : t) -> e.code = Bgp.Attr.code_as_path) eattrs with
    | Some e -> path_length_of_payload e.payload
    | None -> 0
  in
  Table.merge table { eattrs; path_len; hash = hash_eattrs eattrs }

let interned_count () = Table.count table
let empty = intern []
let equal (a : set) (b : set) = a == b

(* --- list-level edits: a multi-step rewrite chains these and interns
   once, through [edit] --- *)

let rec upsert (e : t) = function
  | [] -> [ e ]
  | x :: rest when x.code = e.code -> e :: rest
  | x :: rest when x.code > e.code -> e :: x :: rest
  | x :: rest -> x :: upsert e rest

(* an absent code returns the list itself, so [edit] can skip the
   intern *)
let drop code eattrs =
  if List.exists (fun (e : t) -> e.code = code) eattrs then
    List.filter (fun (e : t) -> e.code <> code) eattrs
  else eattrs

let edit set f =
  let eattrs = f set.eattrs in
  if eattrs == set.eattrs then set else intern eattrs

let payload_of code eattrs =
  match List.find_opt (fun (e : t) -> e.code = code) eattrs with
  | Some e -> e.payload
  | None -> ""

(** Prepend an ASN to the AS_PATH, working directly on the wire payload
    (extending a leading AS_SEQUENCE when below 255 hops). *)
let push_as asn eattrs =
  let payload = payload_of Bgp.Attr.code_as_path eattrs in
  let n = String.length payload in
  let b =
    if n >= 2 && Char.code payload.[0] = 2 && Char.code payload.[1] < 255 then begin
      (* extend leading AS_SEQUENCE *)
      let b = Bytes.create (n + 4) in
      Bytes.set_uint8 b 0 2;
      Bytes.set_uint8 b 1 (Char.code payload.[1] + 1);
      Bytes.blit_string (u32_payload asn) 0 b 2 4;
      Bytes.blit_string payload 2 b 6 (n - 2);
      b
    end
    else begin
      let b = Bytes.create (n + 6) in
      Bytes.set_uint8 b 0 2;
      Bytes.set_uint8 b 1 1;
      Bytes.blit_string (u32_payload asn) 0 b 2 4;
      Bytes.blit_string payload 0 b 6 n;
      b
    end
  in
  upsert
    {
      code = Bgp.Attr.code_as_path;
      flags = Bgp.Attr.flag_transitive;
      payload = Bytes.unsafe_to_string b;
    }
    eattrs

(** Prepend a cluster id to the CLUSTER_LIST payload. *)
let push_cluster cid eattrs =
  upsert
    {
      code = Bgp.Attr.code_cluster_list;
      flags = Bgp.Attr.flag_optional;
      payload = u32_payload cid ^ payload_of Bgp.Attr.code_cluster_list eattrs;
    }
    eattrs

(** Append a community value to the COMMUNITY payload. *)
let push_community c eattrs =
  upsert
    {
      code = Bgp.Attr.code_communities;
      flags = Bgp.Attr.flag_optional lor Bgp.Attr.flag_transitive;
      payload = payload_of Bgp.Attr.code_communities eattrs ^ u32_payload c;
    }
    eattrs

(* ORIGIN, AS_PATH and NEXT_HOP are mandatory: removing one leaves the
   set as it is, as the record-based host does *)
let remove_code code set =
  if code >= Bgp.Attr.code_origin && code <= Bgp.Attr.code_next_hop then set
  else edit set (drop code)

let prepend_as set asn = edit set (push_as asn)
let prepend_cluster set cid = edit set (push_cluster cid)
let append_community set c = edit set (push_community c)

(* --- from/to the shared wire codec --- *)

(* The codes the native parser and encoder know: ORIGIN (1) through
   CLUSTER_LIST (10), every code between them included. A range test
   spares a polymorphic [List.mem] on every eattr of every encode. *)
let known code =
  code >= Bgp.Attr.code_origin && code <= Bgp.Attr.code_cluster_list

(* A known attribute as the record-based host keeps it: with its
   RFC-default flags, and an empty COMMUNITIES or CLUSTER_LIST as no
   attribute at all ([None]). Stray flag bits must not survive into
   xBGP-visible state (the record-based host re-derives flags, so keeping
   them here would make the two hosts diverge on exactly the malformed
   input). *)
let known_eattr (a : Bgp.Attr.t) ~payload =
  match a.value with
  | Communities [] | Cluster_list [] -> None
  | v -> Some { code = Bgp.Attr.code a; flags = Bgp.Attr.default_flags v; payload }

let store code e eattrs =
  match e with Some e -> upsert e eattrs | None -> drop code eattrs

let rec strictly_sorted = function
  | a :: (b :: _ as rest) ->
    Bgp.Attr.code a < Bgp.Attr.code b && strictly_sorted rest
  | _ -> true

(** Admit parsed attributes into the set; unknown codes are dropped by the
    *native* parser, like the FRR-side (see module header). A repeated
    code keeps its last occurrence, as the record-based host's fold
    does. *)
let of_attrs (attrs : Bgp.Attr.t list) =
  let eattr (a : Bgp.Attr.t) =
    known_eattr a
      ~payload:(Bytes.unsafe_to_string (Bgp.Attr.encode_payload a.value))
  in
  let is_known a = known (Bgp.Attr.code a) in
  intern
    (if strictly_sorted attrs then
       (* the wire order of every encoder here: no sort, no upsert *)
       List.filter_map (fun a -> if is_known a then eattr a else None) attrs
     else
       List.fold_left
         (fun acc a ->
           if is_known a then store (Bgp.Attr.code a) (eattr a) acc else acc)
         [] attrs)

(** Decode to the shared codec type (known codes only). *)
let to_attrs set : Bgp.Attr.t list =
  List.filter_map
    (fun (e : t) ->
      if known e.code then
        Some
          (Bgp.Attr.decode_payload ~code:e.code ~flags:e.flags
             (Bytes.of_string e.payload))
      else None)
    set.eattrs

(** The native encoder: each known attribute's stored payload behind its
    wire header, the extended-length bit set exactly when the payload
    needs it. Byte-identical to [Bgp.Attr.encode_into_buffer] over
    {!to_attrs} because every stored known payload was built by the
    codec or validated by it ({!set_tlv}). *)
let encode_known buf set =
  List.iter
    (fun (e : t) ->
      if known e.code then begin
        let len = String.length e.payload in
        if len > 255 then begin
          Buffer.add_uint8 buf (e.flags lor Bgp.Attr.flag_extended);
          Buffer.add_uint8 buf e.code;
          Buffer.add_uint16_be buf len
        end
        else begin
          Buffer.add_uint8 buf (e.flags land lnot Bgp.Attr.flag_extended);
          Buffer.add_uint8 buf e.code;
          Buffer.add_uint8 buf len
        end;
        Buffer.add_string buf e.payload
      end)
    set.eattrs

(* --- the xBGP adapter: near-zero-cost TLV conversion --- *)

let get_tlv set code =
  match find_code code set with
  | None -> None
  | Some e ->
    let len = String.length e.payload in
    let b = Bytes.create (4 + len) in
    Bytes.set_uint8 b 0 e.flags;
    Bytes.set_uint8 b 1 e.code;
    Bytes.set_uint16_be b 2 len;
    Bytes.blit_string e.payload 0 b 4 len;
    Some b

(** Install an attribute straight from the neutral TLV. A known code's
    payload is validated by the shared codec and stored as-is with its
    default flags; any other code is stored as given. *)
let set_tlv set tlv =
  if Bytes.length tlv < 4 then invalid_arg "Eattr.set_tlv: short TLV";
  let flags = Bytes.get_uint8 tlv 0 in
  let code = Bytes.get_uint8 tlv 1 in
  let len = Bytes.get_uint16_be tlv 2 in
  if Bytes.length tlv < 4 + len then invalid_arg "Eattr.set_tlv: truncated";
  let payload = Bytes.sub tlv 4 len in
  if known code then
    match Bgp.Attr.decode_payload ~code ~flags payload with
    | a ->
      edit set
        (store code (known_eattr a ~payload:(Bytes.unsafe_to_string payload)))
    | exception Bgp.Attr.Parse_error msg ->
      invalid_arg ("Eattr.set_tlv: " ^ msg)
  else edit set (upsert { code; flags; payload = Bytes.unsafe_to_string payload })

(* --- scalar accessors (parse on demand) --- *)

let u32_attr code default set =
  match find_code code set with
  | Some e when String.length e.payload = 4 -> read_u32 e.payload 0
  | _ -> default

let origin set =
  match find_code Bgp.Attr.code_origin set with
  | Some e when String.length e.payload = 1 -> Char.code e.payload.[0]
  | _ -> 2

let next_hop set = u32_attr Bgp.Attr.code_next_hop 0 set
let med set = u32_attr Bgp.Attr.code_med 0 set
let local_pref set = u32_attr Bgp.Attr.code_local_pref 100 set
let originator_id set = u32_attr Bgp.Attr.code_originator_id 0 set

let cluster_list_len set =
  match find_code Bgp.Attr.code_cluster_list set with
  | Some e -> String.length e.payload / 4
  | None -> 0

let path_asns set =
  match find_code Bgp.Attr.code_as_path set with
  | Some e -> path_asns_of_payload e.payload
  | None -> []

let neighbor_as set = match path_asns set with a :: _ -> a | [] -> 0

let origin_as set =
  match List.rev (path_asns set) with a :: _ -> Some a | [] -> None

let contains_as set asn = List.mem asn (path_asns set)

(* --- perfbench entry points: no conversion cache exists (see the
   interface) --- *)

let set_conversion_cache (_ : bool) = ()
let conversion_cache_stats () = (0, 0)
let reset_conversion_cache_stats () = ()
