(* BGP path attributes (RFC 4271 §4.3, plus route-reflection attributes from
   RFC 4456 and 32-bit AS numbers per RFC 6793).

   Two representations coexist:
   - the typed view [t] used by daemon code;
   - the *neutral* TLV form (flag byte, code byte, 16-bit length, payload in
     network byte order) that crosses the xBGP API boundary. The paper:
     "The xBGP functions that deal with BGP messages and attributes always
     manipulate them in network byte order (the neutral xBGP
     representation)". *)

(* attribute type codes *)
let code_origin = 1
let code_as_path = 2
let code_next_hop = 3
let code_med = 4
let code_local_pref = 5
let code_atomic_aggregate = 6
let code_aggregator = 7
let code_communities = 8
let code_originator_id = 9
let code_cluster_list = 10

(* flag bits *)
let flag_optional = 0x80
let flag_transitive = 0x40
let flag_partial = 0x20
let flag_extended = 0x10

type origin = Igp | Egp | Incomplete

let origin_code = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

let origin_of_code = function
  | 0 -> Some Igp
  | 1 -> Some Egp
  | 2 -> Some Incomplete
  | _ -> None

let pp_origin ppf o =
  Fmt.string ppf
    (match o with Igp -> "IGP" | Egp -> "EGP" | Incomplete -> "incomplete")

type segment = Seq of int list | Set of int list

type value =
  | Origin of origin
  | As_path of segment list
  | Next_hop of int  (** IPv4 address as int *)
  | Med of int
  | Local_pref of int
  | Atomic_aggregate
  | Aggregator of int * int  (** ASN, router id *)
  | Communities of int list  (** 32-bit community values *)
  | Originator_id of int
  | Cluster_list of int list
  | Unknown of { code : int; payload : bytes }

type t = { flags : int; value : value }

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let code_of_value = function
  | Origin _ -> code_origin
  | As_path _ -> code_as_path
  | Next_hop _ -> code_next_hop
  | Med _ -> code_med
  | Local_pref _ -> code_local_pref
  | Atomic_aggregate -> code_atomic_aggregate
  | Aggregator _ -> code_aggregator
  | Communities _ -> code_communities
  | Originator_id _ -> code_originator_id
  | Cluster_list _ -> code_cluster_list
  | Unknown { code; _ } -> code

let code t = code_of_value t.value

let default_flags = function
  | Origin _ | As_path _ | Next_hop _ -> flag_transitive
  | Local_pref _ -> flag_transitive
  | Med _ -> flag_optional
  | Atomic_aggregate -> flag_transitive
  | Aggregator _ -> flag_optional lor flag_transitive
  | Communities _ -> flag_optional lor flag_transitive
  | Originator_id _ | Cluster_list _ -> flag_optional
  | Unknown _ -> flag_optional lor flag_transitive

(** Wrap a value with its RFC-default flags. *)
let v value = { flags = default_flags value; value }

let with_flags flags value = { flags; value }

(* --- AS-path helpers --- *)

(** Path length as used by the decision process: an AS_SET counts 1. *)
let as_path_length segs =
  List.fold_left
    (fun acc -> function Seq l -> acc + List.length l | Set _ -> acc + 1)
    0 segs

(** All ASNs appearing anywhere in the path, leftmost first. *)
let as_path_asns segs =
  List.concat_map (function Seq l -> l | Set l -> l) segs

(** Prepend [asn] to the path: a leading AS_SEQUENCE is extended while
    it holds fewer than 255 ASNs (its wire count is one byte), else a
    new one starts. *)
let as_path_prepend asn = function
  | Seq l :: rest when List.compare_length_with l 255 < 0 ->
    Seq (asn :: l) :: rest
  | segs -> Seq [ asn ] :: segs

(** Leftmost ASN of the path, i.e. the neighbouring AS, if any. *)
let as_path_first segs =
  match segs with
  | Seq (a :: _) :: _ -> Some a
  | Set (a :: _) :: _ -> Some a
  | _ -> None

(** Origin AS: the rightmost ASN of the path, if any. *)
let as_path_origin segs =
  match List.rev (as_path_asns segs) with a :: _ -> Some a | [] -> None

(* --- payload encode/decode (network byte order) --- *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)
let put_u16 b v = Buffer.add_uint16_be b (v land 0xffff)
let put_u32 b v = Buffer.add_int32_be b (Int32.of_int (v land 0xFFFFFFFF))

let encode_payload value =
  let b = Buffer.create 16 in
  (match value with
  | Origin o -> put_u8 b (origin_code o)
  | As_path segs ->
    List.iter
      (fun seg ->
        let ty, asns = match seg with Seq l -> (2, l) | Set l -> (1, l) in
        put_u8 b ty;
        put_u8 b (List.length asns);
        List.iter (put_u32 b) asns)
      segs
  | Next_hop a -> put_u32 b a
  | Med m -> put_u32 b m
  | Local_pref p -> put_u32 b p
  | Atomic_aggregate -> ()
  | Aggregator (asn, rid) ->
    put_u32 b asn;
    put_u32 b rid
  | Communities cs -> List.iter (put_u32 b) cs
  | Originator_id rid -> put_u32 b rid
  | Cluster_list ids -> List.iter (put_u32 b) ids
  | Unknown { payload; _ } -> Buffer.add_bytes b payload);
  Buffer.to_bytes b

let get_u8 buf pos limit =
  if pos >= limit then parse_error "truncated u8";
  Bytes.get_uint8 buf pos

let get_u32 buf pos limit =
  if pos + 4 > limit then parse_error "truncated u32";
  Int32.to_int (Bytes.get_int32_be buf pos) land 0xFFFFFFFF

let decode_u32_list buf pos limit =
  if (limit - pos) mod 4 <> 0 then parse_error "payload not 4-byte aligned";
  let rec go pos acc =
    if pos >= limit then List.rev acc
    else go (pos + 4) (get_u32 buf pos limit :: acc)
  in
  go pos []

let decode_as_path buf pos limit =
  let rec segs pos acc =
    if pos >= limit then List.rev acc
    else begin
      let ty = get_u8 buf pos limit in
      let count = get_u8 buf (pos + 1) limit in
      let body_end = pos + 2 + (4 * count) in
      if body_end > limit then parse_error "AS_PATH: truncated segment";
      let rec asns p n acc =
        if n = 0 then List.rev acc
        else asns (p + 4) (n - 1) (get_u32 buf p limit :: acc)
      in
      let l = asns (pos + 2) count [] in
      let seg =
        match ty with
        | 1 -> Set l
        | 2 -> Seq l
        | t -> parse_error "AS_PATH: segment type %d" t
      in
      segs body_end (seg :: acc)
    end
  in
  segs pos []

(** Decode a payload given its attribute [code]; unrecognized codes become
    [Unknown]. @raise Parse_error on malformed known attributes. *)
let decode_payload ~code ~flags payload =
  let limit = Bytes.length payload in
  let value =
    if code = code_origin then begin
      match origin_of_code (get_u8 payload 0 limit) with
      | Some o when limit = 1 -> Origin o
      | _ -> parse_error "ORIGIN: invalid"
    end
    else if code = code_as_path then As_path (decode_as_path payload 0 limit)
    else if code = code_next_hop then
      if limit = 4 then Next_hop (get_u32 payload 0 limit)
      else parse_error "NEXT_HOP: length %d" limit
    else if code = code_med then
      if limit = 4 then Med (get_u32 payload 0 limit)
      else parse_error "MED: length %d" limit
    else if code = code_local_pref then
      if limit = 4 then Local_pref (get_u32 payload 0 limit)
      else parse_error "LOCAL_PREF: length %d" limit
    else if code = code_atomic_aggregate then
      if limit = 0 then Atomic_aggregate
      else parse_error "ATOMIC_AGGREGATE: length %d" limit
    else if code = code_aggregator then
      if limit = 8 then
        Aggregator (get_u32 payload 0 limit, get_u32 payload 4 limit)
      else parse_error "AGGREGATOR: length %d" limit
    else if code = code_communities then
      Communities (decode_u32_list payload 0 limit)
    else if code = code_originator_id then
      if limit = 4 then Originator_id (get_u32 payload 0 limit)
      else parse_error "ORIGINATOR_ID: length %d" limit
    else if code = code_cluster_list then
      Cluster_list (decode_u32_list payload 0 limit)
    else Unknown { code; payload }
  in
  { flags; value }

(* --- full attribute wire form: flags code [len|ext-len] payload --- *)

let encode_into_buffer b t =
  let payload = encode_payload t.value in
  let len = Bytes.length payload in
  let flags =
    if len > 255 then t.flags lor flag_extended
    else t.flags land lnot flag_extended
  in
  put_u8 b flags;
  put_u8 b (code t);
  if flags land flag_extended <> 0 then put_u16 b len else put_u8 b len;
  Buffer.add_bytes b payload

(** Decode one attribute at [pos]; returns it and the next position. *)
let decode_from buf pos limit =
  if pos + 2 > limit then parse_error "attribute: truncated header";
  let flags = Bytes.get_uint8 buf pos in
  let code = Bytes.get_uint8 buf (pos + 1) in
  let len, body =
    if flags land flag_extended <> 0 then begin
      if pos + 4 > limit then parse_error "attribute: truncated ext length";
      (Bytes.get_uint16_be buf (pos + 2), pos + 4)
    end
    else begin
      if pos + 3 > limit then parse_error "attribute: truncated length";
      (Bytes.get_uint8 buf (pos + 2), pos + 3)
    end
  in
  if body + len > limit then parse_error "attribute: truncated payload";
  let payload = Bytes.sub buf body len in
  (decode_payload ~code ~flags payload, body + len)

(* --- neutral xBGP TLV: flags(1) code(1) length(2, BE) payload --- *)

(** Serialize to the neutral representation exchanged over the xBGP API. *)
let to_tlv t =
  let payload = encode_payload t.value in
  let len = Bytes.length payload in
  let buf = Bytes.create (4 + len) in
  Bytes.set_uint8 buf 0 t.flags;
  Bytes.set_uint8 buf 1 (code t);
  Bytes.set_uint16_be buf 2 len;
  Bytes.blit payload 0 buf 4 len;
  buf

(** Parse the neutral representation. @raise Parse_error *)
let of_tlv buf =
  if Bytes.length buf < 4 then parse_error "TLV: truncated header";
  let flags = Bytes.get_uint8 buf 0 in
  let code = Bytes.get_uint8 buf 1 in
  let len = Bytes.get_uint16_be buf 2 in
  if Bytes.length buf < 4 + len then parse_error "TLV: truncated payload";
  decode_payload ~code ~flags (Bytes.sub buf 4 len)

let pp_segment ppf = function
  | Seq l -> Fmt.(list ~sep:sp int) ppf l
  | Set l -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) l

let pp_value ppf = function
  | Origin o -> Fmt.pf ppf "origin %a" pp_origin o
  | As_path segs ->
    Fmt.pf ppf "as-path [%a]" Fmt.(list ~sep:sp pp_segment) segs
  | Next_hop a -> Fmt.pf ppf "next-hop %a" Prefix.pp_addr a
  | Med m -> Fmt.pf ppf "med %d" m
  | Local_pref p -> Fmt.pf ppf "local-pref %d" p
  | Atomic_aggregate -> Fmt.string ppf "atomic-aggregate"
  | Aggregator (asn, rid) ->
    Fmt.pf ppf "aggregator AS%d %a" asn Prefix.pp_addr rid
  | Communities cs ->
    let pp_c ppf c = Fmt.pf ppf "%d:%d" (c lsr 16) (c land 0xffff) in
    Fmt.pf ppf "communities [%a]" Fmt.(list ~sep:sp pp_c) cs
  | Originator_id rid -> Fmt.pf ppf "originator-id %a" Prefix.pp_addr rid
  | Cluster_list ids ->
    Fmt.pf ppf "cluster-list [%a]" Fmt.(list ~sep:sp Prefix.pp_addr) ids
  | Unknown { code; payload } ->
    Fmt.pf ppf "attr<%d> (%d bytes)" code (Bytes.length payload)

let pp ppf t = pp_value ppf t.value

let equal a b = a.flags = b.flags && a.value = b.value

(* Total order on the neutral wire form: code first, then flags, then
   payload bytes — so sorting an attribute list yields one canonical
   shape regardless of which host emitted it. *)
let compare a b =
  let c = Int.compare (code a) (code b) in
  if c <> 0 then c
  else
    let c = Int.compare a.flags b.flags in
    if c <> 0 then c
    else Bytes.compare (encode_payload a.value) (encode_payload b.value)

let sort_canonical attrs = List.sort compare attrs
