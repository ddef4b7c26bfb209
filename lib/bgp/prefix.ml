(* IPv4 prefixes.

   Addresses are stored as plain OCaml [int]s in the range [0, 2^32), which
   keeps arithmetic allocation-free. Prefixes are always normalized: bits
   beyond the mask length are zero, so structural equality coincides with
   semantic equality. *)

type t = { addr : int; len : int }

let mask_of_len len = if len = 0 then 0 else 0xFFFFFFFF lxor ((1 lsl (32 - len)) - 1)

(** [v addr len] is the prefix [addr/len], with host bits cleared.
    @raise Invalid_argument if [len] is outside [0, 32]. *)
let v addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.v: length out of range";
  { addr = addr land mask_of_len len; len }

let addr t = t.addr
let len t = t.len
let default = v 0 0

let addr_of_quad (a, b, c, d) =
  ((a land 0xff) lsl 24) lor ((b land 0xff) lsl 16) lor ((c land 0xff) lsl 8)
  lor (d land 0xff)

let quad_of_addr a =
  ((a lsr 24) land 0xff, (a lsr 16) land 0xff, (a lsr 8) land 0xff, a land 0xff)

let pp_addr ppf a =
  let x, y, z, w = quad_of_addr a in
  Fmt.pf ppf "%d.%d.%d.%d" x y z w

let pp ppf t = Fmt.pf ppf "%a/%d" pp_addr t.addr t.len
(* Same text as [pp], without a formatter: provenance records render a
   prefix for every imported route. *)
let to_string t =
  let octet shift = string_of_int ((t.addr lsr shift) land 0xff) in
  String.concat ""
    [ octet 24; "."; octet 16; "."; octet 8; "."; octet 0; "/";
      string_of_int t.len ]

(** Parse ["a.b.c.d/len"]; @raise Invalid_argument on malformed input. *)
let of_string s =
  let fail () = invalid_arg (Printf.sprintf "Prefix.of_string: %S" s) in
  match String.split_on_char '/' s with
  | [ addr_s; len_s ] -> (
    let quads = String.split_on_char '.' addr_s in
    match (quads, int_of_string_opt len_s) with
    | [ a; b; c; d ], Some len -> (
      let p v =
        match int_of_string_opt v with
        | Some x when x >= 0 && x <= 255 -> x
        | _ -> fail ()
      in
      try v (addr_of_quad (p a, p b, p c, p d)) len
      with Invalid_argument _ -> fail ())
    | _ -> fail ())
  | _ -> fail ()

let equal a b = a.addr = b.addr && a.len = b.len

(* Order: by address, then more-specific (longer) first on ties. *)
let compare a b =
  match Int.compare a.addr b.addr with
  | 0 -> Int.compare b.len a.len
  | c -> c

(** [mem a t] is true when address [a] belongs to prefix [t]. *)
let mem a t = a land mask_of_len t.len = t.addr

(** [subset sub sup]: every address of [sub] is in [sup]. *)
let subset sub sup = sub.len >= sup.len && mem sub.addr sup

(** Value of bit [i] (0 = most significant) of the prefix address. *)
let bit t i = (t.addr lsr (31 - i)) land 1

(* --- NLRI wire form (RFC 4271 §4.3): length octet + ceil(len/8) bytes --- *)

let wire_size t = 1 + ((t.len + 7) / 8)

let encode_into buf pos t =
  Bytes.set_uint8 buf pos t.len;
  let nbytes = (t.len + 7) / 8 in
  for i = 0 to nbytes - 1 do
    Bytes.set_uint8 buf (pos + 1 + i) ((t.addr lsr (24 - (8 * i))) land 0xff)
  done;
  pos + 1 + nbytes

exception Parse_error of string

(** Decode one NLRI entry at [pos]; returns the prefix and next position.
    @raise Parse_error on truncation or a length octet > 32. *)
let decode_from buf pos limit =
  if pos >= limit then raise (Parse_error "NLRI: truncated length octet");
  let len = Bytes.get_uint8 buf pos in
  if len > 32 then raise (Parse_error (Printf.sprintf "NLRI: length %d" len));
  let nbytes = (len + 7) / 8 in
  if pos + 1 + nbytes > limit then raise (Parse_error "NLRI: truncated body");
  let addr = ref 0 in
  for i = 0 to nbytes - 1 do
    addr := !addr lor (Bytes.get_uint8 buf (pos + 1 + i) lsl (24 - (8 * i)))
  done;
  (v !addr len, pos + 1 + nbytes)

let hash t = (t.addr * 31) + t.len
