(* The FRR-like BGP daemon.

   One of the two deliberately different xBGP hosts (§2.1). Its signature
   traits, mirroring FRRouting:
   - attributes are *interned host-byte-order records* ([Attr_intern]),
     so every xBGP API call pays a conversion to/from the neutral TLV;
   - the native parser drops unknown attributes and the native encoder
     emits only known ones;
   - native origin validation walks a dedicated ROA *trie* per check
     ([Rpki.Store_trie], §3.4);
   - route reflection (RFC 4456) is implemented natively and can be
     switched off to be replaced by extension bytecode (§3.2).

   Only the representation lives here; the daemon itself is the shared
   [Pipeline.Make]. *)

module Repr = struct
  type attrs = Attr_intern.t
  type roa_store = Rpki.Store_trie.t

  let impl = "frr"
  let of_attrs = Attr_intern.of_attrs
  let to_attrs = Attr_intern.to_attrs
  let equal (a : attrs) b = a = b

  (* interning makes physical identity the grouping key *)
  module Group_tbl = Attr_intern.Interned_tbl

  let group_key (a : attrs) = a

  let encode_known buf _ a =
    List.iter (Bgp.Attr.encode_into_buffer buf) (Attr_intern.to_attrs a)

  let get_tlv = Attr_intern.get_tlv

  let set_tlv a tlv =
    match Attr_intern.set_tlv a tlv with
    | a -> Some a
    | exception Bgp.Attr.Parse_error _ -> None

  let remove = Attr_intern.remove

  let local_pref = Attr_intern.local_pref_or_default
  let as_path_len (a : attrs) = a.as_path_len
  let origin (a : attrs) = a.origin
  let med = Attr_intern.med_or_default
  let neighbor_as = Attr_intern.neighbor_as

  let originator_id (a : attrs) ~default =
    Option.value ~default a.originator_id

  let cluster_list_len (a : attrs) = List.length a.cluster_list
  let next_hop (a : attrs) = a.next_hop
  let origin_as = Attr_intern.origin_as
  let contains_as = Attr_intern.contains_as
  let store_name = "trie"
  let validate = Rpki.Store_trie.validate

  let reflection_loop (a : attrs) ~router_id ~cluster_id =
    (match a.originator_id with Some oid -> oid = router_id | None -> false)
    || List.mem cluster_id a.cluster_list

  let ov_tag (a : attrs) tag =
    Attr_intern.intern { a with communities = a.communities @ [ tag ] }

  let reflect (a : attrs) ~originator_id ~cluster_id =
    let a =
      match a.originator_id with
      | Some _ -> a
      | None -> { a with originator_id = Some originator_id }
    in
    Attr_intern.intern { a with cluster_list = cluster_id :: a.cluster_list }

  let canonicalize_ebgp (a : attrs) ~local_as ~local_addr ~strip_med =
    Attr_intern.intern
      {
        a with
        as_path = Bgp.Attr.as_path_prepend local_as a.as_path;
        next_hop = local_addr;
        local_pref = None;
        med = (if strip_med then None else a.med);
        originator_id = None;
        cluster_list = [];
      }

  let canonicalize_ibgp (a : attrs) ~next_hop_self ~local_addr =
    Attr_intern.intern
      {
        a with
        next_hop = (if next_hop_self then local_addr else a.next_hop);
        local_pref = Some (Attr_intern.local_pref_or_default a);
      }
end

include Pipeline.Make (Repr)
