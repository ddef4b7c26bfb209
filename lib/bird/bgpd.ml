(* The BIRD-like BGP daemon — the second xBGP host (§2.1).

   Same protocol behaviour as the FRR-like daemon (it must be: both obey
   RFC 4271), entirely different internals:
   - attributes are generic [Eattr.set] lists kept in wire form, so xBGP
     TLV conversion and the native encoder are nearly free (thin adapter,
     as in the paper);
   - attribute sets are hash-consed through a weak table, as BIRD's
     [ea_lookup] does: every policy step below interns its result once;
   - native origin validation uses a *hash* ROA store ([Rpki.Store_hash]),
     the structure the paper credits for BIRD's fast native validation;
   - scalar attribute reads parse payloads on demand.

   Only the representation lives here; the daemon itself is the shared
   [Pipeline.Make], so both hosts run the *same extension bytecode*
   through the same pipeline — that is the point of xBGP — and the
   integration tests check the resulting routing state is identical. *)

module Repr = struct
  type attrs = Eattr.set
  type roa_store = Rpki.Store_hash.t

  let impl = "bird"
  let of_attrs = Eattr.of_attrs
  let to_attrs = Eattr.to_attrs
  let equal = Eattr.equal

  (* interning makes physical identity the grouping key; the stored
     hash spares the table a walk over the eattrs *)
  module Group_tbl = Hashtbl.Make (struct
    type t = Eattr.set

    let equal = ( == )
    let hash (s : t) = s.hash
  end)

  let group_key (a : attrs) = a
  let encode_known buf _ a = Eattr.encode_known buf a
  let get_tlv = Eattr.get_tlv

  let set_tlv a tlv =
    match Eattr.set_tlv a tlv with
    | a -> Some a
    | exception Invalid_argument _ -> None

  let remove a code = Eattr.remove_code code a

  (* the decision view reads wire payloads on demand — BIRD's profile *)
  let local_pref = Eattr.local_pref
  let as_path_len (a : attrs) = a.path_len
  let origin = Eattr.origin
  let med = Eattr.med
  let neighbor_as = Eattr.neighbor_as

  (* present-or-absent, like the record-based host's option: an
     ORIGINATOR_ID of 0 is a value, not a missing attribute *)
  let originator a =
    Option.map
      (fun (e : Eattr.t) -> Eattr.read_u32 e.payload 0)
      (Eattr.find_code Bgp.Attr.code_originator_id a)

  let originator_id a ~default = Option.value ~default (originator a)

  let cluster_list_len = Eattr.cluster_list_len
  let next_hop = Eattr.next_hop
  let origin_as = Eattr.origin_as
  let contains_as = Eattr.contains_as
  let store_name = "hash"
  let validate = Rpki.Store_hash.validate

  let reflection_loop a ~router_id ~cluster_id =
    originator a = Some router_id
    ||
    match Eattr.find_code Bgp.Attr.code_cluster_list a with
    | Some e ->
      let rec go i =
        i + 4 <= String.length e.payload
        && (Eattr.read_u32 e.payload i = cluster_id || go (i + 4))
      in
      go 0
    | None -> false

  let ov_tag = Eattr.append_community

  let u32_eattr code flags v =
    { Eattr.code; flags; payload = Eattr.u32_payload v }

  (* each multi-step rewrite below is one [Eattr.edit]: the intermediate
     eattr lists are never interned *)
  let reflect a ~originator_id ~cluster_id =
    Eattr.edit a (fun l ->
        let l =
          if originator a = None then
            Eattr.upsert
              (u32_eattr Bgp.Attr.code_originator_id Bgp.Attr.flag_optional
                 originator_id)
              l
          else l
        in
        Eattr.push_cluster cluster_id l)

  let next_hop_self local_addr =
    Eattr.upsert
      (u32_eattr Bgp.Attr.code_next_hop Bgp.Attr.flag_transitive local_addr)

  let canonicalize_ebgp a ~local_as ~local_addr ~strip_med =
    Eattr.edit a (fun l ->
        let l = next_hop_self local_addr (Eattr.push_as local_as l) in
        let l = Eattr.drop Bgp.Attr.code_local_pref l in
        let l = if strip_med then Eattr.drop Bgp.Attr.code_med l else l in
        let l = Eattr.drop Bgp.Attr.code_originator_id l in
        Eattr.drop Bgp.Attr.code_cluster_list l)

  let canonicalize_ibgp a ~next_hop_self:nhs ~local_addr =
    Eattr.edit a (fun l ->
        let l = if nhs then next_hop_self local_addr l else l in
        Eattr.upsert
          (u32_eattr Bgp.Attr.code_local_pref Bgp.Attr.flag_transitive
             (Eattr.local_pref a))
          l)
end

include Pipeline.Make (Repr)
