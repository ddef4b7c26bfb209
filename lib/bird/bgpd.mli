(** The BIRD-like BGP daemon — the second xBGP host (§2.1 of the paper).

    Same protocol behaviour as the FRR-like daemon (both obey RFC 4271),
    entirely different internals: attributes are generic wire-form
    {!Eattr} lists (thin xBGP adapter, as in the paper), hash-consed as
    BIRD's [ea_lookup] does; native origin validation uses a {e hash} ROA store
    ({!Rpki.Store_hash}, §3.4); scalar attribute reads parse payloads on
    demand.

    Everything but the representation is the shared {!Pipeline.Make}:
    both daemons run the same extension bytecode through the same
    pipeline — that is the point of xBGP — and the integration tests
    check the resulting routing state is identical. *)

module Repr :
  Pipeline.REPR
    with type attrs = Eattr.set
     and type roa_store = Rpki.Store_hash.t

include
  Pipeline.S
    with type attrs = Eattr.set
     and type roa_store = Rpki.Store_hash.t
