(** The FRR-like BGP daemon — one of the two deliberately different xBGP
    hosts (§2.1 of the paper).

    Signature traits mirroring FRRouting: interned host-byte-order
    attributes ({!Attr_intern}, so every xBGP call pays a TLV
    conversion); a native parser that drops unknown attributes and an
    encoder that emits only known ones; native origin validation through
    a ROA {e trie} ({!Rpki.Store_trie}, §3.4); native RFC 4456 route
    reflection that can be switched off and replaced by extension
    bytecode (§3.2).

    Everything but the representation is the shared {!Pipeline.Make}. *)

module Repr :
  Pipeline.REPR
    with type attrs = Attr_intern.t
     and type roa_store = Rpki.Store_trie.t

include
  Pipeline.S
    with type attrs = Attr_intern.t
     and type roa_store = Rpki.Store_trie.t
