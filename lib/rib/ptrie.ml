(* The public face of the RIB library's prefix trie; the layout and the
   walks are in {!Ptrie_core}. *)

include Ptrie_core
