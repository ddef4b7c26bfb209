(* A stateful per-peer max-prefix limit, in the spirit of §3.1: "since
   the xBGP API provides access to the data structures maintained by a
   BGP implementation, network operators can leverage it to implement new
   filters".

   Vendors expose max-prefix as a per-session knob; here it is thirty
   lines of bytecode plus a map. The [import] bytecode counts the routes
   accepted from each peer (map 0, keyed by peer address) and rejects
   anything beyond get_xtra("max_prefix"). The count approximates the
   Adj-RIB-In size: implicit replacements and withdrawals are not
   decremented, which operators usually accept (real implementations tear
   the session down at the threshold anyway — rejecting is our gentler
   variant). *)

open Ebpf.Asm
open Ebpf.Insn

let key = "max_prefix"
let key_at = -32

let import =
  assemble
    (List.concat
       [
         Util.store_cstring ~at:key_at key;
         [
           mov R1 R10;
           addi R1 key_at;
           call Xbgp.Api.h_get_xtra;
           jeqi R0 0 "defer";
           (* no limit configured *)
           ldxw R6 R0 4;
           be32 R6;
           (* r6 = limit *)
           call Xbgp.Api.h_get_peer_info;
           jeqi R0 0 "defer";
           ldxw R1 R0 Xbgp.Api.pi_peer_addr;
           stxw R10 (-8) R1;
           (* current count for this peer *)
           movi R1 0;
           mov R2 R10;
           addi R2 (-8);
           call Xbgp.Api.h_map_lookup;
           movi R7 0;
           jeqi R0 0 "have_count";
           ldxw R7 R0 0;
           label "have_count";
           jge R7 R6 "reject";
           (* count + 1 back into the map *)
           addi R7 1;
           stxw R10 (-16) R7;
           movi R1 0;
           mov R2 R10;
           addi R2 (-8);
           mov R3 R10;
           addi R3 (-16);
           call Xbgp.Api.h_map_update;
           label "defer";
         ];
         Util.tail_next;
         [ label "reject"; movi R0 1; exit_ ];
       ])

let program =
  Xbgp.Xprog.v ~name:"prefix_limit"
    ~maps:[ Xbgp.Xprog.map ~name:"seen" ~key_size:4 ~value_size:4 () ]
    ~allowed_helpers:
      Xbgp.Api.
        [ h_next; h_get_peer_info; h_get_xtra; h_map_lookup; h_map_update ]
    [ ("import", import) ]

let manifest =
  Xbgp.Manifest.v ~programs:[ "prefix_limit" ]
    ~attachments:
      [
        {
          program = "prefix_limit";
          bytecode = "import";
          point = Xbgp.Api.Bgp_inbound_filter;
          order = 0;
        };
      ]
