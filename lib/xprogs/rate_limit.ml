(* Per-peer prefix-rate limiting: cap how many prefixes one UPDATE from
   a peer may announce, dropping the excess instead of tearing the
   session down.

   State lives in map 0 ("win", per-peer array of 16 slots keyed by
   peer_addr mod 16): 8-byte value [count u32 LE][drops u32 LE]. The
   [receive] bytecode opens a fresh window at every UPDATE message —
   count is zeroed, the cumulative drop counter survives — and [import]
   then counts each announced prefix against get_xtra("rate_limit"),
   rejecting once the window is full. With our hosts dispatching the
   inbound filter once per NLRI prefix, the window is exactly "prefixes
   per UPDATE per peer".

   Array slots always exist (zero-initialised), so both bytecodes are
   lookup-hit-only on the happy path; peers with no limit configured
   cost one absent get_xtra and defer. *)

open Ebpf.Asm
open Ebpf.Insn

let slots = 16
let xtra_key = "rate_limit"
let key_at = -32

(* Stack frame (both bytecodes):
   r10-8  .. r10-5  : map key   [slot u32 LE]
   r10-16 .. r10-9  : map value [count u32 LE][drops u32 LE]
   r10-32 ..        : get_xtra cstring key (import only) *)

let receive =
  assemble
    (List.concat
       [
         [
           call Xbgp.Api.h_get_peer_info;
           jeqi R0 0 "done";
           ldxw R1 R0 Xbgp.Api.pi_peer_addr;
           modi R1 slots;
           stxw R10 (-8) R1;
           movi R1 0;
           mov R2 R10;
           addi R2 (-8);
           call Xbgp.Api.h_map_lookup;
           jeqi R0 0 "done";
           (* fresh window: zero the count, keep the drop total *)
           ldxw R8 R0 4;
           stw R10 (-16) 0;
           stxw R10 (-12) R8;
           movi R1 0;
           mov R2 R10;
           addi R2 (-8);
           mov R3 R10;
           addi R3 (-16);
           call Xbgp.Api.h_map_update;
           label "done";
         ];
         Util.tail_next;
       ])

let import =
  assemble
    (List.concat
       [
         Util.store_cstring ~at:key_at xtra_key;
         [
           mov R1 R10;
           addi R1 key_at;
           call Xbgp.Api.h_get_xtra;
           jeqi R0 0 "defer";
           (* no limit configured *)
           ldxw R6 R0 Xbgp.Api.blob_header_size;
           be32 R6;
           (* r6 = limit *)
           call Xbgp.Api.h_get_peer_info;
           jeqi R0 0 "defer";
           ldxw R1 R0 Xbgp.Api.pi_peer_addr;
           modi R1 slots;
           stxw R10 (-8) R1;
           movi R1 0;
           mov R2 R10;
           addi R2 (-8);
           call Xbgp.Api.h_map_lookup;
           jeqi R0 0 "defer";
           ldxw R7 R0 0;
           (* window count *)
           ldxw R8 R0 4;
           (* cumulative drops *)
           jge R7 R6 "over";
           addi R7 1;
           movi R9 0;
           ja "store";
           label "over";
           addi R8 1;
           movi R9 1;
           label "store";
           stxw R10 (-16) R7;
           stxw R10 (-12) R8;
           movi R1 0;
           mov R2 R10;
           addi R2 (-8);
           mov R3 R10;
           addi R3 (-16);
           call Xbgp.Api.h_map_update;
           jeqi R9 1 "reject";
           label "defer";
         ];
         Util.tail_next;
         [ label "reject"; movi R0 1; exit_ ];
       ])

let program =
  Xbgp.Xprog.v ~name:"rate_limit"
    ~maps:
      [
        Xbgp.Xprog.map ~name:"win" ~kind:Ebpf.Map.Per_peer_array
          ~max_entries:slots ~key_size:4 ~value_size:8 ();
      ]
    ~allowed_helpers:
      Xbgp.Api.
        [ h_next; h_get_xtra; h_get_peer_info; h_map_lookup; h_map_update ]
    [ ("receive", receive); ("import", import) ]

let manifest =
  Xbgp.Manifest.v ~programs:[ "rate_limit" ]
    ~attachments:
      [
        {
          program = "rate_limit";
          bytecode = "receive";
          point = Xbgp.Api.Bgp_receive_message;
          order = 1;
        };
        {
          program = "rate_limit";
          bytecode = "import";
          point = Xbgp.Api.Bgp_inbound_filter;
          order = 6;
        };
      ]
