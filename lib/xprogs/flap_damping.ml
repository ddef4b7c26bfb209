(* Route-flap damping (RFC 2439), the canonical stateful extension: the
   paper's §3 argues operators should not have to wait for vendors to
   ship policy like this, and with maps it is two bytecodes.

   Per-prefix penalty state lives in map 0 ("damp", LRU): 8-byte key
   [addr u32 BE][plen u8][pad3], 8-byte value [penalty u32 LE]
   [suppressed u32 LE].

   The adaptation is event-driven — our simulated daemons have no wall
   clock, so instead of RFC 2439's exponential time decay the penalty
   decays by a quarter on every announcement of the prefix:

   - [receive] (BGP_RECEIVE_MESSAGE) parses the UPDATE body's WITHDRAWN
     ROUTES section and adds 1000 to each withdrawn prefix's penalty
     (capped at 5000), setting the suppressed flag at 2500 (RFC 2439's
     cut-off threshold);
   - [import] (BGP_INBOUND_FILTER) runs per announced prefix: decay the
     penalty, and while the flag is set reject the route until the
     penalty falls below 700 (the reuse threshold), then clear the flag
     and let the chain decide.

   So a prefix that flaps (withdraw+announce) four times is suppressed,
   and a few clean announcements later it is usable again. Prefixes with
   no damping state cost one miss and defer straight to the chain. *)

open Ebpf.Asm
open Ebpf.Insn

let penalty_per_flap = 1000
let penalty_cap = 5000
let suppress_threshold = 2500
let reuse_threshold = 700

(* Stack frame (both bytecodes):
   r10-16 .. r10-9  : map key  [addr BE][plen][pad3]
   r10-24 .. r10-17 : map value [penalty u32 LE][flags u32 LE] *)

(* Walk the withdrawn-routes section: [withdrawn_len u16 BE] then
   (plen u8, ceil(plen/8) addr bytes)*. Loop state lives in r6 (cursor)
   and r7 (section end) — the only registers the map helpers preserve
   besides r8/r9. *)
let receive =
  assemble
    (List.concat
       [
         [
           movi R1 Xbgp.Api.arg_update_payload;
           call Xbgp.Api.h_get_arg;
           jeqi R0 0 "done";
           ldxw R7 R0 0;
           (* blob header: body length *)
           jlti R7 2 "done";
           mov R6 R0;
           addi R6 Xbgp.Api.blob_header_size;
           ldxh R8 R6 0;
           be16 R8;
           (* r8 = withdrawn-section bytes *)
           addi R6 2;
           mov R7 R6;
           add R7 R8;
           (* r7 = end of withdrawn section *)
           label "loop";
           jge R6 R7 "done";
           (* build the key: zero pad, then plen, then addr bytes *)
           stdw R10 (-16) 0;
           ldxb R1 R6 0;
           stxb R10 (-12) R1;
           (* nbytes = (plen + 7) / 8 *)
           mov R2 R1;
           addi R2 7;
           rshi R2 3;
           addi R6 1;
           (* accumulate the encoded address bytes, MSB first *)
           movi R4 0;
           movi R3 0;
           label "addr";
           jge R3 R2 "addr_done";
           lshi R4 8;
           ldxb R5 R6 0;
           or_ R4 R5;
           addi R6 1;
           addi R3 1;
           ja "addr";
           label "addr_done";
           (* left-align: shift by 8*(4 - nbytes) *)
           movi R1 4;
           sub R1 R2;
           muli R1 8;
           lsh R4 R1;
           be32 R4;
           stxw R10 (-16) R4;
           (* current value, or zeroes for a fresh prefix *)
           movi R1 0;
           mov R2 R10;
           addi R2 (-16);
           call Xbgp.Api.h_map_lookup;
           stdw R10 (-24) 0;
           jeqi R0 0 "fresh";
           ldxdw R1 R0 0;
           stxdw R10 (-24) R1;
           label "fresh";
           ldxw R8 R10 (-24);
           addi R8 penalty_per_flap;
           jlti R8 penalty_cap "capped";
           movi R8 penalty_cap;
           label "capped";
           stxw R10 (-24) R8;
           jlti R8 suppress_threshold "store";
           movi R1 1;
           stxw R10 (-20) R1;
           label "store";
           movi R1 0;
           mov R2 R10;
           addi R2 (-16);
           mov R3 R10;
           addi R3 (-24);
           call Xbgp.Api.h_map_update;
           ja "loop";
           label "done";
         ];
         Util.tail_next;
       ])

(* Per announced prefix: arg_prefix is [addr u32 BE][plen u8]; the blob
   bytes are copied verbatim into the key (an LE load + LE store
   round-trips the BE bytes unchanged). *)
let import =
  assemble
    (List.concat
       [
         [
           movi R1 Xbgp.Api.arg_prefix;
           call Xbgp.Api.h_get_arg;
           jeqi R0 0 "defer";
           stdw R10 (-16) 0;
           ldxw R1 R0 Xbgp.Api.blob_header_size;
           stxw R10 (-16) R1;
           ldxb R1 R0 (Xbgp.Api.blob_header_size + 4);
           stxb R10 (-12) R1;
           movi R1 0;
           mov R2 R10;
           addi R2 (-16);
           call Xbgp.Api.h_map_lookup;
           jeqi R0 0 "defer";
           (* no damping state: let the chain decide *)
           ldxw R7 R0 0;
           (* penalty *)
           ldxw R8 R0 4;
           (* suppressed flag *)
           (* decay on announcement: p -= p/4 *)
           mov R1 R7;
           rshi R1 2;
           sub R7 R1;
           movi R9 0;
           (* r9 = verdict (1 = reject) *)
           jeqi R8 0 "store";
           jlti R7 reuse_threshold "reuse";
           movi R9 1;
           ja "store";
           label "reuse";
           movi R8 0;
           label "store";
           stxw R10 (-24) R7;
           stxw R10 (-20) R8;
           movi R1 0;
           mov R2 R10;
           addi R2 (-16);
           mov R3 R10;
           addi R3 (-24);
           call Xbgp.Api.h_map_update;
           jeqi R9 1 "reject";
           label "defer";
         ];
         Util.tail_next;
         [ label "reject"; movi R0 1; exit_ ];
       ])

let program =
  Xbgp.Xprog.v ~name:"flap_damping"
    ~maps:
      [
        Xbgp.Xprog.map ~name:"damp" ~kind:Ebpf.Map.Lru ~max_entries:256
          ~key_size:8 ~value_size:8 ();
      ]
    ~allowed_helpers:
      Xbgp.Api.[ h_next; h_get_arg; h_map_lookup; h_map_update ]
    [ ("receive", receive); ("import", import) ]

let manifest =
  Xbgp.Manifest.v ~programs:[ "flap_damping" ]
    ~attachments:
      [
        {
          program = "flap_damping";
          bytecode = "receive";
          point = Xbgp.Api.Bgp_receive_message;
          order = 0;
        };
        {
          program = "flap_damping";
          bytecode = "import";
          point = Xbgp.Api.Bgp_inbound_filter;
          order = 5;
        };
      ]
