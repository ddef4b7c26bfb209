(* §3.4: RPKI route-origin validation as extension code.

   Like the paper's DUT, the router "does not implement the RPKI-Rtr
   protocol but loads a file" of ROAs: the [init] bytecode reads the
   serialized ROA table from the router configuration
   (get_xtra("roa_table")) and fills an xBGP *hash map* — the same data
   structure BIRD uses natively, and the reason this extension beats
   FRRouting's native trie-walking validation (§3.4).

   The [import] bytecode then validates the origin of every incoming
   route: it derives the origin AS by walking the AS_PATH payload, looks
   the (prefix, origin) up in the map, and tags the route with a
   community — valid 65535:1, invalid 65535:2, not-found 65535:3 — but
   never discards it, exactly as in the paper's experiment.

   Map 0: key  = 8 bytes [addr u32 LE][len u32 LE]
          value = 4 bytes [asn u32 LE]. *)

open Ebpf.Asm
open Ebpf.Insn

let community_valid = 0xFFFF0001L
let community_invalid = 0xFFFF0002L
let community_notfound = 0xFFFF0003L

let roa_key = "roa_table"
let roa_key_at = -48

let init =
  assemble
    (List.concat
       [
         Util.store_cstring ~at:roa_key_at roa_key;
         [
           mov R1 R10;
           addi R1 roa_key_at;
           call Xbgp.Api.h_get_xtra;
           jeqi R0 0 "done";
           mov R6 R0;
           ldxw R7 R6 0;
           (* blob length (host-written, little endian) *)
           movi R8 0;
           label "loop";
           jge R8 R7 "done";
           mov R2 R6;
           add R2 R8;
           (* entry fields at r2+4 (skip blob header): addr, len, asn *)
           ldxw R3 R2 4;
           be32 R3;
           stxw R10 (-8) R3;
           ldxb R4 R2 8;
           stxw R10 (-4) R4;
           ldxw R5 R2 12;
           be32 R5;
           stxw R10 (-16) R5;
           movi R1 0;
           mov R2 R10;
           addi R2 (-8);
           mov R3 R10;
           addi R3 (-16);
           call Xbgp.Api.h_map_update;
           addi R8 12;
           ja "loop";
           label "done";
           movi R0 0;
           exit_;
         ];
       ])

let import =
  assemble
    [
      (* the route's prefix *)
      movi R1 Xbgp.Api.arg_prefix;
      call Xbgp.Api.h_get_arg;
      jeqi R0 0 "defer";
      mov R6 R0;
      ldxw R1 R6 4;
      be32 R1;
      stxw R10 (-8) R1;
      ldxb R2 R6 8;
      stxw R10 (-4) R2;
      (* origin AS: last ASN of the AS_PATH *)
      movi R1 Bgp.Attr.code_as_path;
      call Xbgp.Api.h_get_attr;
      jeqi R0 0 "defer";
      mov R7 R0;
      ldxh R8 R7 2;
      be16 R8;
      (* r8 = payload byte length *)
      movi R3 0;
      (* r3 = offset into payload *)
      movi R9 0;
      (* r9 = origin AS found so far *)
      label "seg_loop";
      mov R4 R3;
      addi R4 2;
      jgt R4 R8 "seg_done";
      mov R4 R7;
      add R4 R3;
      (* segment header at r4+4: type, count *)
      ldxb R5 R4 5;
      (* r5 = ASN count *)
      jeqi R5 0 "skip_seg";
      (* last ASN of this segment at r4 + 4 + 2 + 4*cnt - 4 *)
      mov R2 R5;
      lshi R2 2;
      add R2 R4;
      ldxw R9 R2 2;
      be32 R9;
      label "skip_seg";
      mov R2 R5;
      lshi R2 2;
      addi R2 2;
      add R3 R2;
      ja "seg_loop";
      label "seg_done";
      (* look the (prefix, origin) up *)
      movi R1 0;
      mov R2 R10;
      addi R2 (-8);
      call Xbgp.Api.h_map_lookup;
      jeqi R0 0 "notfound";
      ldxw R1 R0 0;
      jeq R1 R9 "valid";
      lddw R6 community_invalid;
      ja "tag";
      label "valid";
      lddw R6 community_valid;
      ja "tag";
      label "notfound";
      lddw R6 community_notfound;
      label "tag";
      (* append the community to the existing COMMUNITY payload *)
      movi R1 Bgp.Attr.code_communities;
      call Xbgp.Api.h_get_attr;
      mov R7 R0;
      movi R8 0;
      jeqi R7 0 "no_old";
      ldxh R8 R7 2;
      be16 R8;
      label "no_old";
      mov R1 R8;
      addi R1 4;
      call Xbgp.Api.h_memalloc;
      jeqi R0 0 "defer";
      mov R4 R0;
      movi R3 0;
      label "copy";
      jge R3 R8 "copy_done";
      mov R2 R7;
      add R2 R3;
      ldxb R5 R2 4;
      mov R2 R4;
      add R2 R3;
      stxb R2 0 R5;
      addi R3 1;
      ja "copy";
      label "copy_done";
      mov R2 R4;
      add R2 R8;
      mov R5 R6;
      be32 R5;
      stxw R2 0 R5;
      movi R1 Bgp.Attr.code_communities;
      movi R2 (Bgp.Attr.flag_optional lor Bgp.Attr.flag_transitive);
      mov R3 R8;
      addi R3 4;
      call Xbgp.Api.h_add_attr;
      movi R0 0;
      (* FILTER_ACCEPT: tag, never discard *)
      exit_;
      label "defer";
      call Xbgp.Api.h_next;
      movi R0 0;
      exit_;
    ]

let program =
  Xbgp.Xprog.v ~name:"origin_validation"
    ~maps:[ Xbgp.Xprog.map ~name:"roa" ~key_size:8 ~value_size:4 () ]
    ~allowed_helpers:
      Xbgp.Api.
        [
          h_next;
          h_get_arg;
          h_get_attr;
          h_add_attr;
          h_get_xtra;
          h_memalloc;
          h_map_lookup;
          h_map_update;
        ]
    [ ("init", init); ("import", import) ]

let manifest =
  Xbgp.Manifest.v ~programs:[ "origin_validation" ]
    ~attachments:
      [
        {
          program = "origin_validation";
          bytecode = "init";
          point = Xbgp.Api.Bgp_init;
          order = 0;
        };
        {
          program = "origin_validation";
          bytecode = "import";
          point = Xbgp.Api.Bgp_inbound_filter;
          order = 0;
        };
      ]
