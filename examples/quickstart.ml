(* Quickstart: write an xBGP extension, verify it, load it into a running
   BGP daemon through a manifest, and watch it act on live routes.

     dune exec examples/quickstart.exe

   The extension is a tiny inbound filter that rejects any route whose
   AS path is longer than 4 hops — a classic operator policy that, before
   xBGP, required vendor CLI support. *)

open Ebpf.Asm
open Ebpf.Insn
open Scenario

(* 1. The extension bytecode: reject if as_path_len > 4, else defer to
   the host's native policy via next(). *)
let max_len_filter =
  assemble
    [
      movi R1 Bgp.Attr.code_as_path;
      call Xbgp.Api.h_get_attr;
      jeqi R0 0 "defer";
      (* TLV payload: segments of (type, count, count * 4-byte ASNs) *)
      mov R6 R0;
      ldxh R7 R6 2;
      be16 R7;
      (* r7 = payload length *)
      movi R3 0;
      (* offset *)
      movi R9 0;
      (* hop count *)
      label "seg";
      mov R4 R3;
      addi R4 2;
      jgt R4 R7 "done";
      mov R4 R6;
      add R4 R3;
      ldxb R5 R4 5;
      (* count *)
      add R9 R5;
      mov R2 R5;
      lshi R2 2;
      addi R2 2;
      add R3 R2;
      ja "seg";
      label "done";
      jgti R9 4 "reject";
      label "defer";
      call Xbgp.Api.h_next;
      movi R0 0;
      exit_;
      label "reject";
      movi R0 1;
      (* FILTER_REJECT *)
      exit_;
    ]

let program =
  Xbgp.Xprog.v ~name:"max_path_len"
    ~allowed_helpers:Xbgp.Api.[ h_next; h_get_attr ]
    [ ("import", max_len_filter) ]

let () =
  (* 2. Inspect what we wrote: disassemble and verify. *)
  print_endline "=== extension bytecode ===";
  print_string (Ebpf.Disasm.program_to_string max_len_filter);
  (match Ebpf.Verifier.check max_len_filter with
  | Ok _ -> print_endline "verifier: OK"
  | Error es ->
    Fmt.pr "verifier rejected: %a@." (Fmt.list Ebpf.Verifier.pp_error) es;
    exit 1);

  (* 3. Build a VMM and load the program through a manifest, as a router
     configuration would. *)
  let manifest_text =
    "program max_path_len\n\
     attach max_path_len import BGP_INBOUND_FILTER 0\n"
  in
  let manifest =
    match Xbgp.Manifest.parse manifest_text with
    | Ok m -> m
    | Error e -> failwith e
  in
  let vmm = Xbgp.Vmm.create ~host:"dut" () in
  let registry name = if name = "max_path_len" then Some program else None in
  (match Xbgp.Manifest.load vmm ~registry manifest with
  | Ok () -> print_endline "manifest loaded"
  | Error e -> failwith e);

  (* 4. A live two-router deployment, written as a node/link list: the
     upstream feeds routes with paths of different lengths into a DUT
     running the extension. Either host would do ([~host:`Bird]). *)
  let a_addr = Bgp.Prefix.addr_of_quad (10, 0, 0, 1) in
  let topo =
    Topology.create
      [
        Topology.router ~name:"upstream" ~router_id:a_addr ~local_as:65001 ();
        Topology.router ~vmm ~name:"dut" ~local_as:65000
          ~router_id:(Bgp.Prefix.addr_of_quad (10, 0, 0, 2)) ();
      ]
      [ Topology.link "upstream" "dut" ]
  in
  let upstream = Topology.daemon topo "upstream" in
  let dut = Topology.daemon topo "dut" in
  Topology.start topo;
  Topology.run_for topo 5_000_000;

  let announce prefix path =
    Daemon.originate upstream (Bgp.Prefix.of_string prefix)
      [
        Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
        Bgp.Attr.v (Bgp.Attr.As_path [ Bgp.Attr.Seq path ]);
        Bgp.Attr.v (Bgp.Attr.Next_hop a_addr);
      ]
  in
  announce "203.0.113.0/24" [ 4200; 4201 ];
  announce "198.51.100.0/24" [ 4300; 4301; 4302; 4303; 4304; 4305 ];
  Topology.run_for topo 5_000_000;

  (* 5. Observe: the short path passed, the long one was filtered. Note
     that the DUT's eBGP import sees the path with the upstream AS
     prepended (3 and 7 hops). *)
  let show prefix =
    match Daemon.best_path dut (Bgp.Prefix.of_string prefix) with
    | Some path ->
      Fmt.pr "%-18s accepted (path length %d)@." prefix (List.length path)
    | None -> Fmt.pr "%-18s rejected by the extension@." prefix
  in
  print_endline "=== routing state on the DUT ===";
  show "203.0.113.0/24";
  show "198.51.100.0/24";
  let stats = Xbgp.Vmm.stats vmm in
  Fmt.pr "vmm: %d bytecode runs, %d next() calls, %d faults@." stats.runs
    stats.next_calls stats.faults
