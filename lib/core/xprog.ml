(* An xBGP program: the deployable unit an operator ships to their routers.

   One program groups several bytecodes (the GeoLoc use case of Fig. 2 is
   four bytecodes attached to four insertion points), the maps and the
   persistent scratch memory they share, and the helper whitelist the
   manifest declares for them. Bytecodes of the same program share state;
   distinct programs are fully isolated from each other (§2.1). *)

type map_spec = Ebpf.Map.spec = {
  name : string;
  kind : Ebpf.Map.kind;
  key_size : int;
  value_size : int;
  max_entries : int;
}

(* Spec builder for the common case: a small anonymous hash map. [v]
   names anonymous maps "map<i>" by declaration index. [shared] is
   ignored: every map is one instance per program. *)
let map ?(name = "") ?(kind = Ebpf.Map.Hash) ?(max_entries = 1024)
    ?shared:_ ~key_size ~value_size () =
  { name; kind; key_size; value_size; max_entries }

type t = {
  name : string;
  bytecodes : (string * Ebpf.Insn.t list) list;  (** entry name -> code *)
  maps : map_spec list;  (** referenced by index from bytecode *)
  scratch_size : int;  (** persistent memory shared by the bytecodes *)
  allowed_helpers : int list option;
      (** helper whitelist ([None] = unrestricted); enforced by the
          verifier at registration time *)
}

let v ?(maps = []) ?(scratch_size = 0) ?allowed_helpers ~name bytecodes =
  if bytecodes = [] then invalid_arg "Xprog.v: no bytecodes";
  let maps =
    List.mapi
      (fun i (m : map_spec) ->
        let m =
          if m.name = "" then { m with name = Printf.sprintf "map%d" i }
          else m
        in
        match Ebpf.Map.validate m with
        | Ok () -> m
        | Error e -> invalid_arg ("Xprog.v: " ^ e))
      maps
  in
  if scratch_size < 0 then invalid_arg "Xprog.v: negative scratch size";
  { name; bytecodes; maps; scratch_size; allowed_helpers }

let bytecode t name = List.assoc_opt name t.bytecodes

(* --- batch-dispatch analysis ---

   A conservative static summary of one bytecode's dispatch behaviour,
   used by the hosts to decide whether one run's verdict can be shared
   across a batch (every prefix of an UPDATE's NLRI list shares the
   peer and the attribute set — if the bytecode provably never looks at
   the prefix and has no per-call observable state, running it once per
   UPDATE is indistinguishable from running it once per prefix).

   The analysis is linear over the slot stream: the constant in R1 is
   tracked to resolve which argument ids [h_get_arg]/[h_arg_len] fetch,
   and is discarded at every jump target (a value arriving over a
   control-flow edge is unknown) and after every call (R1–R5 are
   caller-saved). Anything unresolvable degrades to "unknown", never to
   a wrong answer. *)

type dispatch_summary = {
  arg_reads : int list option;
      (** argument ids the bytecode may fetch; [None] = statically
          unresolvable (treat as "could read any argument") *)
  effectful : bool;
      (** the bytecode has per-call observable effects beyond its return
          value and its route-attribute edits: map writes, RIB
          injection, message-buffer writes, logging *)
  helpers : int list;
      (** every helper id the bytecode calls. [effectful] is a
          batch-oriented digest of this set; the update-group engine
          needs the raw set because its invariance question is different
          (e.g. [h_get_peer_info] is batchable — a batch shares the peer
          — yet peer-dependent, and [h_write_buf] is effectful yet
          exactly what the encode point is for) *)
  map_reads : int list option;
      (** map indices the bytecode may pass to [h_map_lookup]; [None] =
          statically unresolvable (treat as "could read any map"). The
          batch gate needs the indices, not just the helper id, because
          a lookup on an LRU map refreshes recency — a write in
          disguise — while a lookup on a hash or array map is pure. *)
  map_writes : int list option;
      (** map indices the bytecode may pass to
          [h_map_update]/[h_map_delete]; [None] = unresolvable. A
          bytecode with [map_writes <> Some []] makes the number of runs
          observable and must never be batch-shared or update-grouped. *)
}

(* Helpers whose effect is confined to the run's return value, the
   ephemeral heap, or the shared route record (attribute edits are
   applied once and shared by the whole batch, exactly like the
   converted attribute view). Everything else — map writes, rib_add,
   write_buf, logging — makes the number of runs observable. *)
let batchable_helpers =
  [
    Api.h_next;
    Api.h_get_arg;
    Api.h_arg_len;
    Api.h_get_peer_info;
    Api.h_get_nexthop;
    Api.h_get_attr;
    Api.h_set_attr;
    Api.h_add_attr;
    Api.h_remove_attr;
    Api.h_get_xtra;
    Api.h_memalloc;
    Api.h_htonl;
    Api.h_htons;
    Api.h_map_lookup;
  ]

let dispatch_summary code =
  let jump_targets = Hashtbl.create 16 in
  let pos = ref 0 in
  List.iter
    (fun insn ->
      (match insn with
      | Ebpf.Insn.Ja off -> Hashtbl.replace jump_targets (!pos + 1 + off) ()
      | Ebpf.Insn.Jcond (_, _, _, _, off) ->
        Hashtbl.replace jump_targets (!pos + 1 + off) ()
      | _ -> ());
      pos := !pos + Ebpf.Insn.slots insn)
    code;
  let reads = ref [] in
  let unknown = ref false in
  let mreads = ref [] in
  let mreads_unknown = ref false in
  let mwrites = ref [] in
  let mwrites_unknown = ref false in
  let effectful = ref false in
  let helpers = ref [] in
  let r1 = ref None in
  let pos = ref 0 in
  List.iter
    (fun insn ->
      if Hashtbl.mem jump_targets !pos then r1 := None;
      (match insn with
      | Ebpf.Insn.Alu (_, Ebpf.Insn.Mov, Ebpf.Insn.R1, Ebpf.Insn.Imm v) ->
        r1 := Some (Int32.to_int v)
      | Ebpf.Insn.Lddw (Ebpf.Insn.R1, v) -> r1 := Some (Int64.to_int v)
      | Ebpf.Insn.Alu (_, _, Ebpf.Insn.R1, _)
      | Ebpf.Insn.Endian (_, Ebpf.Insn.R1, _)
      | Ebpf.Insn.Ldx (_, Ebpf.Insn.R1, _, _) ->
        r1 := None
      | Ebpf.Insn.Call id ->
        if id = Api.h_get_arg || id = Api.h_arg_len then begin
          match !r1 with
          | Some a -> if not (List.mem a !reads) then reads := a :: !reads
          | None -> unknown := true
        end;
        if id = Api.h_map_lookup then begin
          match !r1 with
          | Some m -> if not (List.mem m !mreads) then mreads := m :: !mreads
          | None -> mreads_unknown := true
        end;
        if id = Api.h_map_update || id = Api.h_map_delete then begin
          match !r1 with
          | Some m ->
            if not (List.mem m !mwrites) then mwrites := m :: !mwrites
          | None -> mwrites_unknown := true
        end;
        if not (List.mem id batchable_helpers) then effectful := true;
        if not (List.mem id !helpers) then helpers := id :: !helpers;
        r1 := None
      | _ -> ());
      pos := !pos + Ebpf.Insn.slots insn)
    code;
  {
    arg_reads = (if !unknown then None else Some !reads);
    effectful = !effectful;
    helpers = List.rev !helpers;
    map_reads = (if !mreads_unknown then None else Some (List.rev !mreads));
    map_writes = (if !mwrites_unknown then None else Some (List.rev !mwrites));
  }

(** Total instruction slots across all bytecodes (a rough LoC measure). *)
let total_slots t =
  List.fold_left
    (fun acc (_, code) ->
      List.fold_left (fun a i -> a + Ebpf.Insn.slots i) acc code)
    0 t.bytecodes
