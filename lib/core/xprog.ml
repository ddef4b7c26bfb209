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

(** Total instruction slots across all bytecodes (a rough LoC measure). *)
let total_slots t =
  List.fold_left
    (fun acc (_, code) ->
      List.fold_left (fun a i -> a + Ebpf.Insn.slots i) acc code)
    0 t.bytecodes
