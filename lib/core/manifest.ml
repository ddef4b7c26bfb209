(* The deployment manifest (§2.1): "the VMM is initialized with a manifest
   containing the extension bytecodes and the points where they must be
   inserted [...] the manifest defines in which order they are executed".

   Bytecode artifacts themselves are looked up by program name in a
   registry (in this repository, [Xprogs.registry]); the manifest is the
   small operator-editable text that decides what runs where:

     # GeoLoc on the edge routers
     program geoloc
     attach geoloc receive  BGP_RECEIVE_MESSAGE 0
     attach geoloc import   BGP_INBOUND_FILTER  10
*)

type attachment = {
  program : string;
  bytecode : string;
  point : Api.point;
  order : int;
}

type t = {
  programs : string list;
  attachments : attachment list;
  maps : (string * Ebpf.Map.spec) list;
      (** per-program map declarations ([map] directives); when a
          program has any, they replace the program's built-in specs at
          [load] time *)
}

let empty = { programs = []; attachments = []; maps = [] }
let v ~programs ~attachments = { programs; attachments; maps = [] }

(* the record is public: callers add map declarations with [with_maps]
   or a record update *)
let with_maps maps t = { t with maps }

(* --- text form --- *)

let to_string t =
  let b = Buffer.create 256 in
  List.iter (fun p -> Buffer.add_string b ("program " ^ p ^ "\n")) t.programs;
  List.iter
    (fun (p, (m : Ebpf.Map.spec)) ->
      Buffer.add_string b
        (Printf.sprintf "map %s %s %s %d %d %d\n" p m.name
           (Ebpf.Map.kind_name m.kind) m.key_size m.value_size m.max_entries))
    t.maps;
  List.iter
    (fun a ->
      Buffer.add_string b
        (Printf.sprintf "attach %s %s %s %d\n" a.program a.bytecode
           (Api.point_name a.point) a.order))
    t.attachments;
  Buffer.contents b

let parse (s : string) : (t, string) result =
  let err line fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt
  in
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok acc
    | line :: rest -> (
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let words =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun w -> w <> "")
      in
      match words with
      | [] -> go (lineno + 1) acc rest
      | [ "program"; name ] ->
        go (lineno + 1) { acc with programs = name :: acc.programs } rest
      | "map" :: program :: name :: kind_s :: key_s :: value_s :: entries_s
        :: mode -> (
        match mode with
        | [] -> (
          match
            ( Ebpf.Map.kind_of_name kind_s,
              int_of_string_opt key_s,
              int_of_string_opt value_s,
              int_of_string_opt entries_s )
          with
          | Some kind, Some key_size, Some value_size, Some max_entries -> (
            let spec =
              { Ebpf.Map.name; kind; key_size; value_size; max_entries }
            in
            match Ebpf.Map.validate spec with
            | Ok () ->
              go (lineno + 1)
                { acc with maps = (program, spec) :: acc.maps }
                rest
            | Error e -> err lineno "%s" e)
          | None, _, _, _ -> err lineno "unknown map kind %S" kind_s
          | _ -> err lineno "bad map sizes %S %S %S" key_s value_s entries_s)
        | m :: _ -> err lineno "bad map mode %S" m)
      | [ "attach"; program; bytecode; point_s; order_s ] -> (
        match (Api.point_of_name point_s, int_of_string_opt order_s) with
        | Some point, Some order ->
          let a = { program; bytecode; point; order } in
          go (lineno + 1) { acc with attachments = a :: acc.attachments } rest
        | None, _ -> err lineno "unknown insertion point %S" point_s
        | _, None -> err lineno "bad order %S" order_s)
      | w :: _ -> err lineno "unknown directive %S" w)
  in
  match go 1 empty lines with
  | Ok t ->
    Ok
      {
        programs = List.rev t.programs;
        attachments = List.rev t.attachments;
        maps = List.rev t.maps;
      }
  | e -> e

(** Apply a manifest to a VMM: register every listed program (resolved
    through [registry]), applying its [map] declarations, and attach its
    bytecodes. Stops at the first error, leaving earlier registrations in
    place. *)
let load vmm ~registry t : (unit, string) result =
  let ( let* ) = Result.bind in
  let rec register_all = function
    | [] -> Ok ()
    | name :: rest -> (
      match registry name with
      | None -> Error (Printf.sprintf "unknown program %S" name)
      | Some (prog : Xprog.t) ->
        (* [map] directives for this program replace its built-in
           specs wholesale: the operator declares the sizes they are
           willing to host, exactly like the helper whitelist *)
        let prog =
          match
            List.filter_map
              (fun (p, s) -> if p = name then Some s else None)
              t.maps
          with
          | [] -> prog
          | maps -> { prog with Xprog.maps }
        in
        let* () = Vmm.register vmm prog in
        register_all rest)
  in
  let rec attach_all = function
    | [] -> Ok ()
    | a :: rest ->
      let* () =
        Vmm.attach vmm ~program:a.program ~bytecode:a.bytecode ~point:a.point
          ~order:a.order
      in
      attach_all rest
  in
  let* () = register_all t.programs in
  attach_all t.attachments
