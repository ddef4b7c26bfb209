(* The reproducer file format.

   A finding is only useful if it can be handed around, so every failing
   case is written as a small line-oriented text file that pins the
   master seed, the case index and the surviving indices of each of the
   case's named lists after shrinking. Replaying regenerates the case
   from (seed, index) — the generator is pure — restricts it, and re-runs
   the oracle. The `classes` line pins the divergence classes the
   shrinker preserved, so replay can tell "reproduced" from "found
   something unrelated".

     # xbgp_fuzz reproducer v2
     seed 42
     case 17
     kind star+hostile_peer+vm_soup
     perturb false
     faults 0 2
     routes 1 4
     frames
     progs 0
     classes equivalence
     note frr/interpreted ... vs bird/interpreted ...: phase flap:1: ...

   An absent list line keeps that list whole; a bare key keeps none. *)

type t = {
  seed : int;
  case_index : int;
  kind : string;
  perturb : bool;
  kept : (string * int list) list;
  classes : string list;
  note : string;
}

let magic = "# xbgp_fuzz reproducer v2"

let to_string r =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" magic;
  line "seed %d" r.seed;
  line "case %d" r.case_index;
  line "kind %s" r.kind;
  line "perturb %b" r.perturb;
  List.iter
    (fun (name, idxs) ->
      line "%s" (String.concat " " (name :: List.map string_of_int idxs)))
    r.kept;
  if r.classes <> [] then line "classes %s" (String.concat " " r.classes);
  if r.note <> "" then
    line "note %s" (String.map (fun c -> if c = '\n' then ' ' else c) r.note);
  Buffer.contents b

let of_string s =
  let words v = String.split_on_char ' ' v |> List.filter (( <> ) "") in
  match
    String.split_on_char '\n' s |> List.map String.trim
    |> List.filter (( <> ) "")
  with
  | m :: rest when m = magic -> (
    let seed = ref None and case_index = ref None and kind = ref "" in
    let perturb = ref false and kept = ref [] and classes = ref [] in
    let note = ref "" in
    try
      List.iter
        (fun l ->
          let key, v =
            match String.index_opt l ' ' with
            | None -> (l, "")
            | Some i ->
              (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
          in
          match key with
          | "seed" -> seed := Some (int_of_string v)
          | "case" -> case_index := Some (int_of_string v)
          | "kind" -> kind := v
          | "perturb" -> perturb := bool_of_string v
          | "classes" -> classes := words v
          | "note" -> note := v
          | name when List.mem name Config_gen.lists ->
            kept := (name, List.map int_of_string (words v)) :: !kept
          | _ -> failwith ("unknown key: " ^ key))
        rest;
      match (!seed, !case_index) with
      | Some seed, Some case_index ->
        Ok
          {
            seed;
            case_index;
            kind = !kind;
            perturb = !perturb;
            kept = List.rev !kept;
            classes = !classes;
            note = !note;
          }
      | _ -> Error "missing seed or case line"
    with Failure e | Invalid_argument e -> Error e)
  | _ -> Error "not an xbgp_fuzz reproducer (bad magic line)"

(* The kind check catches a generator change that would make the
   reproducer silently replay some other case. *)
let case_of r =
  let c = Config_gen.case ~seed:r.seed ~index:r.case_index in
  let got = String.concat "+" (Config_gen.kinds c) in
  if got <> r.kind then
    Error
      (Printf.sprintf
         "reproducer names kind %s but (seed %d, case %d) generates %s — \
          generator version mismatch?"
         r.kind r.seed r.case_index got)
  else Ok (Config_gen.restrict r.kept c)

(* --- files --- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let save ~dir r =
  let path =
    Filename.concat dir (Printf.sprintf "repro-s%d-c%d.txt" r.seed r.case_index)
  in
  match
    mkdir_p dir;
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (to_string r))
  with
  | () -> Ok path
  | exception Sys_error e -> Error e

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e
