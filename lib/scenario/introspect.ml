(* The live introspection surface: `show`-style queries answered from a
   running daemon's actual state — Loc-RIB, provenance records, the
   update-group partition, eBPF map contents, the flight recorder and
   the BMP mirror. Every query has a text rendering (operator-facing)
   and a JSON rendering (machine-checkable; the CI smoke validates the
   shapes). The queries are read-only: answering one never dispatches
   extension bytecode or mutates daemon state. *)

let jstr s = "\"" ^ Telemetry.json_escape s ^ "\""

let jlist f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

let attr_to_string (a : Bgp.Attr.t) = Fmt.str "%a" Bgp.Attr.pp a

(* Map keys/values are raw binary blobs; show printable ASCII as-is and
   hex-dump the rest (keeps the JSON valid UTF-8). *)
let blob s =
  let printable c = Char.code c >= 0x20 && Char.code c < 0x7f in
  if s <> "" && String.for_all printable s then s
  else
    "0x" ^ String.concat "" (List.map (Printf.sprintf "%02x")
                               (List.map Char.code (List.init (String.length s)
                                                      (String.get s))))

(* --- show rib --- *)

let show_rib ?(json = false) d =
  let snap = Daemon.loc_snapshot d in
  if json then
    Printf.sprintf "{\"daemon\":%s,\"count\":%d,\"routes\":%s}"
      (jstr (Daemon.name d))
      (List.length snap)
      (jlist
         (fun (p, attrs) ->
           Printf.sprintf "{\"prefix\":%s,\"attrs\":%s}"
             (jstr (Bgp.Prefix.to_string p))
             (jlist (fun a -> jstr (attr_to_string a)) attrs))
         snap)
  else
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "%s: %d route(s) in Loc-RIB\n" (Daemon.name d)
         (List.length snap));
    List.iter
      (fun (p, attrs) ->
        Buffer.add_string b
          (Printf.sprintf "  %s  %s\n"
             (Bgp.Prefix.to_string p)
             (String.concat " " (List.map attr_to_string attrs))))
      snap;
    Buffer.contents b

(* --- show provenance --- *)

let show_provenance ?(json = false) d prefix =
  match Daemon.provenance d prefix with
  | Some pr ->
    if json then
      Printf.sprintf "{\"daemon\":%s,\"provenance\":%s}"
        (jstr (Daemon.name d))
        (Obs.Provenance.to_json pr)
    else Obs.Provenance.to_text pr
  | None ->
    if json then
      Printf.sprintf "{\"daemon\":%s,\"provenance\":null}"
        (jstr (Daemon.name d))
    else
      Printf.sprintf "%s: no provenance recorded for %s\n" (Daemon.name d)
        (Bgp.Prefix.to_string prefix)

(* --- show update-groups --- *)

let show_update_groups ?(json = false) d =
  let groups = Daemon.group_details d in
  if json then
    Printf.sprintf "{\"daemon\":%s,\"count\":%d,\"groups\":%s}"
      (jstr (Daemon.name d))
      (List.length groups)
      (jlist
         (fun (key, members) ->
           Printf.sprintf "{\"key\":%s,\"members\":%s}" (jstr key)
             (jlist string_of_int members))
         groups)
  else
    let b = Buffer.create 128 in
    Buffer.add_string b
      (Printf.sprintf "%s: %d update group(s)\n" (Daemon.name d)
         (List.length groups));
    List.iter
      (fun (key, members) ->
        Buffer.add_string b
          (Printf.sprintf "  %-40s members: %s\n" key
             (String.concat "," (List.map string_of_int members))))
      groups;
    Buffer.contents b

(* --- show maps --- *)

let show_maps ?(json = false) d =
  (* each map carries the inserts it refused while full, so a reached
     capacity shows next to the contents it truncated *)
  let state =
    match Daemon.vmm d with
    | Some vmm ->
      List.map
        (fun (prog, maps) ->
          ( prog,
            List.mapi
              (fun idx (m, entries) ->
                let rejected =
                  match Xbgp.Vmm.map_stats vmm ~program:prog idx with
                  | Some s -> s.Ebpf.Map.rejected
                  | None -> 0
                in
                (m, rejected, entries))
              maps ))
        (Xbgp.Vmm.map_state vmm)
    | None -> []
  in
  if json then
    Printf.sprintf "{\"daemon\":%s,\"programs\":%s}"
      (jstr (Daemon.name d))
      (jlist
         (fun (prog, maps) ->
           Printf.sprintf "{\"program\":%s,\"maps\":%s}" (jstr prog)
             (jlist
                (fun (m, rejected, entries) ->
                  Printf.sprintf "{\"map\":%s,\"rejected\":%d,\"entries\":%s}"
                    (jstr m) rejected
                    (jlist
                       (fun (k, v) ->
                         Printf.sprintf "{\"key\":%s,\"value\":%s}"
                           (jstr (blob k)) (jstr (blob v)))
                       entries))
                maps))
         state)
  else
    let b = Buffer.create 128 in
    if state = [] then
      Buffer.add_string b
        (Printf.sprintf "%s: no live eBPF maps\n" (Daemon.name d))
    else
      List.iter
        (fun (prog, maps) ->
          Buffer.add_string b (Printf.sprintf "%s/%s:\n" (Daemon.name d) prog);
          List.iter
            (fun (m, rejected, entries) ->
              Buffer.add_string b
                (Printf.sprintf "  %s (%d entries%s)\n" m (List.length entries)
                   (if rejected > 0 then
                      Printf.sprintf ", %d inserts refused: map full" rejected
                    else ""));
              List.iter
                (fun (k, v) ->
                  Buffer.add_string b
                    (Printf.sprintf "    %s = %s\n" (blob k) (blob v)))
                entries)
            maps)
        state;
    Buffer.contents b

(* --- show recorder --- *)

let show_recorder ?(json = false) ?since d =
  match Daemon.recorder d with
  | None ->
    if json then
      Printf.sprintf "{\"daemon\":%s,\"recorder\":null}" (jstr (Daemon.name d))
    else Printf.sprintf "%s: no flight recorder attached\n" (Daemon.name d)
  | Some rc ->
    if json then
      Printf.sprintf "{\"daemon\":%s,\"recorder\":%s}"
        (jstr (Daemon.name d))
        (Obs.Recorder.to_json ?since rc)
    else
      let events =
        match since with
        | Some s -> Obs.Recorder.since rc s
        | None -> Obs.Recorder.events rc
      in
      let b = Buffer.create 256 in
      Buffer.add_string b
        (Printf.sprintf "%s: flight recorder: %d event(s) held, %d dropped\n"
           (Daemon.name d)
           (Obs.Recorder.length rc)
           (Obs.Recorder.dropped rc));
      List.iter
        (fun e ->
          Buffer.add_string b ("  " ^ Obs.Recorder.event_to_text e ^ "\n"))
        events;
      Buffer.contents b

(* --- show bmp --- *)

let show_bmp ?(json = false) d =
  match Daemon.collector d with
  | None ->
    if json then
      Printf.sprintf "{\"daemon\":%s,\"bmp\":null}" (jstr (Daemon.name d))
    else Printf.sprintf "%s: no BMP collector attached\n" (Daemon.name d)
  | Some col ->
    if json then
      Printf.sprintf "{\"daemon\":%s,\"bmp\":%s}"
        (jstr (Daemon.name d))
        (Obs.Bmp.to_json col)
    else
      Printf.sprintf
        "%s: BMP mirror: %d message(s) (%d route-monitoring, %d peer-up, %d \
         peer-down), %d parse error(s)\n"
        (Daemon.name d) (Obs.Bmp.count col)
        (Obs.Bmp.count_of col Obs.Bmp.Route_monitoring)
        (Obs.Bmp.count_of col Obs.Bmp.Peer_up)
        (Obs.Bmp.count_of col Obs.Bmp.Peer_down)
        (List.length (Obs.Bmp.errors col))

let usage =
  "show queries: rib | provenance <prefix> | update-groups | maps | \
   recorder [--since SEQ] | bmp"

(* --- dispatcher --- *)

let query d ~json args =
  match args with
  | [ "rib" ] -> Ok (show_rib ~json d)
  | [ "provenance"; p ] -> (
    match Bgp.Prefix.of_string p with
    | prefix -> Ok (show_provenance ~json d prefix)
    | exception Invalid_argument _ ->
      Error (Printf.sprintf "malformed prefix %S (want a.b.c.d/len)" p))
  | [ "update-groups" ] -> Ok (show_update_groups ~json d)
  | [ "maps" ] -> Ok (show_maps ~json d)
  | [ "recorder" ] -> Ok (show_recorder ~json d)
  | [ "recorder"; "--since"; s ] -> (
    match int_of_string_opt s with
    | Some since -> Ok (show_recorder ~json ~since d)
    | None -> Error (Printf.sprintf "malformed seqno %S" s))
  | [ "bmp" ] -> Ok (show_bmp ~json d)
  | _ -> Error usage
