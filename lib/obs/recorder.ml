(* The flight recorder: a bounded binary ring of structured events.

   Airliners keep the last N minutes of everything; so do we. Every
   interesting state change — session FSM transitions, route
   add/replace/withdraw with provenance, update-group splits and merges,
   xprog faults and native fallbacks, map evictions — is framed into a
   preallocated byte ring. When the ring is full the *oldest whole
   records* are evicted to make room, and every eviction is counted:
   under fuzzing, "the history was truncated here" must be a fact in the
   report, never a silent hole.

   Two properties the fuzz and test layers lean on:

   - {b determinism}: the recorder never reads a wall clock. Timestamps
     come from an injectable [clock] (microseconds); scenarios inject
     [Netsim.Sched.now], so a replayed case produces a byte-identical
     recording.
   - {b bounded cost}: one [record] is a few field encodes into a
     scratch buffer plus a blit; nothing downstream of a daemon pays
     unless a recorder was actually attached (the hosts keep
     [Recorder.t option] and skip the call entirely on [None]).

   Frame layout, little-endian, designed so a reader can walk the ring
   front to back with no index structure:

     [u16 frame_len][u32 seqno][u64 ts_us][u8 kind][payload]

   where [payload] is a field list, each field
   [u8 key_len][key][u16 val_len][value]. [frame_len] covers the whole
   frame including the header. *)

type kind =
  | Session_transition
  | Route_add
  | Route_replace
  | Route_withdraw
  | Group_split
  | Group_merge
  | Group_rekey
  | Xprog_fault
  | Native_fallback
  | Map_evict
  | Map_full
  | Note  (** free-form marker (scenario phase labels, test annotations) *)

(* in [kind_code] order: the per-kind counters are indexed by code *)
let all_kinds =
  [
    Session_transition;
    Route_add;
    Route_replace;
    Route_withdraw;
    Group_split;
    Group_merge;
    Group_rekey;
    Xprog_fault;
    Native_fallback;
    Map_evict;
    Note;
    Map_full;
  ]

let kind_code = function
  | Session_transition -> 0
  | Route_add -> 1
  | Route_replace -> 2
  | Route_withdraw -> 3
  | Group_split -> 4
  | Group_merge -> 5
  | Group_rekey -> 6
  | Xprog_fault -> 7
  | Native_fallback -> 8
  | Map_evict -> 9
  | Note -> 10
  | Map_full -> 11

let kind_of_code = function
  | 0 -> Session_transition
  | 1 -> Route_add
  | 2 -> Route_replace
  | 3 -> Route_withdraw
  | 4 -> Group_split
  | 5 -> Group_merge
  | 6 -> Group_rekey
  | 7 -> Xprog_fault
  | 8 -> Native_fallback
  | 9 -> Map_evict
  | 10 -> Note
  | 11 -> Map_full
  | n -> invalid_arg (Printf.sprintf "Recorder.kind_of_code: %d" n)

let kind_name = function
  | Session_transition -> "session"
  | Route_add -> "route_add"
  | Route_replace -> "route_replace"
  | Route_withdraw -> "route_withdraw"
  | Group_split -> "group_split"
  | Group_merge -> "group_merge"
  | Group_rekey -> "group_rekey"
  | Xprog_fault -> "xprog_fault"
  | Native_fallback -> "native_fallback"
  | Map_evict -> "map_evict"
  | Map_full -> "map_full"
  | Note -> "note"

type event = {
  seq : int;
  ts_us : int;
  kind : kind;
  fields : (string * string) list;  (** in record order *)
}

type t = {
  buf : Bytes.t;
  cap : int;
  mutable head : int;  (** ring offset of the oldest frame *)
  mutable used : int;  (** live bytes in the ring *)
  mutable count : int;  (** live frames in the ring *)
  mutable next_seq : int;
  mutable clock_us : unit -> int;
  c_dropped : Telemetry.Counter.t;
  c_events : Telemetry.Counter.t array;  (** indexed by [kind_code] *)
  g_bytes : Telemetry.Gauge.t;
  scratch : Buffer.t;
}

let frame_header = 2 + 4 + 8 + 1

let default_capacity = 1 lsl 16 (* 64 KiB: thousands of events *)

let create ?(capacity = default_capacity) ?telemetry ?(name = "recorder") () =
  if capacity < 256 then invalid_arg "Recorder.create: capacity < 256";
  let tele =
    match telemetry with
    | Some t -> t
    | None -> Telemetry.create ~enabled:false ()
  in
  let labels = [ ("recorder", name) ] in
  {
    buf = Bytes.create capacity;
    cap = capacity;
    head = 0;
    used = 0;
    count = 0;
    next_seq = 0;
    clock_us = (fun () -> 0);
    c_dropped =
      Telemetry.counter tele
        ~help:"flight-recorder events evicted by ring overflow"
        ~name:"xbgp_recorder_dropped_total" ~labels ();
    c_events =
      Array.of_list
        (List.map
           (fun k ->
             Telemetry.counter tele ~help:"flight-recorder events recorded"
               ~name:"xbgp_recorder_events_total"
               ~labels:(("kind", kind_name k) :: labels)
               ())
           all_kinds);
    g_bytes =
      Telemetry.gauge tele
        ~help:"flight-recorder ring occupancy in bytes (max = high water)"
        ~name:"xbgp_recorder_bytes" ~labels ();
    scratch = Buffer.create 256;
  }

let set_clock t f = t.clock_us <- f
let dropped t = Telemetry.Counter.value t.c_dropped
let next_seq t = t.next_seq
let length t = t.count
let capacity t = t.cap

(* --- ring primitives: all offsets are mod cap, frames may wrap --- *)

let ring_read_u8 t off = Bytes.get_uint8 t.buf (off mod t.cap)

let ring_read_u16 t off =
  ring_read_u8 t off lor (ring_read_u8 t (off + 1) lsl 8)

let ring_read_u32 t off =
  ring_read_u16 t off lor (ring_read_u16 t (off + 2) lsl 16)

let ring_read_u64 t off =
  ring_read_u32 t off lor (ring_read_u32 t (off + 4) lsl 32)

let ring_write_string t off s =
  let n = String.length s in
  let off = off mod t.cap in
  let first = min n (t.cap - off) in
  Bytes.blit_string s 0 t.buf off first;
  if first < n then Bytes.blit_string s first t.buf 0 (n - first)

let ring_read_string t off n =
  let b = Bytes.create n in
  let off = off mod t.cap in
  let first = min n (t.cap - off) in
  Bytes.blit t.buf off b 0 first;
  if first < n then Bytes.blit t.buf 0 b first (n - first);
  Bytes.unsafe_to_string b

(* Evict the oldest frame. *)
let evict t =
  let len = ring_read_u16 t t.head in
  t.head <- (t.head + len) mod t.cap;
  t.used <- t.used - len;
  t.count <- t.count - 1;
  Telemetry.Counter.inc t.c_dropped

let record t kind fields =
  let b = t.scratch in
  Buffer.clear b;
  List.iter
    (fun (k, v) ->
      let kl = min (String.length k) 255
      and vl = min (String.length v) 0xFFFF in
      Buffer.add_uint8 b kl;
      Buffer.add_substring b k 0 kl;
      Buffer.add_uint16_le b vl;
      Buffer.add_substring b v 0 vl)
    fields;
  let payload = Buffer.contents b in
  let len = frame_header + String.length payload in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Telemetry.Counter.inc t.c_events.(kind_code kind);
  if len > t.cap then
    (* a frame that cannot fit even in an empty ring is itself a drop *)
    Telemetry.Counter.inc t.c_dropped
  else begin
    while t.used + len > t.cap do
      evict t
    done;
    let off = t.head + t.used in
    Buffer.clear b;
    Buffer.add_uint16_le b len;
    Buffer.add_int32_le b (Int32.of_int seq);
    Buffer.add_int64_le b (Int64.of_int (t.clock_us ()));
    Buffer.add_uint8 b (kind_code kind);
    Buffer.add_string b payload;
    ring_write_string t off (Buffer.contents b);
    t.used <- t.used + len;
    t.count <- t.count + 1;
    Telemetry.Gauge.set t.g_bytes t.used
  end

(* --- decoding --- *)

let decode_frame t off =
  let len = ring_read_u16 t off in
  let seq = ring_read_u32 t (off + 2) in
  let ts_us = ring_read_u64 t (off + 6) in
  let kind = kind_of_code (ring_read_u8 t (off + 14)) in
  let fields = ref [] in
  let p = ref (off + frame_header) in
  let stop = off + len in
  while !p < stop do
    let kl = ring_read_u8 t !p in
    let key = ring_read_string t (!p + 1) kl in
    let vl = ring_read_u16 t (!p + 1 + kl) in
    let value = ring_read_string t (!p + 3 + kl) vl in
    fields := (key, value) :: !fields;
    p := !p + 3 + kl + vl
  done;
  ({ seq; ts_us; kind; fields = List.rev !fields }, len)

let fold t f acc =
  let acc = ref acc in
  let off = ref t.head in
  for _ = 1 to t.count do
    let ev, len = decode_frame t !off in
    acc := f !acc ev;
    off := !off + len
  done;
  !acc

let events t = List.rev (fold t (fun acc ev -> ev :: acc) [])

let since t seq =
  List.rev
    (fold t (fun acc ev -> if ev.seq >= seq then ev :: acc else acc) [])

let tail ?(n = 20) t =
  let evs = fold t (fun acc ev -> ev :: acc) [] in
  let rec take k = function
    | ev :: rest when k > 0 -> ev :: take (k - 1) rest
    | _ -> []
  in
  List.rev (take n evs)

(* --- rendering --- *)

let event_to_text ev =
  let fields =
    String.concat " "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) ev.fields)
  in
  Printf.sprintf "#%d %dus %s%s" ev.seq ev.ts_us (kind_name ev.kind)
    (if fields = "" then "" else " " ^ fields)

let event_to_json ev =
  let fields =
    String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "%S:\"%s\"" (Telemetry.json_escape k)
             (Telemetry.json_escape v))
         ev.fields)
  in
  Printf.sprintf "{\"seq\":%d,\"ts_us\":%d,\"kind\":\"%s\",\"fields\":{%s}}"
    ev.seq ev.ts_us (kind_name ev.kind) fields

let to_json ?(since = 0) t =
  let evs =
    List.rev
      (fold t (fun acc ev -> if ev.seq >= since then ev :: acc else acc) [])
  in
  Printf.sprintf
    "{\"next_seq\":%d,\"dropped\":%d,\"events\":[%s]}"
    t.next_seq (dropped t)
    (String.concat "," (List.map event_to_json evs))

(* The last-N tail a fuzz divergence report attaches next to the fault
   records: one line per event, oldest first, prefixed so the report
   reads as one block. *)
let tail_lines ?(n = 20) ?(prefix = "  ") t =
  List.map (fun ev -> prefix ^ event_to_text ev) (tail ~n t)
