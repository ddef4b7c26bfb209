(* The shared measurement substrate (see telemetry.mli for the contract).

   Implementation notes:

   - Counters and gauges are bare mutable ints behind a handle; hot paths
     obtain the handle once (registry lookup interns on (name, sorted
     labels)) and pay one store per event, unconditionally.
   - Histograms are 64 log2 buckets in a flat int array; [observe] is a
     bit-scan plus two stores, but callers gate it on [enabled] because
     the *data* is only wanted when someone will export it.
   - The tracer keeps finished spans in a preallocated circular array;
     wrap-around drops the oldest span and counts it, so a long run can
     never grow memory without bound.
   - Both clocks are plain [unit -> int] references so the library
     depends on nothing: the simulator injects its deterministic
     microsecond clock, hosts with a real clock inject nanoseconds. *)

(* --- metric primitives --- *)

module Counter = struct
  type t = { mutable v : int }

  let make () = { v = 0 }
  let inc c = c.v <- c.v + 1
  let add c n = c.v <- c.v + n
  let value c = c.v
end

module Gauge = struct
  type t = { mutable v : int; mutable hwm : int }

  let make () = { v = 0; hwm = 0 }

  let set g v =
    g.v <- v;
    if v > g.hwm then g.hwm <- v

  let add g n = set g (g.v + n)
  let value g = g.v
  let max_value g = g.hwm
end

module Histogram = struct
  (* bucket 0: v <= 0; bucket k >= 1: 2^(k-1) <= v <= 2^k - 1 *)
  let buckets = 64

  type t = {
    counts : int array;
    mutable total : int;
    mutable sum : int;
  }

  let make () = { counts = Array.make buckets 0; total = 0; sum = 0 }

  let bucket_index v =
    if v <= 0 then 0
    else begin
      (* number of significant bits = 1 + floor(log2 v) *)
      let k = ref 0 and x = ref v in
      while !x > 0 do
        incr k;
        x := !x lsr 1
      done;
      !k
    end

  (* saturate at [max_int]: OCaml ints carry 62 value bits, so
     [1 lsl k] overflows for the top buckets *)
  let bucket_upper k =
    if k <= 0 then 0 else if k >= 62 then max_int else (1 lsl k) - 1

  let observe h v =
    let k = bucket_index v in
    h.counts.(k) <- h.counts.(k) + 1;
    h.total <- h.total + 1;
    h.sum <- h.sum + max v 0

  let count h = h.total
  let sum h = h.sum
  let bucket_count h k = if k >= 0 && k < buckets then h.counts.(k) else 0

  let merge_into ~dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.total <- dst.total + src.total;
    dst.sum <- dst.sum + src.sum

  let percentile h p =
    if h.total = 0 then 0
    else begin
      let p = Float.max 0. (Float.min 100. p) in
      let rank =
        max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int h.total)))
      in
      let k = ref 0 and seen = ref 0 in
      (try
         for i = 0 to buckets - 1 do
           seen := !seen + h.counts.(i);
           if !seen >= rank then begin
             k := i;
             raise Exit
           end
         done
       with Exit -> ());
      bucket_upper !k
    end

  let p50 h = percentile h 50.
  let p99 h = percentile h 99.
end

(* --- the registry --- *)

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_hist of Histogram.t

type family = {
  fname : string;
  help : string;
  kind : [ `Counter | `Gauge | `Histogram ];
  instances : (string, (string * string) list * metric) Hashtbl.t;
      (* keyed by the serialized sorted label set *)
}

module Span = struct
  type t = {
    id : int;
    parent : int;
    name : string;
    mutable tags : (string * string) list;
    ts_us : int;
    mutable dur_us : int;
    ts_ns : int;
    mutable dur_ns : int;
  }

  let tag s k = List.assoc_opt k s.tags
end

let dummy_span : Span.t =
  {
    id = 0;
    parent = 0;
    name = "";
    tags = [];
    ts_us = 0;
    dur_us = 0;
    ts_ns = 0;
    dur_ns = 0;
  }

type t = {
  mutable enabled : bool;
  mutable sample_n : int;  (* record 1 span in [sample_n]; 1 = every span *)
  mutable sample_tick : int;
  families : (string, family) Hashtbl.t;
  mutable clock_us : unit -> int;
  mutable clock_ns : unit -> int;
  (* tracer *)
  ring : Span.t array;
  capacity : int;
  mutable ring_head : int;  (* next write slot *)
  mutable ring_len : int;
  mutable dropped : int;
  mutable next_id : int;
  mutable open_stack : int list;  (* ids of open spans, innermost first *)
}

let default_ns () = int_of_float (Sys.time () *. 1e9)

let create ?(enabled = true) ?(ring_capacity = 4096) () =
  let capacity = max 1 ring_capacity in
  {
    enabled;
    sample_n = 1;
    sample_tick = 0;
    families = Hashtbl.create 32;
    clock_us = (fun () -> 0);
    clock_ns = default_ns;
    ring = Array.make capacity dummy_span;
    capacity;
    ring_head = 0;
    ring_len = 0;
    dropped = 0;
    next_id = 1;
    open_stack = [];
  }

let enabled t = t.enabled
let set_enabled t e = t.enabled <- e

let set_span_sampling t n =
  t.sample_n <- max 1 n;
  t.sample_tick <- 0

let span_sampling t = t.sample_n

(* One shared deterministic tick stream: every would-be expensive event
   (a span, a helper-latency measurement) consumes a tick and records
   only when its tick is the [sample_n]-th. Counters never consult this —
   they are always exact. *)
let sample t =
  t.enabled
  && (t.sample_n <= 1
     ||
     let tick = t.sample_tick + 1 in
     if tick >= t.sample_n then begin
       t.sample_tick <- 0;
       true
     end
     else begin
       t.sample_tick <- tick;
       false
     end)
let set_clock_us t f = t.clock_us <- f
let set_clock_ns t f = t.clock_ns <- f
let now_us t = t.clock_us ()
let now_ns t = t.clock_ns ()

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let label_key labels =
  String.concat "\x00"
    (List.concat_map (fun (k, v) -> [ k; v ]) labels)

let family t ~name ~help ~kind =
  match Hashtbl.find_opt t.families name with
  | Some f ->
    if f.kind <> kind then
      invalid_arg
        (Printf.sprintf "Telemetry: metric %S re-registered with another kind"
           name);
    f
  | None ->
    let f = { fname = name; help; kind; instances = Hashtbl.create 8 } in
    Hashtbl.replace t.families name f;
    f

let instance t ~name ~help ~kind ~labels make =
  let f = family t ~name ~help ~kind in
  let labels = normalize_labels labels in
  let key = label_key labels in
  match Hashtbl.find_opt f.instances key with
  | Some (_, m) -> m
  | None ->
    let m = make () in
    Hashtbl.replace f.instances key (labels, m);
    m

let counter t ?(help = "") ~name ~labels () =
  match
    instance t ~name ~help ~kind:`Counter ~labels (fun () ->
        M_counter (Counter.make ()))
  with
  | M_counter c -> c
  | _ -> assert false

let gauge t ?(help = "") ~name ~labels () =
  match
    instance t ~name ~help ~kind:`Gauge ~labels (fun () ->
        M_gauge (Gauge.make ()))
  with
  | M_gauge g -> g
  | _ -> assert false

let histogram t ?(help = "") ~name ~labels () =
  match
    instance t ~name ~help ~kind:`Histogram ~labels (fun () ->
        M_hist (Histogram.make ()))
  with
  | M_hist h -> h
  | _ -> assert false

let find_metric t ~name ~labels =
  match Hashtbl.find_opt t.families name with
  | None -> None
  | Some f ->
    Option.map snd
      (Hashtbl.find_opt f.instances (label_key (normalize_labels labels)))

let counter_value t ~name ~labels =
  match find_metric t ~name ~labels with
  | Some (M_counter c) -> Counter.value c
  | _ -> 0

let histogram_count t ~name ~labels =
  match find_metric t ~name ~labels with
  | Some (M_hist h) -> Histogram.count h
  | _ -> 0

let metric_names t =
  List.sort String.compare
    (Hashtbl.fold (fun name _ acc -> name :: acc) t.families [])

(* Enumerate every instance of one metric kind, sorted by (family,
   label key) so two snapshots of the same registry line up pairwise —
   what the chaos fuzzer's monotonicity and leak oracles diff. *)
let instances_of_kind t ~kind ~value =
  Hashtbl.fold
    (fun name (f : family) acc ->
      if f.kind <> kind then acc
      else
        Hashtbl.fold
          (fun _ (labels, m) acc -> (name, labels, value m) :: acc)
          f.instances acc)
    t.families []
  |> List.sort (fun (na, la, _) (nb, lb, _) ->
         match String.compare na nb with
         | 0 -> compare la lb
         | c -> c)

let counters t =
  instances_of_kind t ~kind:`Counter ~value:(function
    | M_counter c -> Counter.value c
    | _ -> 0)

let gauges t =
  instances_of_kind t ~kind:`Gauge ~value:(function
    | M_gauge g -> Gauge.value g
    | _ -> 0)

(* --- spans --- *)

let span_begin t ?(tags = []) name : Span.t =
  if not (sample t) then dummy_span
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_stack with [] -> 0 | p :: _ -> p in
    t.open_stack <- id :: t.open_stack;
    {
      id;
      parent;
      name;
      tags;
      ts_us = t.clock_us ();
      dur_us = 0;
      ts_ns = t.clock_ns ();
      dur_ns = 0;
    }
  end

let ring_push t (s : Span.t) =
  if t.ring_len = t.capacity then begin
    (* overwrite the oldest slot *)
    t.dropped <- t.dropped + 1;
    t.ring.(t.ring_head) <- s;
    t.ring_head <- (t.ring_head + 1) mod t.capacity
  end
  else begin
    t.ring.((t.ring_head + t.ring_len) mod t.capacity) <- s;
    t.ring_len <- t.ring_len + 1
  end

let span_end t ?(tags = []) (s : Span.t) =
  if t.enabled && s.id <> 0 then begin
    s.dur_us <- max 0 (t.clock_us () - s.ts_us);
    s.dur_ns <- max 0 (t.clock_ns () - s.ts_ns);
    if tags <> [] then s.tags <- s.tags @ tags;
    (* pop this span — and any forgotten descendants — off the nesting
       stack; a span closed out of order just unwinds past the others *)
    let rec unwind = function
      | [] -> []
      | id :: rest -> if id = s.id then rest else unwind rest
    in
    if List.mem s.id t.open_stack then t.open_stack <- unwind t.open_stack;
    ring_push t s
  end

let spans t =
  List.init t.ring_len (fun i ->
      t.ring.((t.ring_head + i) mod t.capacity))

let dropped_spans t = t.dropped

let reset_spans t =
  t.ring_head <- 0;
  t.ring_len <- 0;
  t.dropped <- 0;
  t.open_stack <- []

(* --- exporters --- *)

let escape_label_value v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=%S" k (escape_label_value v))
           labels)
    ^ "}"

let sorted_instances f =
  List.sort
    (fun (k1, _) (k2, _) -> String.compare k1 k2)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) f.instances [])

let to_prometheus t =
  let b = Buffer.create 4096 in
  List.iter
    (fun name ->
      let f = Hashtbl.find t.families name in
      if f.help <> "" then
        Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" f.fname f.help);
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s %s\n" f.fname
           (match f.kind with
           | `Counter -> "counter"
           | `Gauge -> "gauge"
           | `Histogram -> "histogram"));
      List.iter
        (fun (_, (labels, m)) ->
          match m with
          | M_counter c ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %d\n" f.fname (render_labels labels)
                 (Counter.value c))
          | M_gauge g ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %d\n" f.fname (render_labels labels)
                 (Gauge.value g))
          | M_hist h ->
            let cum = ref 0 in
            for k = 0 to Histogram.buckets - 1 do
              (* only emit the buckets up to the last non-empty one; the
                 +Inf bucket always carries the full count *)
              if Histogram.bucket_count h k > 0 then begin
                cum := !cum + Histogram.bucket_count h k;
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" f.fname
                     (render_labels labels
                        ~extra:("le", string_of_int (Histogram.bucket_upper k)))
                     !cum)
              end
            done;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" f.fname
                 (render_labels labels ~extra:("le", "+Inf"))
                 (Histogram.count h));
            Buffer.add_string b
              (Printf.sprintf "%s_sum%s %d\n" f.fname (render_labels labels)
                 (Histogram.sum h));
            Buffer.add_string b
              (Printf.sprintf "%s_count%s %d\n" f.fname (render_labels labels)
                 (Histogram.count h)))
        (sorted_instances f))
    (metric_names t);
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_chrome_trace t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i (s : Span.t) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%d,\"dur\":%d,\"args\":{"
           (json_escape s.name) s.ts_us s.dur_us);
      let args =
        [ ("span_id", string_of_int s.id); ("parent", string_of_int s.parent) ]
        @ s.tags
      in
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
        args;
      Buffer.add_string b "}}")
    (spans t);
  Buffer.add_string b
    (Printf.sprintf "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":\"%d\"}}"
       t.dropped);
  Buffer.contents b

(* --- the per-xprog profile table --- *)

(* Rows come from the two histogram families the VMM maintains per
   attachment; they share a label set, so pairing is by serialized
   labels. *)
let profile_table t =
  match Hashtbl.find_opt t.families "xbgp_run_insns" with
  | None -> ""
  | Some insns_f ->
    let ns_for key =
      match Hashtbl.find_opt t.families "xbgp_run_ns" with
      | None -> None
      | Some f -> (
        match Hashtbl.find_opt f.instances key with
        | Some (_, M_hist h) -> Some h
        | _ -> None)
    in
    let rows =
      List.filter_map
        (fun (key, (labels, m)) ->
          match m with
          | M_hist h when Histogram.count h > 0 ->
            let l k = Option.value ~default:"-" (List.assoc_opt k labels) in
            let prog =
              match (l "program", l "bytecode") with
              | p, "-" -> p
              | p, b -> p ^ "/" ^ b
            in
            Some (l "point", prog, l "engine", h, ns_for key)
          | _ -> None)
        (sorted_instances insns_f)
    in
    if rows = [] then ""
    else begin
      let b = Buffer.create 1024 in
      Buffer.add_string b
        (Printf.sprintf "%-24s %-28s %-12s %8s %10s %10s %10s %10s\n" "point"
           "program" "engine" "runs" "p50 insns" "p99 insns" "p50 ns" "p99 ns");
      List.iter
        (fun (point, prog, engine, insns_h, ns_h) ->
          let pns p =
            match ns_h with
            | Some h when Histogram.count h > 0 ->
              string_of_int (Histogram.percentile h p)
            | _ -> "-"
          in
          Buffer.add_string b
            (Printf.sprintf "%-24s %-28s %-12s %8d %10d %10d %10s %10s\n" point
               prog engine
               (Histogram.count insns_h)
               (Histogram.p50 insns_h) (Histogram.p99 insns_h) (pns 50.)
               (pns 99.)))
        (List.sort compare rows);
      Buffer.contents b
    end

(* --- the shared daemon-stats snapshot --- *)

type daemon_stats = {
  mutable updates_rx : int;
  mutable routes_in : int;
  mutable withdrawals_rx : int;
  mutable import_rejected : int;
  mutable export_rejected : int;
  mutable updates_tx : int;
}
