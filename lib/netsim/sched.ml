(* Discrete-event scheduler: the clock of the simulated testbed (Fig. 3 of
   the paper is three routers in VMs; here they are three daemon instances
   driven by one deterministic event loop).

   Time is in integer microseconds. Events with equal timestamps fire in
   scheduling order (a monotonic sequence number breaks ties), so runs are
   fully deterministic. *)

type event = { time : int; seq : int; action : unit -> unit }

let dummy = { time = 0; seq = 0; action = ignore }

type t = {
  mutable now : int;
  mutable next_seq : int;
  mutable queue : event array;  (* binary min-heap on (time, seq) *)
  mutable len : int;
}

(* The heap array starts at this many slots, doubles when full and
   halves in [pop] when at most a quarter full, so after a burst drains
   the queue's memory follows the events pending, not the peak. *)
let initial_slots = 256

let create () =
  { now = 0; next_seq = 0; queue = Array.make initial_slots dummy; len = 0 }

let now t = t.now

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.queue.(i) in
  t.queue.(i) <- t.queue.(j);
  t.queue.(j) <- tmp

let push t e =
  if t.len = Array.length t.queue then begin
    let q = Array.make (2 * t.len) dummy in
    Array.blit t.queue 0 q 0 t.len;
    t.queue <- q
  end;
  t.queue.(t.len) <- e;
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if lt t.queue.(!i) t.queue.(p) then begin
      swap t !i p;
      i := p
    end
    else continue := false
  done

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.queue.(0) in
    t.len <- t.len - 1;
    t.queue.(0) <- t.queue.(t.len);
    t.queue.(t.len) <- dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let sm = ref !i in
      if l < t.len && lt t.queue.(l) t.queue.(!sm) then sm := l;
      if r < t.len && lt t.queue.(r) t.queue.(!sm) then sm := r;
      if !sm <> !i then begin
        swap t !i !sm;
        i := !sm
      end
      else continue := false
    done;
    let cap = Array.length t.queue in
    if cap > initial_slots && t.len <= cap / 4 then
      t.queue <- Array.sub t.queue 0 (cap / 2);
    Some top
  end

let peek t = if t.len = 0 then None else Some t.queue.(0)

(** Schedule [action] to run [delay] microseconds from now. *)
let after t delay action =
  if delay < 0 then invalid_arg "Sched.after: negative delay";
  let e = { time = t.now + delay; seq = t.next_seq; action } in
  t.next_seq <- t.next_seq + 1;
  push t e

(** Run a single event; false when the queue is empty. *)
let step t =
  match pop t with
  | None -> false
  | Some e ->
    t.now <- e.time;
    e.action ();
    true

(** Run until the queue drains or [until] (simulated µs) is reached.
    Returns the number of events executed. *)
let run ?until t =
  let executed = ref 0 in
  let continue = ref true in
  while !continue do
    match (until, peek t) with
    | _, None -> continue := false
    | Some limit, Some e when e.time > limit ->
      t.now <- limit;
      continue := false
    | _ -> if step t then incr executed else continue := false
  done;
  !executed

(** Run until [pred ()] holds (checked after each event) or the queue
    drains; true if the predicate was met. *)
let run_until t pred =
  let rec go () =
    if pred () then true else if step t then go () else pred ()
  in
  go ()

let pending t = t.len
