(* Discrete-event scheduler and pipe tests, plus the BGP session FSM over
   a simulated link. *)

let check = Alcotest.check
let check_bool = Alcotest.check Alcotest.bool

(* --- scheduler --- *)

let test_sched_ordering () =
  let s = Netsim.Sched.create () in
  let log = ref [] in
  Netsim.Sched.after s 30 (fun () -> log := 3 :: !log);
  Netsim.Sched.after s 10 (fun () -> log := 1 :: !log);
  Netsim.Sched.after s 20 (fun () -> log := 2 :: !log);
  ignore (Netsim.Sched.run s);
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !log);
  check Alcotest.int "clock at last event" 30 (Netsim.Sched.now s)

let test_sched_fifo_ties () =
  let s = Netsim.Sched.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Netsim.Sched.after s 5 (fun () -> log := i :: !log)
  done;
  ignore (Netsim.Sched.run s);
  check
    Alcotest.(list int)
    "same-time events fire in scheduling order"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !log)

let test_sched_nested () =
  (* events scheduled during execution run in the same pass *)
  let s = Netsim.Sched.create () in
  let hits = ref 0 in
  Netsim.Sched.after s 1 (fun () ->
      incr hits;
      Netsim.Sched.after s 1 (fun () -> incr hits));
  ignore (Netsim.Sched.run s);
  check Alcotest.int "nested events" 2 !hits

let test_sched_run_until_limit () =
  let s = Netsim.Sched.create () in
  let hits = ref 0 in
  for _ = 1 to 5 do
    Netsim.Sched.after s 100 (fun () -> incr hits)
  done;
  Netsim.Sched.after s 1000 (fun () -> incr hits);
  ignore (Netsim.Sched.run ~until:500 s);
  check Alcotest.int "only events before the limit" 5 !hits;
  check Alcotest.int "clock at limit" 500 (Netsim.Sched.now s);
  check Alcotest.int "pending event kept" 1 (Netsim.Sched.pending s)

let test_sched_negative_delay () =
  let s = Netsim.Sched.create () in
  Alcotest.check_raises "negative delay rejected"
    (Invalid_argument "Sched.after: negative delay") (fun () ->
      Netsim.Sched.after s (-1) ignore)

let test_sched_many_events () =
  (* heap stress: 10k events in random-ish order drain monotonically *)
  let s = Netsim.Sched.create () in
  let last = ref (-1) in
  let ok = ref true in
  for i = 0 to 9_999 do
    let t = (i * 7919) mod 10_000 in
    Netsim.Sched.after s t (fun () ->
        if Netsim.Sched.now s < !last then ok := false;
        last := Netsim.Sched.now s)
  done;
  ignore (Netsim.Sched.run s);
  check_bool "monotonic time" true !ok

(* what the burst's events fired, in order; global, so the pending
   events' closures do not reach it *)
let burst_log = Array.make 65_536 (-1)
let burst_fired = ref 0

(* A burst of 65,536 events drained to 64 gives the heap array back:
   the queue is again a few hundred words, not the 65,536 slots of its
   peak. Shrinking never reorders: every event fires by (time, then
   scheduling order). *)
let test_sched_shrinks_after_burst () =
  let n = 65_536 and left = 64 in
  let s = Netsim.Sched.create () in
  let time i = (i * 7919) mod 4096 in
  for i = 0 to n - 1 do
    Netsim.Sched.after s (time i) (fun () ->
        burst_log.(!burst_fired) <- i;
        incr burst_fired)
  done;
  for _ = 1 to n - left do
    ignore (Netsim.Sched.step s)
  done;
  check Alcotest.int "events left" left (Netsim.Sched.pending s);
  let words = Obj.reachable_words (Obj.repr s) in
  if words > 2_000 then
    Alcotest.failf "queue holds %d words after draining to %d events" words
      left;
  ignore (Netsim.Sched.run s);
  let expect =
    List.sort
      (fun a b -> compare (time a, a) (time b, b))
      (List.init n Fun.id)
  in
  check
    Alcotest.(list int)
    "pop order" expect
    (Array.to_list (Array.sub burst_log 0 !burst_fired))

(* --- pipes --- *)

let test_pipe_delivery () =
  let s = Netsim.Sched.create () in
  let a, b = Netsim.Pipe.create ~latency:50 s in
  let got = ref [] in
  Netsim.Pipe.set_receiver b (fun c -> got := Bytes.to_string c :: !got);
  Netsim.Pipe.send a (Bytes.of_string "one");
  Netsim.Pipe.send a (Bytes.of_string "two");
  ignore (Netsim.Sched.run s);
  check Alcotest.(list string) "in order" [ "one"; "two" ] (List.rev !got);
  check Alcotest.int "latency applied" 50 (Netsim.Sched.now s);
  check Alcotest.int "tx bytes" 6 (Netsim.Pipe.bytes_sent a)

let test_pipe_backlog () =
  (* chunks arriving before a receiver is installed are not lost *)
  let s = Netsim.Sched.create () in
  let a, b = Netsim.Pipe.create s in
  Netsim.Pipe.send a (Bytes.of_string "early");
  ignore (Netsim.Sched.run s);
  let got = ref [] in
  Netsim.Pipe.set_receiver b (fun c -> got := Bytes.to_string c :: !got);
  check Alcotest.(list string) "backlog flushed" [ "early" ] !got

let test_pipe_failure () =
  let s = Netsim.Sched.create () in
  let a, b = Netsim.Pipe.create s in
  let got = ref 0 in
  Netsim.Pipe.set_receiver b (fun _ -> incr got);
  Netsim.Pipe.set_up a false;
  Netsim.Pipe.send a (Bytes.of_string "lost");
  ignore (Netsim.Sched.run s);
  check Alcotest.int "dropped while down" 0 !got;
  Netsim.Pipe.set_up a true;
  Netsim.Pipe.send a (Bytes.of_string "ok");
  ignore (Netsim.Sched.run s);
  check Alcotest.int "delivered after repair" 1 !got

(* --- BGP session FSM --- *)

let null_callbacks =
  {
    Session.Fsm.on_update = (fun _ ~raw:_ -> ());
    on_established = ignore;
    on_close = ignore;
  }

let make_session_pair ?(hold = 9) s =
  let a, b = Netsim.Pipe.create s in
  let mk port local_id peer_as =
    Session.Fsm.create s port
      { Session.Fsm.local_as = 65000; local_id; peer_as; hold_time = hold }
      null_callbacks
  in
  (mk a 1 65000, mk b 2 65000)

let test_session_establishment () =
  let s = Netsim.Sched.create () in
  let sa, sb = make_session_pair s in
  Session.Fsm.start sa;
  Session.Fsm.start sb;
  ignore (Netsim.Sched.run ~until:1_000_000 s);
  check_bool "a established" true (Session.Fsm.is_established sa);
  check_bool "b established" true (Session.Fsm.is_established sb);
  check Alcotest.int "peer id learned" 2 (Session.Fsm.peer_id sa)

let test_session_wrong_as () =
  let s = Netsim.Sched.create () in
  let a, b = Netsim.Pipe.create s in
  let mk port local_id peer_as =
    Session.Fsm.create s port
      { Session.Fsm.local_as = 65000; local_id; peer_as; hold_time = 9 }
      null_callbacks
  in
  let sa = mk a 1 65099 (* expects the wrong AS *) in
  let sb = mk b 2 65000 in
  Session.Fsm.start sa;
  Session.Fsm.start sb;
  ignore (Netsim.Sched.run ~until:1_000_000 s);
  check_bool "a refused" false (Session.Fsm.is_established sa)

let test_session_hold_timer () =
  let s = Netsim.Sched.create () in
  let closed = ref false in
  let a, b = Netsim.Pipe.create s in
  let sa =
    Session.Fsm.create s a
      { Session.Fsm.local_as = 65000; local_id = 1; peer_as = 65000; hold_time = 9 }
      { null_callbacks with on_close = (fun _ -> closed := true) }
  in
  let sb =
    Session.Fsm.create s b
      { Session.Fsm.local_as = 65000; local_id = 2; peer_as = 65000; hold_time = 9 }
      null_callbacks
  in
  Session.Fsm.start sa;
  Session.Fsm.start sb;
  ignore (Netsim.Sched.run ~until:1_000_000 s);
  check_bool "established" true (Session.Fsm.is_established sa);
  (* silence the peer: the hold timer must fire within ~hold seconds *)
  Netsim.Pipe.set_up a false;
  ignore (Netsim.Sched.run ~until:((1 + 30) * 1_000_000) s);
  check_bool "session closed by hold timer" true !closed;
  check_bool "back to idle" false (Session.Fsm.is_established sa)

(* An UPDATE with one prefix, the minimal valid attribute set. *)
let one_route_update i =
  {
    Bgp.Message.update_empty with
    attrs =
      [
        Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
        Bgp.Attr.v (Bgp.Attr.As_path []);
        Bgp.Attr.v (Bgp.Attr.Next_hop 1);
      ];
    nlri = [ Bgp.Prefix.v (0x0A000000 lor (i lsl 8)) 24 ];
  }

(* Each message received moves the hold deadline but queues no event:
   the scheduler holds one hold and one keepalive event per session,
   however many messages arrive within hold_time. *)
let test_hold_timer_one_event () =
  let s = Netsim.Sched.create () in
  let sa, sb = make_session_pair ~hold:90 s in
  Session.Fsm.start sa;
  Session.Fsm.start sb;
  ignore (Netsim.Sched.run ~until:1_000_000 s);
  check_bool "established" true (Session.Fsm.is_established sb);
  let rx0, _ = Session.Fsm.stats sb and most = ref 0 in
  for i = 1 to 1000 do
    Session.Fsm.send_update sa (one_route_update i);
    ignore (Netsim.Sched.run ~until:(Netsim.Sched.now s + 1_000) s);
    most := max !most (Netsim.Sched.pending s)
  done;
  check Alcotest.int "all received" 1000 (fst (Session.Fsm.stats sb) - rx0);
  check Alcotest.int "two timer events per session" 4 !most

(* Expiry lands on the last receipt plus hold_time, to the microsecond. *)
let test_hold_timer_exact_expiry () =
  let s = Netsim.Sched.create () in
  let a, b = Netsim.Pipe.create s in
  let last_rx = ref 0 and closes = ref [] in
  let sa =
    Session.Fsm.create s a
      { Session.Fsm.local_as = 65000; local_id = 1; peer_as = 65000; hold_time = 9 }
      {
        Session.Fsm.on_update = (fun _ ~raw:_ -> last_rx := Netsim.Sched.now s);
        on_established = ignore;
        on_close = (fun _ -> closes := Netsim.Sched.now s :: !closes);
      }
  in
  let sb =
    Session.Fsm.create s b
      { Session.Fsm.local_as = 65000; local_id = 2; peer_as = 65000; hold_time = 9 }
      null_callbacks
  in
  Session.Fsm.start sa;
  Session.Fsm.start sb;
  ignore (Netsim.Sched.run ~until:500_000 s);
  check_bool "established" true (Session.Fsm.is_established sa);
  (* UPDATEs every 0.1 s until 1.5 s, then the link fails with nothing
     in flight: the first keepalive is not due before 3 s *)
  for i = 1 to 10 do
    Session.Fsm.send_update sb (one_route_update i);
    ignore (Netsim.Sched.run ~until:(500_000 + (i * 100_000)) s)
  done;
  check Alcotest.int "last UPDATE received" 1_400_100 !last_rx;
  Netsim.Pipe.set_up a false;
  ignore (Netsim.Sched.run ~until:30_000_000 s);
  check
    Alcotest.(list int)
    "closed once, at last receipt + hold_time"
    [ !last_rx + 9_000_000 ]
    !closes

(* A session closed and restarted within hold_time leaves its first
   hold event queued; that event must not expire the new handshake,
   which expires at its own deadline and queues nothing new. *)
let test_hold_timer_restart () =
  let s = Netsim.Sched.create () in
  let a, b = Netsim.Pipe.create s in
  Netsim.Pipe.set_receiver b ignore;
  let closes = ref [] in
  let sa =
    Session.Fsm.create s a
      { Session.Fsm.local_as = 65000; local_id = 1; peer_as = 65000; hold_time = 9 }
      {
        null_callbacks with
        on_close = (fun why -> closes := (Netsim.Sched.now s, why) :: !closes);
      }
  in
  (* the far end never answers: the handshake's hold timer is armed at 0
     for 9 s *)
  Session.Fsm.start sa;
  ignore (Netsim.Sched.run ~until:1_000_000 s);
  Netsim.Pipe.send b
    (Bgp.Message.encode
       (Bgp.Message.Notification { code = 6; subcode = 0; data = Bytes.empty }));
  ignore (Netsim.Sched.run ~until:5_000_000 s);
  check Alcotest.int "closed by the NOTIFICATION" 1 (List.length !closes);
  Session.Fsm.start sa;
  ignore (Netsim.Sched.run ~until:6_000_000 s);
  (* the OPEN has been delivered; only the first hold event is left *)
  check Alcotest.int "the stale event is reused" 1 (Netsim.Sched.pending s);
  ignore (Netsim.Sched.run ~until:20_000_000 s);
  check
    Alcotest.(list (pair int string))
    "expired at the restart + hold_time"
    [
      (1_000_100, "notification 6/0 received");
      (14_000_000, "hold timer expired");
    ]
    (List.rev !closes)

let test_session_update_exchange () =
  let s = Netsim.Sched.create () in
  let received = ref [] in
  let a, b = Netsim.Pipe.create s in
  let sa =
    Session.Fsm.create s a
      { Session.Fsm.local_as = 65000; local_id = 1; peer_as = 65000; hold_time = 30 }
      null_callbacks
  in
  let sb =
    Session.Fsm.create s b
      { Session.Fsm.local_as = 65000; local_id = 2; peer_as = 65000; hold_time = 30 }
      {
        null_callbacks with
        on_update =
          (fun u ~raw:_ ->
            received := List.map Bgp.Prefix.to_string u.nlri @ !received);
      }
  in
  Session.Fsm.start sa;
  Session.Fsm.start sb;
  ignore (Netsim.Sched.run ~until:1_000_000 s);
  Session.Fsm.send_update sa
    {
      Bgp.Message.update_empty with
      attrs =
        [
          Bgp.Attr.v (Bgp.Attr.Origin Bgp.Attr.Igp);
          Bgp.Attr.v (Bgp.Attr.As_path []);
          Bgp.Attr.v (Bgp.Attr.Next_hop 1);
        ];
      nlri = [ Bgp.Prefix.of_string "10.0.0.0/8" ];
    };
  ignore (Netsim.Sched.run ~until:2_000_000 s);
  check Alcotest.(list string) "update delivered" [ "10.0.0.0/8" ] !received

(* A frame whose length field lies leaves a partial frame behind; once
   the session has closed, those bytes must not swallow the OPEN of the
   next session on the same link. *)
let test_session_stale_bytes () =
  let s = Netsim.Sched.create () in
  let a, b = Netsim.Pipe.create s in
  let mk port local_id =
    Session.Fsm.create s port
      { Session.Fsm.local_as = 65000; local_id; peer_as = 65000; hold_time = 9 }
      null_callbacks
  in
  let sa = mk a 1 and sb = mk b 2 in
  Session.Fsm.start sa;
  Session.Fsm.start sb;
  ignore (Netsim.Sched.run ~until:1_000_000 s);
  check_bool "established" true (Session.Fsm.is_established sb);
  let frame ~len ~typ =
    let f = Bytes.make Bgp.Message.header_size '\xff' in
    Bytes.set_uint16_be f 16 len;
    Bytes.set_uint8 f 18 typ;
    f
  in
  (* an unknown message type closes the session; then a keepalive whose
     length field claims 40 bytes arrives at the closed end *)
  Netsim.Pipe.send a (frame ~len:Bgp.Message.header_size ~typ:9);
  ignore (Netsim.Sched.run ~until:2_000_000 s);
  check_bool "closed on the bad frame" false (Session.Fsm.is_established sb);
  Netsim.Pipe.send a (frame ~len:40 ~typ:4);
  ignore (Netsim.Sched.run ~until:3_000_000 s);
  Session.Fsm.start sa;
  Session.Fsm.start sb;
  ignore (Netsim.Sched.run ~until:4_000_000 s);
  check_bool "a re-established" true (Session.Fsm.is_established sa);
  check_bool "b re-established" true (Session.Fsm.is_established sb)

let () =
  Alcotest.run "netsim"
    [
      ( "sched",
        [
          Alcotest.test_case "ordering" `Quick test_sched_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_sched_fifo_ties;
          Alcotest.test_case "nested" `Quick test_sched_nested;
          Alcotest.test_case "run until" `Quick test_sched_run_until_limit;
          Alcotest.test_case "heap stress" `Quick test_sched_many_events;
          Alcotest.test_case "heap shrinks after a burst" `Quick
            test_sched_shrinks_after_burst;
          Alcotest.test_case "negative delay" `Quick
            test_sched_negative_delay;
        ] );
      ( "pipe",
        [
          Alcotest.test_case "delivery" `Quick test_pipe_delivery;
          Alcotest.test_case "backlog" `Quick test_pipe_backlog;
          Alcotest.test_case "failure" `Quick test_pipe_failure;
        ] );
      ( "session",
        [
          Alcotest.test_case "establishment" `Quick test_session_establishment;
          Alcotest.test_case "wrong AS refused" `Quick test_session_wrong_as;
          Alcotest.test_case "hold timer" `Quick test_session_hold_timer;
          Alcotest.test_case "hold timer: one pending event" `Quick
            test_hold_timer_one_event;
          Alcotest.test_case "hold timer: exact expiry" `Quick
            test_hold_timer_exact_expiry;
          Alcotest.test_case "hold timer: restart with a stale event pending"
            `Quick test_hold_timer_restart;
          Alcotest.test_case "update exchange" `Quick
            test_session_update_exchange;
          Alcotest.test_case "stale bytes dropped when closed" `Quick
            test_session_stale_bytes;
        ] );
    ]
