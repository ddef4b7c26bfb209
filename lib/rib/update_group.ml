(* Update groups: the encode-once / fan-out-many export engine.

   BGP implementations discovered long ago (BIRD's "channels", FRR's
   update-groups, JunOS's out-queues) that at full-table scale the
   dominant export cost is not deciding *what* to send but encoding it
   once per peer. Peers whose outbound policy provably produces the same
   bytes can share one adj-RIB-out and one encoded UPDATE stream.

   This module is the daemon-neutral core: it knows nothing about wire
   encoding or sessions. A daemon

   - [join]s each synced peer under a string key capturing everything
     export-relevant (peer type, reflection role, attached xprog chains
     via the signature of {!Vmm.summary}); peers with equal keys land in one
     group;
   - feeds each Loc-RIB change through [route_update] with the export
     result computed ONCE for a representative member;
   - drains [take_classes] at flush time: members whose pending event
     streams are bytewise identical come back as one class, so the
     daemon encodes the class stream once and fans the frames out.

   Correctness of sharing one export evaluation rests on the caller
   only grouping peers whose outbound chains are peer-blind
   ({!Vmm.summary}); peer-dependent chains get singleton "solo"
   groups and flow through the very same machinery, which then behaves
   exactly as a per-peer Adj-RIB-Out would.

   Split horizon makes streams per-member even inside a group: the
   member that sourced a route must not receive it. Events therefore
   carry a target spec ([All_except source] / [Only member]) instead of
   assuming broadcast. Late joiners are handled with per-member join
   serials: an event only applies to members that joined before it was
   enqueued, so a catch-up stream for the joiner cannot duplicate
   broadcasts that were already pending. *)

type target =
  | All_except of int
      (** every member except the named one (−1 or a non-member index
          means genuinely everyone) *)
  | Only of int  (** exactly the named member *)

type 'attrs event =
  | Adv of { prefix : Bgp.Prefix.t; attrs : 'attrs; targets : target }
  | Wd of { prefix : Bgp.Prefix.t; targets : target }

type 'attrs group = {
  key : string;
  mutable members : (int * int) list;
      (* (peer index, join serial), ascending by index; an event with
         serial [s] applies to a member iff its join serial <= s *)
  rib : ('attrs * int) Ptrie_core.t;
      (* the shared adj-RIB-out: best export plus the member index the
         route must be withheld from (its source; -1 when the source is
         not a member) *)
  mutable events : 'attrs event list;  (* newest first *)
  mutable serial : int;  (* events ever enqueued on this group *)
}

type 'attrs t = {
  equal : 'attrs -> 'attrs -> bool;
  daemon : string;
  groups : (string, 'attrs group) Hashtbl.t;
  mutable ordered : 'attrs group list;
      (* every live group in creation order: the daemon walks it once
         per exported prefix, so iteration must not allocate *)
  by_peer : (int, 'attrs group) Hashtbl.t;
  mutable next_id : int;
  g_active : Telemetry.Gauge.t;
  c_splits : Telemetry.Counter.t;
  c_merges : Telemetry.Counter.t;
  c_saved : Telemetry.Counter.t;
  mutable recorder : Obs.Recorder.t option;
      (** flight recorder; splits, merges and re-key moves land in it *)
}

let create ?telemetry ~daemon ~equal () =
  let tele =
    match telemetry with
    | Some t -> t
    | None -> Telemetry.create ~enabled:false ()
  in
  let labels = [ ("daemon", daemon) ] in
  {
    equal;
    daemon;
    groups = Hashtbl.create 8;
    ordered = [];
    by_peer = Hashtbl.create 8;
    next_id = 0;
    g_active =
      Telemetry.gauge tele ~help:"update groups currently active"
        ~name:"bgp_update_groups_active" ~labels ();
    c_splits =
      Telemetry.counter tele
        ~help:
          "update-group splits: a re-key moved some members out of a \
           group that kept others"
        ~name:"bgp_group_splits_total" ~labels ();
    c_merges =
      Telemetry.counter tele
        ~help:"update-group merges: members joined an existing group"
        ~name:"bgp_group_merges_total" ~labels ();
    c_saved =
      Telemetry.counter tele
        ~help:
          "UPDATE bytes never re-encoded thanks to shared fan-out \
           ((recipients - 1) x frame length)"
        ~name:"bgp_fanout_bytes_saved_total" ~labels ();
    recorder = None;
  }

let set_recorder t r = t.recorder <- r

let record_group_event t kind fields =
  match t.recorder with
  | None -> ()
  | Some r -> Obs.Recorder.record r kind (("daemon", t.daemon) :: fields)

let group_count t = Hashtbl.length t.groups
let members g = List.map fst g.members
let key g = g.key
let is_member g m = List.mem_assoc m g.members
let size g = List.length g.members

let representative g ~except =
  let rec go = function
    | [] -> None
    | (m, _) :: tl -> if m <> except then Some m else go tl
  in
  go g.members

let member_group t peer = Hashtbl.find_opt t.by_peer peer
let pending g = g.events <> []
let rib_size g = Ptrie_core.size g.rib
let rib_find g prefix = Ptrie_core.find g.rib prefix
let note_fanout_saved t n = if n > 0 then Telemetry.Counter.add t.c_saved n

(* Groups created by a re-key when the natural key is taken get a
   "#<id>" suffix; [base_key] recovers the daemon-assigned part. *)
let base_key k =
  match String.index_opt k '#' with
  | Some i -> String.sub k 0 i
  | None -> k

(* stable order (creation) so flush framing is reproducible run-to-run *)
let iter_groups t f = List.iter f t.ordered

let insert_member ms m js =
  let rec go = function
    | [] -> [ (m, js) ]
    | ((x, _) as hd) :: tl when x < m -> hd :: go tl
    | rest -> (m, js) :: rest
  in
  go ms

let new_group t ~key =
  t.next_id <- t.next_id + 1;
  let g =
    { key; members = []; rib = Ptrie_core.create (); events = []; serial = 0 }
  in
  Hashtbl.replace t.groups key g;
  t.ordered <- t.ordered @ [ g ];
  Telemetry.Gauge.add t.g_active 1;
  g

let drop_if_empty t g =
  if g.members = [] then begin
    Hashtbl.remove t.groups g.key;
    t.ordered <- List.filter (fun g' -> g' != g) t.ordered;
    Telemetry.Gauge.add t.g_active (-1)
  end

let detach_member t peer =
  match Hashtbl.find_opt t.by_peer peer with
  | None -> ()
  | Some g ->
    g.members <- List.filter (fun (m, _) -> m <> peer) g.members;
    Hashtbl.remove t.by_peer peer;
    drop_if_empty t g

let leave t ~peer = detach_member t peer

let join t ~peer ~key =
  match Hashtbl.find_opt t.by_peer peer with
  | Some g when base_key g.key = key -> g
  | previous ->
    (match previous with Some _ -> detach_member t peer | None -> ());
    let g =
      match Hashtbl.find_opt t.groups key with
      | Some g ->
        Telemetry.Counter.inc t.c_merges;
        record_group_event t Obs.Recorder.Group_merge
          [ ("peer", string_of_int peer); ("key", key) ];
        g
      | None -> new_group t ~key
    in
    g.members <- insert_member g.members peer g.serial;
    Hashtbl.replace t.by_peer peer g;
    g

let push g ev =
  g.events <- ev :: g.events;
  g.serial <- g.serial + 1

(* One Loc-RIB change, with the export already evaluated once for a
   representative member. [entry = Some (attrs, skip)] means "every
   member except [skip] should carry [attrs]"; [None] means no member
   should carry the route. Emits exactly the per-member advertise /
   withdraw transitions a per-peer Adj-RIB-Out would, collapsed into
   targeted events. *)
let route_update t g prefix entry =
  match entry with
  | None -> (
    match Ptrie_core.remove_exn g.rib prefix with
    | _, skip_old -> push g (Wd { prefix; targets = All_except skip_old })
    | exception Not_found -> ())
  | Some ((attrs, skip) as e) -> (
    match Ptrie_core.replace g.rib prefix e with
    | None -> push g (Adv { prefix; attrs; targets = All_except skip })
    | Some (attrs_old, skip_old) ->
      let changed = not (t.equal attrs attrs_old) in
      if skip = skip_old then begin
        if changed then push g (Adv { prefix; attrs; targets = All_except skip })
      end
      else begin
        (* the new source had the route and must lose it *)
        if is_member g skip then push g (Wd { prefix; targets = Only skip });
        if changed then push g (Adv { prefix; attrs; targets = All_except skip })
        else if is_member g skip_old then
          (* unchanged for everyone who had it; only the old source,
             skipped until now, needs the advertisement *)
          push g (Adv { prefix; attrs; targets = Only skip_old })
      end)

(* Catch-up for a member that just joined: the daemon re-runs its export
   per Loc-RIB best and feeds the accepted routes here in RIB order.
   Broadcast events already pending predate the member's join serial, so
   a targeted event here can never duplicate one of them. The member is
   never the entry's split-horizon source: its own candidates were
   dropped when its session closed, and export refuses a route back to
   its source. *)
let catch_up_entry g prefix attrs ~skip ~member =
  ignore (Ptrie_core.find_or_add g.rib prefix (fun _ -> (attrs, skip)));
  push g (Adv { prefix; attrs; targets = Only member })

let event_includes ev m =
  match (match ev with Adv a -> a.targets | Wd w -> w.targets) with
  | All_except s -> s <> m
  | Only k -> k = m

(* Drain the pending events into flush classes. Each class is a set of
   members whose event streams are identical, paired with those streams
   in enqueue order — the daemon encodes each class once and fans out.
   Classing is by (first applicable event, excluded-event indices), so
   the common case — every event broadcast, no split horizon inside the
   group — yields a single class of all members. *)
let take_classes g =
  match g.events with
  | [] -> []
  | evs ->
    g.events <- [];
    let arr = Array.of_list (List.rev evs) in
    let n = Array.length arr in
    let base = g.serial - n in
    let classes = Hashtbl.create 4 in
    let order = ref [] in
    List.iter
      (fun (m, js) ->
        let start = max 0 (js - base) in
        let excl = ref [] in
        for i = n - 1 downto start do
          if not (event_includes arr.(i) m) then excl := i :: !excl
        done;
        let cls = (start, !excl) in
        match Hashtbl.find_opt classes cls with
        | Some ms -> ms := m :: !ms
        | None ->
          Hashtbl.replace classes cls (ref [ m ]);
          order := cls :: !order)
      g.members;
    List.rev_map
      (fun ((start, excl) as cls) ->
        let excluded = Hashtbl.create (max 1 (List.length excl)) in
        List.iter (fun i -> Hashtbl.replace excluded i ()) excl;
        (* Splitting the chronological stream into a withdrawal list and
           an advertisement list loses inter-list ordering, and the
           daemon sends withdrawals first — so an advertisement
           superseded by a LATER withdrawal of the same prefix must be
           dropped here, or it would be delivered after that withdrawal
           and leave the receivers holding a ghost route. Every other
           event (duplicate advertisements, a withdrawal followed by a
           fresher advertisement) is kept in enqueue order, so each
           member's stream is what a per-peer queue would send. *)
        let withdrawn = Hashtbl.create 8 in
        let wds = ref [] and advs = ref [] in
        for i = n - 1 downto start do
          if not (Hashtbl.mem excluded i) then begin
            match arr.(i) with
            | Adv a ->
              if not (Hashtbl.mem withdrawn a.prefix) then
                advs := (a.prefix, a.attrs) :: !advs
            | Wd w ->
              Hashtbl.replace withdrawn w.prefix ();
              wds := w.prefix :: !wds
          end
        done;
        let ms =
          match Hashtbl.find_opt classes cls with
          | Some r -> List.rev !r
          | None -> []
        in
        (ms, !wds, !advs))
      !order

let rib_items g = Ptrie_core.to_list g.rib

let rib_equal t items g2 =
  let items2 = rib_items g2 in
  List.length items = List.length items2
  && List.for_all2
       (fun (p1, (a1, s1)) (p2, (a2, s2)) ->
         p1 = p2 && s1 = s2 && t.equal a1 a2)
       items items2

(* Re-partition after the export-relevant key of some members changed
   (an xprog was attached/detached, toggling chain signatures or group
   invariance). Must run with all queues drained — moved members carry
   their shared RIB state but not pending events.

   Members of one group wanting one new key move as a cluster: they
   merge into an existing group under that key only when its RIB equals
   theirs (same routes already sent), otherwise they seed a fresh group
   from a copy of their old RIB — no events are emitted: a chain change
   alone re-exports nothing. *)
let rekey t ~desired =
  let moving = ref [] in
  iter_groups t (fun g ->
      let clusters = Hashtbl.create 2 in
      let corder = ref [] in
      List.iter
        (fun (m, _) ->
          let want = desired m in
          if want <> base_key g.key then begin
            match Hashtbl.find_opt clusters want with
            | Some ms -> ms := m :: !ms
            | None ->
              Hashtbl.replace clusters want (ref [ m ]);
              corder := want :: !corder
          end)
        g.members;
      List.iter
        (fun want ->
          let ms = List.rev !(Hashtbl.find clusters want) in
          moving := (g, want, ms) :: !moving)
        (List.rev !corder));
  List.iter
    (fun (g, want, ms) ->
      if g.events <> [] then
        invalid_arg "Update_group.rekey: pending events (flush first)";
      let items = rib_items g in
      List.iter (fun m -> detach_member t m) ms;
      if Hashtbl.mem t.groups g.key then begin
        Telemetry.Counter.inc t.c_splits;
        record_group_event t Obs.Recorder.Group_split
          [
            ("key", g.key);
            ("moved", String.concat "," (List.map string_of_int ms));
          ]
      end;
      let candidates =
        List.filter (fun g2 -> base_key g2.key = want) t.ordered
      in
      let target =
        match List.find_opt (rib_equal t items) candidates with
        | Some g2 ->
          if g2.events <> [] then
            invalid_arg "Update_group.rekey: pending events (flush first)";
          Telemetry.Counter.inc t.c_merges;
          record_group_event t Obs.Recorder.Group_merge
            [
              ("key", g2.key);
              ("peers", String.concat "," (List.map string_of_int ms));
            ];
          g2
        | None ->
          let key =
            if Hashtbl.mem t.groups want then
              Printf.sprintf "%s#%d" want t.next_id
            else want
          in
          let g2 = new_group t ~key in
          List.iter
            (fun (p, v) -> ignore (Ptrie_core.replace g2.rib p v))
            items;
          g2
      in
      record_group_event t Obs.Recorder.Group_rekey
        [
          ("from", g.key);
          ("to", target.key);
          ("peers", String.concat "," (List.map string_of_int ms));
        ];
      List.iter
        (fun m ->
          target.members <- insert_member target.members m target.serial;
          Hashtbl.replace t.by_peer m target)
        ms)
    (List.rev !moving)
