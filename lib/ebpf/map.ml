(* eBPF maps: the persistent state store behind the map helpers.

   Three kinds, matching what real libxbgp extensions need (§2.1 of the
   paper lists maps among the services the VMM exposes to bytecode):

   - [Hash]: a bounded hash table. Inserting into a full table fails
     (the helper returns an error to the bytecode), matching
     BPF_MAP_TYPE_HASH.
   - [Lru]: like [Hash], but inserting into a full table evicts the
     least-recently-used entry instead of failing. Recency is refreshed
     by both lookups and updates, matching BPF_MAP_TYPE_LRU_HASH — which
     makes *lookups* stateful, a fact the Vmm invariance gates must
     respect.
   - [Per_peer_array]: a fixed array of [max_entries] zero-initialised
     value slots indexed by a u32 little-endian key, matching
     BPF_MAP_TYPE_ARRAY. All in-range slots always exist; out-of-range
     indices miss on lookup and fail on update.

   Keys and values cross the map boundary as immutable [string]s, so an
   entry can never alias bytecode-visible VM memory: the Vmm copies
   bytes out of the VM to build the key/value and copies the value into
   freshly allocated ephemeral heap on lookup. This module keeps its own
   counters (lookups/hits/updates/deletes/evictions, and inserts a full
   [Hash] map refused) so the Vmm can export map health through the
   telemetry registry without reaching into the representation. *)

type kind = Hash | Lru | Per_peer_array

let kind_name = function
  | Hash -> "hash"
  | Lru -> "lru"
  | Per_peer_array -> "array"

let kind_of_name = function
  | "hash" -> Some Hash
  | "lru" -> Some Lru
  | "array" -> Some Per_peer_array
  | _ -> None

type spec = {
  name : string;
  kind : kind;
  key_size : int;
  value_size : int;
  max_entries : int;
}

(* Bounds enforced at registration (and thus before any bytecode that
   touches the map can be attached). Generous but finite: a key or
   value must fit comfortably in the 512-byte eBPF stack frame the
   bytecode builds it in. *)
let max_key_size = 64
let max_value_size = 512
let max_max_entries = 65536

let validate (s : spec) : (unit, string) result =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if s.name = "" then fail "map name must be non-empty"
  else if String.exists (fun c -> c = ' ' || c = '\t' || c = '\n') s.name then
    fail "map name %S must not contain whitespace" s.name
  else if s.key_size < 1 || s.key_size > max_key_size then
    fail "map %s: key_size %d out of range [1;%d]" s.name s.key_size
      max_key_size
  else if s.value_size < 1 || s.value_size > max_value_size then
    fail "map %s: value_size %d out of range [1;%d]" s.name s.value_size
      max_value_size
  else if s.max_entries < 1 || s.max_entries > max_max_entries then
    fail "map %s: max_entries %d out of range [1;%d]" s.name s.max_entries
      max_max_entries
  else if s.kind = Per_peer_array && s.key_size <> 4 then
    fail "map %s: array maps index by a u32 key (key_size must be 4, got %d)"
      s.name s.key_size
  else Ok ()

type stats = {
  mutable lookups : int;
  mutable hits : int;
  mutable updates : int;
  mutable deletes : int;
  mutable evictions : int;
  mutable rejected : int;  (* new keys refused by a full Hash map *)
}

type entry = { mutable value : string; mutable tick : int }

type t = {
  spec : spec;
  table : (string, entry) Hashtbl.t; (* Hash / Lru *)
  slots : string array; (* Per_peer_array *)
  mutable tick : int; (* monotone recency clock (Lru) *)
  stats : stats;
}

let zero_value s = String.make s.value_size '\000'

let create (spec : spec) : t =
  (match validate spec with Ok () -> () | Error e -> invalid_arg e);
  {
    spec;
    table = Hashtbl.create 16;
    slots =
      (match spec.kind with
      | Per_peer_array -> Array.make spec.max_entries (zero_value spec)
      | Hash | Lru -> [||]);
    tick = 0;
    stats =
      { lookups = 0; hits = 0; updates = 0; deletes = 0; evictions = 0;
        rejected = 0 };
  }

let spec t = t.spec
let stats t = t.stats

(* u32 little-endian array index; [None] when the key bytes are not a
   valid in-range index. *)
let array_index t (key : string) =
  if String.length key <> 4 then None
  else
    let b i = Char.code key.[i] in
    let idx = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    if idx >= 0 && idx < t.spec.max_entries then Some idx else None

let key_of_index i =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 (i land 0xff);
  Bytes.set_uint8 b 1 ((i lsr 8) land 0xff);
  Bytes.set_uint8 b 2 ((i lsr 16) land 0xff);
  Bytes.set_uint8 b 3 ((i lsr 24) land 0xff);
  Bytes.unsafe_to_string b

let touch (t : t) (e : entry) =
  t.tick <- t.tick + 1;
  e.tick <- t.tick

let lookup t (key : string) : string option =
  t.stats.lookups <- t.stats.lookups + 1;
  if String.length key <> t.spec.key_size then None
  else
    match t.spec.kind with
    | Per_peer_array -> (
      match array_index t key with
      | Some i ->
        t.stats.hits <- t.stats.hits + 1;
        Some t.slots.(i)
      | None -> None)
    | Hash | Lru -> (
      match Hashtbl.find_opt t.table key with
      | Some e ->
        t.stats.hits <- t.stats.hits + 1;
        if t.spec.kind = Lru then touch t e;
        Some e.value
      | None -> None)

(* Evict the least-recently-used entry. O(n) scan: map sizes here are
   small (hundreds), and keeping the representation a plain Hashtbl
   keeps [dump] and the model-based tests honest. *)
let evict_lru t =
  let victim : (string * entry) option ref = ref None in
  Hashtbl.iter
    (fun k (e : entry) ->
      match !victim with
      | Some (_, best) when best.tick <= e.tick -> ()
      | _ -> victim := Some (k, e))
    t.table;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove t.table k;
    t.stats.evictions <- t.stats.evictions + 1
  | None -> ()

let update t (key : string) (value : string) : bool =
  if
    String.length key <> t.spec.key_size
    || String.length value <> t.spec.value_size
  then false
  else
    match t.spec.kind with
    | Per_peer_array -> (
      match array_index t key with
      | Some i ->
        t.slots.(i) <- value;
        t.stats.updates <- t.stats.updates + 1;
        true
      | None -> false)
    | Hash | Lru -> (
      match Hashtbl.find_opt t.table key with
      | Some e ->
        e.value <- value;
        if t.spec.kind = Lru then touch t e;
        t.stats.updates <- t.stats.updates + 1;
        true
      | None ->
        if Hashtbl.length t.table >= t.spec.max_entries then
          if t.spec.kind = Lru then evict_lru t else ();
        if Hashtbl.length t.table >= t.spec.max_entries then begin
          t.stats.rejected <- t.stats.rejected + 1;
          false
        end
        else begin
          t.tick <- t.tick + 1;
          Hashtbl.replace t.table key { value; tick = t.tick };
          t.stats.updates <- t.stats.updates + 1;
          true
        end)

let delete t (key : string) : bool =
  if String.length key <> t.spec.key_size then false
  else
    match t.spec.kind with
    | Per_peer_array -> (
      match array_index t key with
      | Some i when t.slots.(i) <> zero_value t.spec ->
        t.slots.(i) <- zero_value t.spec;
        t.stats.deletes <- t.stats.deletes + 1;
        true
      | _ -> false)
    | Hash | Lru ->
      if Hashtbl.mem t.table key then begin
        Hashtbl.remove t.table key;
        t.stats.deletes <- t.stats.deletes + 1;
        true
      end
      else false

let length t =
  match t.spec.kind with
  | Per_peer_array ->
    Array.fold_left
      (fun n v -> if v <> zero_value t.spec then n + 1 else n)
      0 t.slots
  | Hash | Lru -> Hashtbl.length t.table

(* Canonical, order-independent view of the contents for the fuzz
   oracles: entries sorted by key bytes. Array maps report only
   non-zero slots (a zero slot is indistinguishable from "never
   written", and the oracles compare freshly-created maps against
   long-lived ones). Recency ticks are deliberately NOT part of the
   dump: two legs that performed the same writes in a different
   interleaving may disagree on ticks, and the gates that keep
   LRU-reading chains out of batching/grouping are what make the
   entry-level comparison sound. *)
let dump t : (string * string) list =
  match t.spec.kind with
  | Per_peer_array ->
    let acc = ref [] in
    for i = Array.length t.slots - 1 downto 0 do
      if t.slots.(i) <> zero_value t.spec then
        acc := (key_of_index i, t.slots.(i)) :: !acc
    done;
    !acc
  | Hash | Lru ->
    Hashtbl.fold (fun k e acc -> (k, e.value) :: acc) t.table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

let clear t =
  Hashtbl.reset t.table;
  (match t.spec.kind with
  | Per_peer_array ->
    Array.fill t.slots 0 (Array.length t.slots) (zero_value t.spec)
  | Hash | Lru -> ());
  t.tick <- 0

let pp_spec ppf s =
  Fmt.pf ppf "%s:%s k=%d v=%d max=%d" s.name (kind_name s.kind) s.key_size
    s.value_size s.max_entries
