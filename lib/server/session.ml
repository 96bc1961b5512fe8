(** Per-client sessions and incremental invalidation planning (see the
    interface). *)

module Summary_cache = Vrp_cache.Summary_cache
module Digest_key = Vrp_cache.Digest_key

type session = {
  sid : string;
  owner : t;
  lock : Mutex.t;
  cache : Summary_cache.t;
  (* source name -> (function, SSA digest) of the last submission *)
  digests : (string, (string * string) list) Hashtbl.t;
  mutable last_used : int;  (* [t.clock] at the last lookup: the LRU order *)
  mutable folded : Summary_cache.counters option;
      (* once removed from the table: the counters already in [retired] *)
}

and t = {
  table : (string, session) Hashtbl.t;
  table_lock : Mutex.t;
  max_sessions : int;
  mutable clock : int;
      (* counts lookups; a wall clock can read the same time twice in a row *)
  mutable retired : Summary_cache.counters;  (* caches of sessions gone *)
}

let create ?(max_sessions = 512) () =
  if max_sessions < 1 then invalid_arg "Session.create: max_sessions must be >= 1";
  { table = Hashtbl.create 8; table_lock = Mutex.create (); max_sessions; clock = 0;
    retired = Summary_cache.zero_counters () }

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Under the table lock. A removed session's cache counters move into
   [retired], so the daemon-wide total never drops. A request still running
   on the detached record adds its traffic when it ends (see [with_lock]). *)
let fold_locked t s =
  let now = Summary_cache.counters s.cache in
  let before = Option.value s.folded ~default:(Summary_cache.zero_counters ()) in
  t.retired <- Summary_cache.sum t.retired (Summary_cache.delta ~before now);
  s.folded <- Some now

let remove_locked t s =
  Hashtbl.remove t.table s.sid;
  fold_locked t s

(* The table is bounded so a client minting fresh session ids (or millions
   of clients each minting one) cannot grow daemon memory without bound:
   admitting a new session at capacity evicts the least-recently-used one.
   An evicted session's live handles stay valid — its in-flight request
   completes on the detached record; only the warm state is lost, and a
   later request under that id starts fresh. *)
let evict_lru_locked t =
  let victim =
    Hashtbl.fold
      (fun _ s acc ->
        match acc with
        | Some v when v.last_used <= s.last_used -> acc
        | _ -> Some s)
      t.table None
  in
  Option.iter (remove_locked t) victim

let find_or_create t sid =
  locked t.table_lock (fun () ->
      t.clock <- t.clock + 1;
      match Hashtbl.find_opt t.table sid with
      | Some s ->
        s.last_used <- t.clock;
        s
      | None ->
        if Hashtbl.length t.table >= t.max_sessions then evict_lru_locked t;
        let s =
          {
            sid;
            owner = t;
            lock = Mutex.create ();
            cache = Summary_cache.create ();
            digests = Hashtbl.create 4;
            last_used = t.clock;
            folded = None;
          }
        in
        Hashtbl.replace t.table sid s;
        s)

let drop t sid =
  locked t.table_lock (fun () ->
      match Hashtbl.find_opt t.table sid with
      | Some s ->
        remove_locked t s;
        true
      | None -> false)

let count t = locked t.table_lock (fun () -> Hashtbl.length t.table)

let ids t =
  locked t.table_lock (fun () ->
      Hashtbl.fold (fun sid _ acc -> sid :: acc) t.table [] |> List.sort compare)

let evict_all t =
  let sessions =
    locked t.table_lock (fun () ->
        Hashtbl.fold (fun _ s acc -> s :: acc) t.table [])
  in
  List.fold_left
    (fun (acc : Summary_cache.evicted) s ->
      let e = Summary_cache.evict_memory s.cache in
      {
        results = acc.results + e.results;
        compiled = acc.compiled + e.compiled;
        slots = acc.slots + e.slots;
      })
    { Summary_cache.results = 0; compiled = 0; slots = 0 }
    sessions

let cache_totals t =
  locked t.table_lock (fun () ->
      Hashtbl.fold
        (fun _ s acc -> Summary_cache.sum acc (Summary_cache.counters s.cache))
        t.table t.retired)

let id s = s.sid
let cache s = s.cache
let with_lock s f =
  locked s.lock (fun () ->
      Fun.protect f ~finally:(fun () ->
          locked s.owner.table_lock (fun () ->
              if Option.is_some s.folded then fold_locked s.owner s)))

type plan = {
  fresh : bool;
  functions : int;
  changed : string list;
  dirty : string list;
  reused : string list;
}

(* Names reachable from [seeds] through the static call graph — the
   functions downstream of an edit. *)
let descendants keys seeds =
  let seen = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      Option.iter
        (fun (k : Digest_key.fn_key) -> List.iter visit k.Digest_key.callees)
        (Hashtbl.find_opt keys name)
    end
  in
  List.iter visit seeds;
  seen

let plan s ~name keys =
  let now =
    Hashtbl.fold (fun f (k : Digest_key.fn_key) acc -> (f, k.Digest_key.digest) :: acc) keys []
    |> List.sort compare
  in
  let prev = Hashtbl.find_opt s.digests name in
  Hashtbl.replace s.digests name now;
  match prev with
  | None ->
    {
      fresh = true;
      functions = List.length now;
      changed = List.map fst now;
      dirty = List.map fst now;
      reused = [];
    }
  | Some prev ->
    let changed =
      List.filter_map
        (fun (fname, digest) ->
          match List.assoc_opt fname prev with
          | Some d when String.equal d digest -> None
          | _ -> Some fname)
        now
    in
    let dirty_set = descendants keys changed in
    let dirty = List.filter (fun (f, _) -> Hashtbl.mem dirty_set f) now in
    let reused = List.filter (fun (f, _) -> not (Hashtbl.mem dirty_set f)) now in
    {
      fresh = false;
      functions = List.length now;
      changed;
      dirty = List.map fst dirty;
      reused = List.map fst reused;
    }
