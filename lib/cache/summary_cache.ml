(** Content-addressed function-summary store (see the interface). *)

module Ir = Vrp_ir.Ir
module Diag = Vrp_diag.Diag
module Engine = Vrp_core.Engine
module Interproc = Vrp_core.Interproc
module Pipeline = Vrp_core.Pipeline

type counters = {
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable invalidations : int;
  mutable quarantined : int;
  mutable file_hits : int;
  mutable compile_hits : int;
  mutable compile_misses : int;
}

let zero_counters () =
  { hits = 0; disk_hits = 0; misses = 0; stores = 0; invalidations = 0;
    quarantined = 0; file_hits = 0; compile_hits = 0; compile_misses = 0 }

type reply = { out : string; err : string; code : int }

type evicted = { results : int; compiled : int; slots : int }

(* One memory-tier table holds every kind of entry, so they share one
   capacity and one eviction path. A [Compiled] entry is a function's
   checked SSA with its baseline columns, its digest and callees, and the
   slot it was stored under. The columns are a few floats per branch; the
   [Static.t] they were read from is not kept (about 4 MB of live data for
   the benchmark corpus). *)
type value =
  | Summary of Engine.t
  | Reply of reply
  | Compiled of {
      fn : Ir.fn;
      baselines : Vrp_predict.Predictor.baselines;
      fn_key : Digest_key.fn_key;
      slot : string * string;
    }
type entry = { value : value; mutable last_use : int }

(* A slot's latest (IR, config) stamp and the memory-tier keys stored under
   it: the keys a restamp drops. *)
type slot = { stamp : string; mutable keys : string list }

type t = {
  capacity : int;
  mem : (string, entry) Hashtbl.t;
  seen : (string * string, slot) Hashtbl.t;  (* by (file, function) *)
  compiled_at : (string * string, string) Hashtbl.t;
      (* slot -> key of its latest compiled entry, the one a newer drops *)
  disk_dir : string option;
  lock : Mutex.t;
  c : counters;
  mutable tick : int;
  mutable maintenance : bool;
      (* this process holds the directory lock and may sweep/evict *)
  mutable lock_fd : Unix.file_descr option;  (* held until [close] / exit *)
  fault : Diag.Fault.t option;
  mutable disk_writes : int;  (* for Corrupt_cache cadence *)
}

let is_sum_file name = Filename.check_suffix name ".sum"

let is_stale_debris name =
  (* Temp files a killed writer left behind ([KEY.sum.tmp.PID.DOMAIN]) and
     quarantined corrupt entries from earlier runs. *)
  Vrp_util.Strutil.is_infix ~affix:".sum.tmp." name
  || Filename.check_suffix name ".sum.bad"

(* Advisory exclusive lock on DIR/.lock. The holder is the maintenance
   process for the directory: only it sweeps debris and applies the disk
   eviction cap, so two concurrent [vrpc batch --cache DIR] runs cannot
   delete files out from under each other. Entry reads/writes themselves
   are lock-free — they are content-addressed and atomically renamed, so
   the worst cross-process race is a harmless double write of identical
   bytes. The lock is released when the process exits. *)
(* POSIX record locks are per-process: a second [lockf] from the same
   process would succeed (and closing either fd would drop both), so the
   cross-process [lockf] is paired with a process-local registry giving two
   in-process stores over one directory the same winner-takes-it semantics
   two processes get. Maintenance rights are held until the process exits. *)
let process_locked_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4
let process_locked_dirs_mutex = Mutex.create ()

let try_lock_dir dir =
  Mutex.lock process_locked_dirs_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock process_locked_dirs_mutex)
    (fun () ->
      if Hashtbl.mem process_locked_dirs dir then (false, None)
      else
        match
          Unix.openfile (Filename.concat dir ".lock")
            [ Unix.O_CREAT; Unix.O_RDWR ] 0o644
        with
        | exception Unix.Unix_error _ -> (false, None)
        | fd -> (
          match Unix.lockf fd Unix.F_TLOCK 0 with
          | () ->
            Hashtbl.replace process_locked_dirs dir ();
            (true, Some fd)
          | exception Unix.Unix_error _ ->
            Unix.close fd;
            (false, None)))

let sweep_debris dir =
  Array.iter
    (fun name ->
      if is_stale_debris name then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

(* Cap the disk tier at [max_mb] megabytes by deleting the oldest entries
   (mtime order) until under budget. Runs only at open, under the lock. *)
let evict_to_cap dir max_mb =
  let budget = max_mb * 1024 * 1024 in
  let entries =
    (try Sys.readdir dir with Sys_error _ -> [||])
    |> Array.to_list
    |> List.filter_map (fun name ->
           if not (is_sum_file name) then None
           else
             let path = Filename.concat dir name in
             match Unix.stat path with
             | st -> Some (st.Unix.st_mtime, st.Unix.st_size, path)
             | exception Unix.Unix_error _ -> None)
  in
  let total = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 entries in
  if total > budget then begin
    let by_age = List.sort compare entries in
    let excess = ref (total - budget) in
    List.iter
      (fun (_, sz, path) ->
        if !excess > 0 then begin
          (try Sys.remove path with Sys_error _ -> ());
          excess := !excess - sz
        end)
      by_age
  end

let create ?(memory_capacity = 4096) ?disk_dir ?max_disk_mb ?fault () =
  (match disk_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  let maintenance, lock_fd =
    match disk_dir with
    | None -> (false, None)
    | Some dir ->
      let locked, fd = try_lock_dir dir in
      if locked then begin
        sweep_debris dir;
        Option.iter (fun mb -> evict_to_cap dir (max 0 mb)) max_disk_mb
      end;
      (locked, fd)
  in
  {
    capacity = max 1 memory_capacity;
    mem = Hashtbl.create 256;
    seen = Hashtbl.create 64;
    compiled_at = Hashtbl.create 64;
    disk_dir;
    lock = Mutex.create ();
    c = zero_counters ();
    tick = 0;
    maintenance;
    lock_fd;
    fault;
    disk_writes = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let counters t =
  locked t (fun () ->
      {
        hits = t.c.hits;
        disk_hits = t.c.disk_hits;
        misses = t.c.misses;
        stores = t.c.stores;
        invalidations = t.c.invalidations;
        quarantined = t.c.quarantined;
        file_hits = t.c.file_hits;
        compile_hits = t.c.compile_hits;
        compile_misses = t.c.compile_misses;
      })

let obs_evictions =
  Vrp_obs.Metrics.counter ~help:"Summary cache memory-tier evictions"
    "vrp_cache_evictions_total"

let map2 f a b =
  {
    hits = f a.hits b.hits;
    disk_hits = f a.disk_hits b.disk_hits;
    misses = f a.misses b.misses;
    stores = f a.stores b.stores;
    invalidations = f a.invalidations b.invalidations;
    quarantined = f a.quarantined b.quarantined;
    file_hits = f a.file_hits b.file_hits;
    compile_hits = f a.compile_hits b.compile_hits;
    compile_misses = f a.compile_misses b.compile_misses;
  }

let delta ~before after = map2 ( - ) after before
let sum = map2 ( + )

let samples c =
  let counter = Vrp_obs.Metrics.counter_sample in
  [
    counter ~help:"Summary cache hits (memory or disk)" "vrp_cache_hits_total" c.hits;
    counter ~help:"Summary cache hits served from the disk tier" "vrp_cache_disk_hits_total"
      c.disk_hits;
    counter ~help:"Summary cache misses" "vrp_cache_misses_total" c.misses;
    counter ~help:"Summary cache stores" "vrp_cache_stores_total" c.stores;
    counter ~help:"Summary cache invalidations (stamp changes, stale or corrupt entries)"
      "vrp_cache_invalidations_total" c.invalidations;
    counter ~help:"Corrupt summary files quarantined" "vrp_cache_quarantined_total"
      c.quarantined;
    counter ~help:"Replies served whole from the file-level tier" "vrp_cache_file_hits_total"
      c.file_hits;
    counter ~help:"Functions whose checked SSA was served by the compile memo"
      "vrp_cache_compile_hits_total" c.compile_hits;
    counter ~help:"Functions compiled because the compile memo missed"
      "vrp_cache_compile_misses_total" c.compile_misses;
  ]

let evict_memory t =
  locked t (fun () ->
      let compiled =
        Hashtbl.fold
          (fun _ e n -> match e.value with Compiled _ -> n + 1 | Summary _ | Reply _ -> n)
          t.mem 0
      in
      let n = Hashtbl.length t.mem and slots = Hashtbl.length t.seen in
      Hashtbl.reset t.mem;
      Hashtbl.reset t.seen;
      Hashtbl.reset t.compiled_at;
      Vrp_obs.Metrics.inc ~by:n obs_evictions;
      { results = n - compiled; compiled; slots })

let holds_maintenance_lock t = t.maintenance

(* Release the maintenance lock (closing the fd drops the [lockf] lock).
   The entry tiers stay usable; only the right to sweep/evict is given up,
   exactly as if the owning process had exited. *)
let close t =
  locked t (fun () ->
      (match (t.lock_fd, t.disk_dir) with
      | Some fd, Some dir ->
        Mutex.lock process_locked_dirs_mutex;
        Hashtbl.remove process_locked_dirs dir;
        Mutex.unlock process_locked_dirs_mutex;
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | _ -> ());
      t.lock_fd <- None;
      t.maintenance <- false)

let counters_line c =
  Printf.sprintf
    "summary cache: %d hits (%d from disk), %d misses, %d invalidations, %d quarantined, %d file hits"
    c.hits c.disk_hits c.misses c.invalidations c.quarantined c.file_hits

(* --- Memory tier --- *)

(* Call under the lock. An evicted compiled entry takes its slot's binding
   along, so [compiled_at] holds at most one binding per live entry. *)
let remove_locked t key =
  (match Hashtbl.find_opt t.mem key with
  | Some { value = Compiled { slot; _ }; _ }
    when Hashtbl.find_opt t.compiled_at slot = Some key ->
    Hashtbl.remove t.compiled_at slot
  | Some _ | None -> ());
  Hashtbl.remove t.mem key

(* Call under the lock, after an eviction: each slot forgets its evicted
   keys, and a slot left with none is dropped, so the slot table stays as
   bounded as the memory tier. A dropped slot's next lookup finds no
   previous stamp and so counts no invalidation. A slot whose summary is
   still being computed has no key yet either; its result then goes
   unstored, as if a concurrent lookup had restamped it. *)
let prune_slots_locked t =
  Hashtbl.filter_map_inplace
    (fun _ s ->
      s.keys <- List.filter (Hashtbl.mem t.mem) s.keys;
      if s.keys = [] then None else Some s)
    t.seen

(* Call under the lock. Evicts down to 3/4 capacity by last use, so
   eviction cost is amortized over at least capacity/4 insertions. [stores]
   counts summaries and replies; compiled entries count on their own. *)
let insert_locked t key value =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.mem key { value; last_use = t.tick };
  (match value with
  | Summary _ | Reply _ -> t.c.stores <- t.c.stores + 1
  | Compiled _ -> ());
  if Hashtbl.length t.mem > t.capacity then begin
    let entries = Hashtbl.fold (fun k e acc -> (e.last_use, k) :: acc) t.mem [] in
    let by_age = List.sort compare entries in
    let excess = Hashtbl.length t.mem - (t.capacity * 3 / 4) in
    List.iteri (fun i (_, k) -> if i < excess then remove_locked t k) by_age;
    prune_slots_locked t;
    Vrp_obs.Metrics.inc ~by:excess obs_evictions
  end

let touch_locked t e =
  t.tick <- t.tick + 1;
  e.last_use <- t.tick

(* --- Disk tier ---

   One file per key, written atomically (temp file + rename), framed for
   end-to-end integrity verification as one {!Vrp_util.Frame} whose body
   is Marshal (format_version, value). Two entry kinds share the codec,
   each under its own magic so neither can be read back as the other: a
   function summary ("vrpsum2", an [Engine.t]) and a batch file record
   ("vrpfile1", the batch driver's marshalled result). Reads classify
   every entry as served / stale (clean frame, old format version —
   deleted and recomputed) / corrupt (torn write, bit rot, foreign bytes,
   another kind's magic — quarantined aside as KEY.sum.bad so it is kept
   as evidence but never retried). Both degradations are counted as a
   miss plus an invalidation; neither can crash or poison the run. *)

let summary_magic = "vrpsum2"
let file_magic = "vrpfile1"

let disk_path dir key = Filename.concat dir (key ^ ".sum")

type 'a disk_read = Served of 'a | Stale | Corrupt | Absent

let read_frame ~magic path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match Vrp_util.Frame.read ~magic ic with
        | None -> Corrupt (* torn, truncated, bit-rotted or foreign *)
        | Some payload ->
          let version, v = Marshal.from_string payload 0 in
          if version <> Digest_key.format_version then Stale else Served v)
  with _ -> Corrupt

let disk_load t ~magic key =
  match t.disk_dir with
  | None -> Absent
  | Some dir ->
    let path = disk_path dir key in
    if not (Sys.file_exists path) then Absent
    else begin
      match read_frame ~magic path with
      | Served v -> Served v
      | Stale ->
        (* old format: no foul play, just drop it for rewrite *)
        (try Sys.remove path with Sys_error _ -> ());
        Stale
      | Corrupt ->
        (* quarantine: keep the bytes as evidence, never retry them *)
        (try Sys.rename path (path ^ ".bad")
         with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ()));
        Corrupt
      | Absent -> Absent
    end

(* Under the lock: count a stale or corrupt disk entry. *)
let count_verdict_locked t = function
  | Stale -> t.c.invalidations <- t.c.invalidations + 1
  | Corrupt ->
    t.c.invalidations <- t.c.invalidations + 1;
    t.c.quarantined <- t.c.quarantined + 1
  | Served _ | Absent -> ()

let disk_store t ~magic key v =
  match t.disk_dir with
  | None -> ()
  | Some dir -> (
    let path = disk_path dir key in
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Domain.self () :> int)
    in
    let payload = Marshal.to_string (Digest_key.format_version, v) [] in
    let frame = Vrp_util.Frame.encode ~magic payload in
    let frame =
      (* Fault injection: flip a payload bit *after* framing, so the stored
         checksum still describes the original bytes — exactly what on-disk
         bit rot looks like. The read path must fail verification and
         quarantine the entry; the corrupt bytes must never reach Marshal. *)
      match t.fault with
      | Some (Diag.Fault.Corrupt_cache n) when n >= 1 ->
        let nth = locked t (fun () -> t.disk_writes <- t.disk_writes + 1; t.disk_writes) in
        if nth mod n = 0 then begin
          let b = Bytes.of_string frame in
          let mid = String.length frame - (String.length payload / 2) - 1 in
          Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
          Bytes.to_string b
        end
        else frame
      | _ -> frame
    in
    try
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc frame);
      Sys.rename tmp path
    with _ -> ( try Sys.remove tmp with _ -> ()))

(* --- Lookup --- *)

(* Under the lock: make [stamp] the slot's latest. A restamp counts as an
   invalidation and drops the memory-tier entries stored under the old
   stamp, so a slot holds only its latest stamp's summaries however often
   it is edited. The disk tier keeps them. *)
let restamp_locked t ~slot ~stamp =
  match Hashtbl.find_opt t.seen slot with
  | Some s when String.equal s.stamp stamp -> s
  | prev ->
    Option.iter
      (fun old ->
        t.c.invalidations <- t.c.invalidations + 1;
        List.iter (Hashtbl.remove t.mem) old.keys)
      prev;
    let s = { stamp; keys = [] } in
    Hashtbl.replace t.seen slot s;
    s

(* Under the lock: store a summary found or computed for [s]. A slot
   restamped meanwhile by a concurrent lookup has superseded it. *)
let store_summary_locked t (s : slot) ~slot key res =
  match Hashtbl.find_opt t.seen slot with
  | Some cur when cur == s ->
    insert_locked t key (Summary res);
    if not (List.mem key s.keys) then s.keys <- key :: s.keys
  | _ -> ()

let find_or_compute t ~slot ~stamp ~key compute =
  let s, cached =
    locked t (fun () ->
        let s = restamp_locked t ~slot ~stamp in
        match Hashtbl.find_opt t.mem key with
        | Some ({ value = Summary res; _ } as e) ->
          touch_locked t e;
          t.c.hits <- t.c.hits + 1;
          (s, Some res)
        | Some { value = Reply _ | Compiled _; _ } | None -> (s, None))
  in
  match cached with
  | Some res -> res
  | None -> (
    match (disk_load t ~magic:summary_magic key : Engine.t disk_read) with
    | Served res ->
      locked t (fun () ->
          t.c.hits <- t.c.hits + 1;
          t.c.disk_hits <- t.c.disk_hits + 1;
          store_summary_locked t s ~slot key res);
      res
    | (Stale | Corrupt | Absent) as verdict ->
      locked t (fun () ->
          t.c.misses <- t.c.misses + 1;
          count_verdict_locked t verdict);
      let res = compute () in
      locked t (fun () -> store_summary_locked t s ~slot key res);
      disk_store t ~magic:summary_magic key res;
      res)

(* --- File-level tier --- *)

let find_reply t ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.mem key with
      | Some ({ value = Reply r; _ } as e) ->
        touch_locked t e;
        t.c.file_hits <- t.c.file_hits + 1;
        Some r
      | Some { value = Summary _ | Compiled _; _ } | None -> None)

let store_reply t ~key r = locked t (fun () -> insert_locked t key (Reply r))

let persistent t = Option.is_some t.disk_dir

let find_file t ~key =
  match (disk_load t ~magic:file_magic key : string disk_read) with
  | Served payload ->
    locked t (fun () -> t.c.file_hits <- t.c.file_hits + 1);
    Some payload
  | Absent -> None
  | (Stale | Corrupt) as verdict ->
    (* A damaged record costs a recompute, counted as a summary's would be. *)
    locked t (fun () ->
        t.c.misses <- t.c.misses + 1;
        count_verdict_locked t verdict);
    None

let store_file t ~key payload = disk_store t ~magic:file_magic key payload

(* --- Compile memo --- *)

(* Under the lock. A slot keeps one compiled entry: storing a new one drops
   the entry its previous version was stored under. *)
let store_compiled_locked t ~slot key fn baselines fn_key =
  (match Hashtbl.find_opt t.compiled_at slot with
  | Some old when not (String.equal old key) -> Hashtbl.remove t.mem old
  | Some _ | None -> ());
  Hashtbl.replace t.compiled_at slot key;
  insert_locked t key (Compiled { fn; baselines; fn_key; slot })

let compile ~file ?front ?(compile_key = Digest_key.compile_key) t source =
  let keys = Hashtbl.create 16 in
  let memo ast =
    let env = Digest_key.compile_env ast in
    fun (f : Vrp_lang.Ast.func) build ->
      let fname = f.Vrp_lang.Ast.fname in
      let key = compile_key ~env f in
      let cached =
        locked t (fun () ->
            match Hashtbl.find_opt t.mem key with
            | Some ({ value = Compiled { fn; baselines; fn_key; _ }; _ } as e) ->
              touch_locked t e;
              t.c.compile_hits <- t.c.compile_hits + 1;
              Some (fn, baselines, fn_key)
            | Some { value = Summary _ | Reply _; _ } | None ->
              t.c.compile_misses <- t.c.compile_misses + 1;
              None)
      in
      let fn, baselines, fn_key =
        match cached with
        | Some entry -> entry
        | None ->
          let fn, baselines = build () in
          let fn_key = Digest_key.fn_key fn in
          locked t (fun () ->
              store_compiled_locked t ~slot:(file, fname) key fn baselines fn_key);
          (fn, baselines, fn_key)
      in
      Hashtbl.replace keys fname fn_key;
      (fn, baselines)
  in
  Result.map (fun c -> (c, keys)) (Pipeline.compile_result ?front ~memo source)

(* --- The memoizing analyze_fn --- *)

let memoized ~file t (keys : (string, Digest_key.fn_key) Hashtbl.t) :
    Interproc.analyze_fn =
  (* One configuration digest per distinct configuration: every task of a
     run passes the same one, up to the cancel token a supervisor sets per
     call, which the digest leaves out. *)
  let last = Atomic.make None in
  let config_digest config =
    let c = { config with Engine.cancel = None } and budget = !Vrp_ranges.Config.max_ranges in
    match Atomic.get last with
    | Some (c', budget', d) when budget' = budget && c' = c -> d
    | _ ->
      let d = Digest_key.config_digest config in
      Atomic.set last (Some (c, budget, d));
      d
  in
  fun ~config ~report:_ ~call_oracle ~param_values fn ->
    let fname = fn.Ir.fname in
    let { Digest_key.digest; callees } = Hashtbl.find keys fname in
    let config_digest = config_digest config in
    let key =
      Digest_key.task_key ~fn_digest:digest ~config_digest ~param_values
        ~callee_returns:(List.map (fun c -> (c, call_oracle c [])) callees)
    in
    find_or_compute t
      ~slot:(file, fname)
      ~stamp:(digest ^ config_digest)
      ~key
      (fun () -> Engine.analyze ~config ~call_oracle ~param_values fn)
