(** Content-addressed function-summary store.

    Two tiers: a bounded in-memory LRU map from {!Digest_key.task_key} to
    the full analysis result, and an optional on-disk tier (one checksummed
    file per key under [disk_dir]) that survives across processes — a warm
    [vrpc batch --cache DIR] run re-analyzes zero unchanged functions.

    The memory map also holds a file-level tier: whole rendered replies
    under {!Digest_key.reply_key}, which the server serves without
    compiling; and a compile memo: each function's checked SSA and
    baseline columns under its {!Digest_key.compile_key}, so a
    one-function edit recompiles one function ({!compile}). Compiled entries are never written to disk.
    Every kind of entry shares the one capacity and eviction.

    Each slot (a file-qualified function) keeps in memory only the
    summaries stored under its latest stamp: a lookup under a new stamp
    drops the slot's older entries, so repeated edits of one function
    cannot grow the memory tier. Likewise a slot keeps only its latest
    compiled entry. After an LRU eviction, a slot with no summary left in
    memory is forgotten, so the slot table is as bounded as the memory
    tier; the slot's next lookup then counts no invalidation.

    Disk-tier integrity: every entry is one {!Vrp_util.Frame} (magic
    [vrpsum2]), whose payload checksum is verified on read. A torn,
    truncated, or bit-rotted entry is counted as a miss plus an
    invalidation, quarantined aside as [KEY.sum.bad], and recomputed —
    corruption can degrade performance but never crashes a run or poisons
    a result. An entry written by an older format version is
    silently dropped and rewritten. At open, the first process to take the
    advisory lock file ([DIR/.lock]) becomes the directory's maintenance
    process: it sweeps debris left by killed writers (stale [*.sum.tmp.*]
    temp files, old quarantine files) and applies the optional disk budget
    by evicting the oldest entries. Entry reads and writes themselves are
    lock-free: they are content-addressed and atomically renamed, so the
    worst cross-process race is a harmless double write of identical bytes.

    Thread safety: every operation is mutex-guarded except the summary
    computation itself, which runs unlocked — two domains racing on the
    same missing key may both compute it (identical results; the counters
    then record two misses). That keeps workers out of each other's way and
    can never produce a wrong hit. *)

module Ir = Vrp_ir.Ir
module Diag = Vrp_diag.Diag
module Engine = Vrp_core.Engine
module Interproc = Vrp_core.Interproc

type counters = {
  mutable hits : int;  (** served from memory or disk *)
  mutable disk_hits : int;  (** subset of [hits] loaded from the disk tier *)
  mutable misses : int;  (** computed fresh *)
  mutable stores : int;  (** entries written into the memory tier *)
  mutable invalidations : int;
      (** lookups whose slot (function) was previously cached under a
          different IR or configuration digest — an IR edit or a config
          change made the old summaries stale — plus disk entries dropped
          as stale-format or corrupt *)
  mutable quarantined : int;
      (** disk entries that failed checksum or frame verification and were
          moved aside as [KEY.sum.bad]; always a subset of [invalidations] *)
  mutable file_hits : int;  (** replies served from the file-level tier *)
  mutable compile_hits : int;  (** functions whose checked SSA {!compile} reused *)
  mutable compile_misses : int;  (** functions {!compile} had to build *)
}

(** A rendered reply: stdout bytes, stderr bytes and exit code. *)
type reply = { out : string; err : string; code : int }

type t

(** [create ()] builds a store with an in-memory LRU of [memory_capacity]
    entries (default 4096) and, when [disk_dir] is given, a persistent tier
    under that directory (created if missing). [max_disk_mb] caps the disk
    tier's total size in megabytes, enforced at open by the maintenance
    process (oldest entries evicted first). [fault] enables deterministic
    fault injection — [corrupt-cache:N] flips a payload bit in every Nth
    disk write so the verified read path can be exercised end to end. *)
val create :
  ?memory_capacity:int ->
  ?disk_dir:string ->
  ?max_disk_mb:int ->
  ?fault:Diag.Fault.t ->
  unit ->
  t

(** True when this store won the advisory directory lock at [create] time
    and performed (and may perform) debris sweeping and eviction. *)
val holds_maintenance_lock : t -> bool

(** Release the maintenance lock so another store (or process) can take it
    over; lookups and stores keep working. A process exiting releases the
    lock implicitly — this is for long-running embedders and tests. *)
val close : t -> unit

(** Snapshot of the traffic counters. *)
val counters : t -> counters

(** [delta ~before after] is the componentwise difference of two counter
    snapshots — request-scoped accounting for a long-lived store shared by
    many server requests. Meaningful when no other request ran in between
    (the server serializes per-session analyses). *)
val delta : before:counters -> counters -> counters

val zero_counters : unit -> counters

(** Componentwise sum: one total over several stores. *)
val sum : counters -> counters -> counters

(** The counters as the [vrp_cache_*_total] series, read at scrape time. *)
val samples : counters -> Vrp_obs.Metrics.sample list

(** What {!evict_memory} dropped: [results] summaries and replies,
    [compiled] compile memo entries, and [slots] slot bindings (slots with
    a summary stamp). *)
type evicted = { results : int; compiled : int; slots : int }

(** Drop every memory-tier entry (summaries, replies and compiled
    functions) and the slot tables, returning how many entries of each
    kind were evicted. The disk tier (if any) is untouched, so the next
    lookup round-trips through it; counters keep accumulating. This is the
    server's [evict] operation for a long-running daemon whose memory tier
    must be reclaimable without a restart. *)
val evict_memory : t -> evicted

(** Render counters as a one-line summary, e.g. for a batch report. *)
val counters_line : counters -> string

(** [find_or_compute t ~slot ~stamp ~key compute] returns the summary for
    [key], computing and storing it on a miss. [slot] names the cached
    entity (pass a file-qualified function name) and [stamp] is its
    (IR digest, config digest) identity: a lookup for a known slot under a
    new stamp counts as an invalidation and drops from the memory tier the
    entries the slot stored under its older stamp. *)
val find_or_compute :
  t -> slot:string -> stamp:string -> key:string -> (unit -> Engine.t) -> Engine.t

(** The reply stored under [key] in the file-level tier, counted as a
    [file_hits] when found. *)
val find_reply : t -> key:string -> reply option

(** Store a reply in the file-level tier (memory only). The caller keys it
    by everything the reply depends on and stores only complete replies. *)
val store_reply : t -> key:string -> reply -> unit

(** {!Vrp_core.Pipeline.compile_result} through the compile memo, with the
    program's {!Digest_key.fn_keys} table. Each function is looked up
    under its {!Digest_key.compile_key}: a hit reuses the stored checked
    SSA and baseline columns ({!Vrp_predict.Predictor.baselines}) and
    reads the stored {!Digest_key.fn_key}, so nothing is recomputed; a
    miss compiles the function and its columns, digests it and stores all
    three under the slot [slot_prefix ^ fname] (counted in [compile_hits] and
    [compile_misses], never in [hits], [misses] or [stores]). A slot keeps
    one compiled entry, so editing a function drops its previous version.
    Served functions are shared with every later request: no consumer may
    write to them. A summary computed from one holds that same [Ir.fn]. *)
val compile :
  ?slot_prefix:string ->
  t ->
  string ->
  ( Vrp_core.Pipeline.compiled * (string, Digest_key.fn_key) Hashtbl.t,
    Diag.diag )
  result

(** A memoizing {!Interproc.analyze_fn} for the functions of the program
    whose {!Digest_key.fn_keys} table is [keys]. Each per-function task is
    served from the cache when its full key matches. A summary carries
    its run's diagnostics ([Engine.t.diags]), which {!Interproc} appends
    whether it was computed or served, so a warm run's report equals the
    cold run's. [slot_prefix] qualifies function names for invalidation
    accounting (pass the source path in batch mode). *)
val memoized :
  ?slot_prefix:string -> t -> (string, Digest_key.fn_key) Hashtbl.t -> Interproc.analyze_fn
