(** Per-client analysis sessions and incremental re-analysis planning.

    A session names a client's working set across requests: the function
    digests of each source it has submitted and a private warm summary
    cache. When the session re-submits an edited source, {!plan} diffs the
    new structural digests against the previous submission and classifies
    every function:

    - {e changed}: its SSA digest differs (or it is new) — must re-analyze;
    - {e dirty}: changed, or reachable from a changed function in the call
      graph — it is downstream of an edit, so its analysis inputs
      (argument ranges from callers, return ranges from callees) may have
      moved. Only these functions should re-run;
    - {e reused}: everything else — served from the session's warm cache.

    The plan is the {e predicted} invalidation; the content-addressed cache
    remains the ground truth (a dirty function whose inputs happen not to
    move still hits). The server reports both — the plan and the request's
    exact cache-counter delta — so tests can pin "a one-function edit
    re-runs only affected functions".

    Each session serializes its own analyses under {!with_lock}, which is
    what makes the counter delta exact; different sessions run freely in
    parallel. *)

module Summary_cache = Vrp_cache.Summary_cache
module Digest_key = Vrp_cache.Digest_key

type t
(** The session table; safe for concurrent use from connection threads. *)

type session

(** [create ~max_sessions ()] bounds the table (default 512): admitting a
    new session at capacity evicts the least-recently-used one, so clients
    minting fresh session ids cannot grow daemon memory without bound. An
    evicted session's in-flight request completes on the detached record;
    only its warm cache and digests are lost. *)
val create : ?max_sessions:int -> unit -> t

(** Find [id]'s session, creating it on first use. *)
val find_or_create : t -> string -> session

val count : t -> int

(** Session ids, sorted. *)
val ids : t -> string list

(** What {!evict_all} dropped: the caches' [entries], and [parsed] parse
    memo entries (one per item group of each file's last parse). *)
type evicted = { entries : Summary_cache.evicted; parsed : int }

(** Evict every session's cache memory tier and parse memo; total entries
    dropped. *)
val evict_all : t -> evicted

(** Cache counters summed over every session ever admitted: live sessions'
    caches plus those of evicted sessions, so the total never decreases. A
    request that runs under {!with_lock} on a session evicted meanwhile
    adds its traffic when it ends. *)
val cache_totals : t -> Summary_cache.counters

val id : session -> string

(** The session's private summary cache (memory tier only). *)
val cache : session -> Summary_cache.t

(** Serialize a request against this session (analyses and counter
    accounting run inside). *)
val with_lock : session -> (unit -> 'a) -> 'a

(** {!Summary_cache.compile} of [source], submitted under [name], through
    the session's cache and its parse memo. The memo keeps, per file name,
    each item group ({!Vrp_lang.Front.split}) of the last parse that
    compiled: its text digest, its parsed items and, once asked for, its
    functions' {!Digest_key.compile_key}s. A group whose text is unchanged
    is not lexed or parsed again: its items are reused as first parsed,
    wherever the group now starts, and its functions keep their compile
    keys while the program's {!Digest_key.compile_env} is unchanged. The
    memo also keeps the compile's {!Vrp_lang.Typecheck.tables}: while they
    are unchanged, the bodies of the functions in unchanged groups are not
    type-checked again. The result equals a cold
    {!Vrp_core.Pipeline.compile} of [source], and an error is the one a
    cold compile reports, line included
    ({!Vrp_lang.Front.parse_and_check}). Call under {!with_lock}. *)
val compile :
  session ->
  name:string ->
  string ->
  ( Vrp_core.Pipeline.compiled * (string, Digest_key.fn_key) Hashtbl.t,
    Vrp_diag.Diag.diag )
  result

type plan = {
  fresh : bool;  (** first submission under this source name *)
  functions : int;  (** functions in the submitted program *)
  changed : string list;  (** new or digest-differing functions, sorted *)
  dirty : string list;  (** changed + call-graph descendants, sorted *)
  reused : string list;  (** the rest — expected warm-cache hits, sorted *)
}

(** Diff a program, given by its {!Digest_key.fn_keys} table, against the
    session's previous submission under [name] and record the new digests.
    Call under {!with_lock}. *)
val plan : session -> name:string -> (string, Digest_key.fn_key) Hashtbl.t -> plan
