(** Supervised task execution: wall-clock deadlines, bounded retries, and a
    demotion escalation ladder for the batch pipeline.

    OCaml domains cannot be killed, so deadlines are enforced cooperatively:
    a supervised task gets a {!Diag.Cancel.token}, the analysis engine beats
    it and polls it at every worklist step, and a monitor domain cancels any
    token whose task outlives the policy's deadline. The worker then raises
    {!Diag.Cancel.Cancelled} from its next safe point.

    Escalation ladder for a failing task: retry it (up to [policy.retries]
    times, with linear deterministic backoff) → let the failure propagate,
    where {!Interproc.analyze}'s per-function containment demotes just that
    function to the Ball–Larus fallback → if the whole file's task dies, the
    batch driver demotes the file → a non-zero exit only under [--strict]
    (or when a file actually failed). The supervisor implements the first
    rung and provides the counters; the later rungs live where the failure
    lands.

    Determinism: supervision decisions affect only *whether* an analysis
    completes, never its value — a summary computed under supervision is
    byte-identical to one computed without. All supervision diagnostics use
    fixed messages with no wall-clock measurements. *)

module Diag = Vrp_diag.Diag
module Interproc = Vrp_core.Interproc

type policy = {
  deadline_ms : int option;
      (** per-task wall-clock budget; [None] disables the monitor *)
  retries : int;  (** extra attempts after the first failure *)
  backoff_ms : int;  (** base backoff; attempt [n] sleeps [n * backoff_ms] *)
}

(** No deadline, no retries, 10ms base backoff. *)
val default_policy : policy

type counters = {
  mutable deadline_hits : int;
      (** tasks cancelled by the monitor for outliving their deadline *)
  mutable retry_count : int;  (** retry attempts actually made *)
  mutable gave_up : int;
      (** tasks whose final attempt failed; the failure escalated *)
}

type t

(** [create ()] builds a supervisor; with a deadline in the policy it also
    spawns the monitor domain. Call {!shutdown} to join it. *)
val create : ?policy:policy -> unit -> t

(** Stop and join the monitor domain. Idempotent. *)
val shutdown : t -> unit

(** [with_supervisor f] runs [f] with a fresh supervisor and always shuts
    it down. *)
val with_supervisor : ?policy:policy -> (t -> 'a) -> 'a

val policy : t -> policy

(** Snapshot of the supervision counters. *)
val counters : t -> counters

(** Render the counters as one line, e.g. for [--diagnostics] output. *)
val counters_line : t -> string

(** The counters as the [vrp_sched_*_total] series, read at scrape time. *)
val samples : t -> Vrp_obs.Metrics.sample list

(** [supervise t ~name f] runs [f token] under the policy: the token is
    registered with the monitor for deadline enforcement and carries the
    attempt number for fault injection. Failures are retried per policy;
    the last failure is re-raised for the caller's containment to handle.
    Deadline cancellations and retries are recorded in [report] with
    deterministic messages.

    [deadline_ms] overrides the policy deadline for this call only — how a
    request's propagated wall-clock budget (already reduced by queue wait)
    tightens the server's blanket deadline. The monitor domain is spawned
    lazily on the first call that actually has a deadline, so a supervisor
    created without one still costs nothing until needed. Callers wanting
    the tighter of policy and request budget pass the min. *)
val supervise :
  t ->
  name:string ->
  ?deadline_ms:int ->
  ?report:Diag.report ->
  (Diag.Cancel.token -> 'a) ->
  'a

(** Interpose supervision on a per-function analysis seam: each call runs
    under {!supervise} with the function's name, and the engine config is
    extended with the attempt's cancellation token so the worklist loop
    becomes cancellable. Compose outside the cache's memoized wrapper —
    supervising the lookup means a cache hit never burns an attempt. *)
val wrap_analyze_fn : t -> Interproc.analyze_fn -> Interproc.analyze_fn
