(** Supervised task execution: wall-clock deadlines for the batch pipeline
    and the server.

    OCaml domains cannot be killed, so deadlines are enforced cooperatively:
    a supervised task gets a {!Diag.Cancel.token}, the analysis engine beats
    it and polls it at every worklist step, and a monitor domain cancels any
    token whose task outlives its deadline. The worker then raises
    {!Diag.Cancel.Cancelled} from its next safe point.

    A failing task is never retried: the analysis is a deterministic
    function of its inputs, so a second attempt fails the same way. The
    failure propagates to where it lands — {!Interproc.analyze}'s
    per-function containment demotes just that function to the Ball–Larus
    fallback; if the whole file's task dies, the batch driver demotes the
    file; a non-zero exit only under [--strict] (or when a file actually
    failed). The supervisor provides the deadline and the counters.

    Determinism: supervision decides only *whether* an analysis completes,
    never its value — a summary computed under supervision is
    byte-identical to one computed without. All supervision diagnostics use
    fixed messages with no wall-clock measurements. *)

module Diag = Vrp_diag.Diag
module Interproc = Vrp_core.Interproc

type counters = {
  mutable deadline_hits : int;
      (** tasks cancelled by the monitor for outliving their deadline *)
  mutable gave_up : int;  (** tasks that failed; the failure escalated *)
}

type t

(** [create ?deadline_ms ()] builds a supervisor whose tasks get
    [deadline_ms] of wall clock each ([None]: no deadline); with a deadline
    it also spawns the monitor domain. Call {!shutdown} to join it. *)
val create : ?deadline_ms:int -> unit -> t

(** Stop and join the monitor domain. Idempotent. *)
val shutdown : t -> unit

(** [with_supervisor f] runs [f] with a fresh supervisor and always shuts
    it down. *)
val with_supervisor : ?deadline_ms:int -> (t -> 'a) -> 'a

(** Snapshot of the supervision counters. *)
val counters : t -> counters

(** Render the counters as one line, e.g. for [--diagnostics] output. *)
val counters_line : t -> string

(** The counters as the [vrp_sched_*_total] series, read at scrape time. *)
val samples : t -> Vrp_obs.Metrics.sample list

(** [supervise t ~name f] runs [f token] once: the token is registered
    with the monitor for deadline enforcement. A failure is re-raised for
    the caller's containment to handle; a deadline cancellation is first
    recorded in [report] with a deterministic message.

    [deadline_ms] overrides the supervisor's deadline for this call only —
    how a request's propagated wall-clock budget (already reduced by queue
    wait) tightens the server's blanket deadline. The monitor domain is
    spawned lazily on the first call that actually has a deadline, so a
    supervisor created without one still costs nothing until needed.
    Callers wanting the tighter of the two pass the min. *)
val supervise :
  t ->
  name:string ->
  ?deadline_ms:int ->
  ?report:Diag.report ->
  (Diag.Cancel.token -> 'a) ->
  'a

(** Interpose supervision on a per-function analysis seam: each call runs
    under {!supervise} with the function's name, and the engine config is
    extended with the call's cancellation token so the worklist loop
    becomes cancellable. Compose outside the cache's memoized wrapper —
    supervising the lookup means a cache hit never spends a deadline. *)
val wrap_analyze_fn : t -> Interproc.analyze_fn -> Interproc.analyze_fn
