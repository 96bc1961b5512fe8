(** Supervised task execution: wall-clock deadlines for the batch pipeline
    and the server.

    A deadline is an absolute [Unix.gettimeofday] instant, carried by the
    {!Diag.Cancel.token} the task runs with. OCaml domains cannot be
    killed, so it is enforced cooperatively: the engine checks the token at
    every worklist step (and the interprocedural driver between functions)
    and raises {!Diag.Cancel.Cancelled} once the instant has passed. No
    other domain or thread watches the clock, and a task without a deadline
    runs with no token at all.

    A failing task is never retried: the analysis is a deterministic
    function of its inputs, so a second attempt fails the same way. The
    failure propagates to where it lands — {!Interproc.analyze}'s
    per-function containment demotes just that function to the Ball–Larus
    fallback; if the whole file's task dies, the batch driver demotes the
    file; a non-zero exit only under [--strict] (or when a file actually
    failed). This module only records what happened: the
    [Deadline_exceeded] diagnostic and two process-wide counters.

    Determinism: supervision decides only *whether* an analysis completes,
    never its value — a summary computed under supervision is
    byte-identical to one computed without. All supervision diagnostics use
    fixed messages with no wall-clock measurements. *)

module Diag = Vrp_diag.Diag
module Interproc = Vrp_core.Interproc

type counters = {
  deadline_hits : int;  (** supervised runs whose deadline fired *)
  gave_up : int;  (** supervised runs that failed; the failure escalated *)
}

(** The process-wide counts, read from the [vrp_sched_deadline_hits_total]
    and [vrp_sched_gave_up_total] counters of {!Vrp_obs.Metrics.default}. *)
val counters : unit -> counters

(** The counters as one line, e.g. for [--diagnostics] output. *)
val counters_line : unit -> string

(** [within_ms ms] is the instant [ms] milliseconds from now. *)
val within_ms : int -> float

(** The earlier of two optional deadlines. *)
val tighter : float option -> float option -> float option

(** [supervise ~name ?report deadline f] runs [f] once, with a token
    firing at [deadline] ([None]: no deadline, no token). A failure is
    counted and re-raised for the caller's containment to handle; a
    deadline cut is first recorded in [report] with a deterministic
    message. A run whose token fired counts as a deadline hit. *)
val supervise :
  name:string ->
  ?report:Diag.report ->
  float option ->
  (Diag.Cancel.token option -> 'a) ->
  'a

(** Interpose supervision on a per-function analysis seam: each call runs
    under {!supervise} with the function's name and the tighter of
    [within_ms] from the call's start and [deadline], and the engine config
    carries the call's token so the worklist loop checks it. Compose
    outside the cache's memoized wrapper — a cache hit never runs the
    engine, so it is served whatever the deadline. *)
val wrap_analyze_fn :
  ?within_ms:int -> ?deadline:float -> Interproc.analyze_fn -> Interproc.analyze_fn
