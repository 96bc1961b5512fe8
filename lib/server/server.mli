(** The vrpd analysis daemon: resident state plus the request handlers and
    the accept loop.

    One daemon holds a resident domain pool (analysis parallelism), a
    server-wide always-warm summary cache and the {!Session} table; an
    analysis runs under the tighter of its request's deadline and the
    daemon's [deadline_ms]. Connection handling is
    thread-per-connection (blocking I/O on system threads); analyses run on
    the shared pool, whose task queue is safe for concurrent callers.

    Containment ladder: a function-level crash is contained by the
    interprocedural driver (demotes the function), a file-level crash by
    the batch driver (fails the file), and anything that escapes a handler
    — decode failure, injected request crash, unknown op — by the
    per-request wrapper, which answers {!Protocol.error_response} with
    exit-code-2 semantics. Nothing a request does kills the daemon.

    Operations ([op] field): [predict], [analyze] (session-scoped
    incremental predict), [compare], [batch], [status], [evict], [ping]
    (liveness-and-load probe answering [pong] plus the daemon's pid,
    inflight, capacity and shed count — the fleet's health check),
    [metrics] (Prometheus text exposition: the process-wide registry plus
    this daemon's own records — admission, request, cache and supervision
    counters — read at scrape time, the same records [status] prints),
    [shutdown]. The analysis operations answer the byte-identical stdout
    of the corresponding one-shot CLI command (same {!Ops} code path).
    Dispatch, accounting, containment and admission are the {!Accept} op
    table's; this module supplies the analysis, [status] and [evict]
    handlers.

    Overload: analysis ops pass through the {!Admit} gate — over
    [limits.max_inflight] they queue briefly, then shed with a structured
    [busy] response carrying [retry_after_ms]; a request stamping a
    [deadline_ms] budget is charged for its queue wait and shed as
    [deadline-expired] rather than dispatched late. The control plane
    (status/ping/evict/metrics/shutdown) bypasses the gate so an overloaded
    daemon stays observable and stoppable. *)

module Diag = Vrp_diag.Diag

type settings = {
  jobs : int;
      (** resident pool width, and the most a [batch] request's [jobs]
          may ask for (it is clamped to [[1, jobs]]); batch requests
          that run a pool take turns, one pool at a time *)
  deadline_ms : int option;
      (** analysis deadline: a predict, analyze or compare request gets
          this long from dispatch, each function of a batch request this
          long from its start — in both cases cut short by the request's
          own [deadline_ms] *)
  fault : Diag.Fault.t option;
      (** daemon-wide injected fault, same specs as [--inject-fault]; a
          per-request [fault] param overrides it. [Slow_worker ms] here
          wedges every request (pings included) by [ms] milliseconds. *)
  cache_dir : string option;
      (** disk tier for the server-wide summary cache; fleet workers point
          at the same directory and share it via its advisory locks *)
  limits : Admit.limits;
      (** overload limits: connection bound (accept-then-shed), in-flight
          bound (queue then shed with [busy] + [retry_after_ms]), idle
          sweeper timeout. See {!Admit}. *)
}

(** [jobs = 1], no deadline, no fault, memory-only cache,
    {!Admit.default_limits}. *)
val default_settings : settings

type counters = Accept.counters = {
  mutable served : int;  (** requests answered by their handler *)
  mutable contained : int;
      (** requests answered by the containment wrapper, malformed frames
          included *)
  mutable cancelled : int;  (** contained specifically by cancellation *)
}

type t

val create : ?settings:settings -> unit -> t
val settings : t -> settings
val counters : t -> counters

(** The daemon's admission state: live inflight/conns gauges and the shed /
    expired / idle-closed counters (also surfaced by [status] and [ping]). *)
val admit : t -> Admit.t

(** Handle one request synchronously — the full dispatch plus containment
    wrapper, independent of any socket. The seam the tests and the bench
    drive in-process. *)
val handle : t -> Protocol.request -> Protocol.response

(** Bind a Unix-domain listener. A socket file already at the path is
    connect-probed first: if a live daemon answers, this fails with a clear
    error instead of stealing the path; only a refused connection marks the
    file stale and reclaims it. *)
val listen_unix : string -> Unix.file_descr

(** Bind a TCP listener ([SO_REUSEADDR]). *)
val listen_tcp : host:string -> port:int -> Unix.file_descr

(** Accept connections until {!stop} (or a [shutdown] request), spawning
    one handler thread per connection; on exit, wakes every in-flight
    connection and joins its thread. Does not close [listen_fd]. *)
val serve : t -> Unix.file_descr -> unit

(** Ask {!serve} to return. Safe from any thread or signal handler;
    idempotent. *)
val stop : t -> unit

(** True once a stop was requested. *)
val stopping : t -> bool

(** Release resident resources (pool domains, the cache's disk tier). Call
    after {!serve} returns. Idempotent. *)
val shutdown : t -> unit
