(** Admission control for the serving stack: bounded connections, bounded
    in-flight work, and the shed ladder both daemons (vrpd and the fleet
    front door) climb under overload.

    The contract, from the outside in:

    - {e Connections} are bounded by [max_conns]. The accept loop calls
      {!try_conn} right after [accept]; a refusal means the connection is
      answered with one structured [busy] frame (carrying [retry_after_ms])
      and closed without ever spawning a handler thread — accept-then-shed,
      so the client learns {e why} instead of seeing a hung connect.
    - {e Requests} are bounded by [max_inflight]. An analysis request that
      cannot take a slot immediately waits in a bounded queue (at most
      [max_queue] waiters, at most [queue_wait_ms] each); past either bound
      it is shed with a [busy] response. A request whose propagated
      deadline would expire before (or while) it waits is shed as
      [Expired] — work that would start already-dead is never dispatched.
    - {e Idle connections} are bounded by [idle_timeout_ms]: the accept
      loop's sweeper closes any connection stalled mid-frame (or idle
      between frames) longer than this, and reports it here.

    Shedding is load {e signalling}, not failure: the busy response's
    [retry_after_ms] scales with queue depth, and {!Client.request_retry}
    honors it, so shed idempotent requests transparently retry — against
    the same daemon once it drains, or against another fleet worker.

    All operations are thread-safe; one [t] is shared by the accept loop,
    its sweeper, and every connection thread. *)

type limits = {
  max_conns : int;  (** concurrent connections before accept-then-shed *)
  max_inflight : int;  (** concurrent analysis requests before queueing *)
  max_queue : int;  (** waiting requests before immediate shed *)
  queue_wait_ms : int;  (** longest a request may wait for a slot *)
  idle_timeout_ms : int;
      (** per-connection stall budget enforced by the sweeper and by
          [SO_RCVTIMEO]/[SO_SNDTIMEO]; [0] disables idle sweeping *)
}

(** 1024 connections, 64 in-flight, 256 queued, 1s queue wait, 10s idle
    timeout. *)
val default_limits : limits

type counters = {
  mutable admitted : int;  (** requests that took an in-flight slot *)
  mutable shed_conns : int;  (** connections refused at accept *)
  mutable shed_requests : int;  (** requests shed at the queue *)
  mutable expired : int;  (** requests shed because their deadline passed *)
  mutable idle_closed : int;  (** connections closed by the idle sweeper *)
  mutable peak_inflight : int;
}

type t

val create : ?limits:limits -> unit -> t
val limits : t -> limits

(** Snapshot of the counters (taken under the lock). *)
val counters : t -> counters

val inflight : t -> int
val queued : t -> int
val conns : t -> int

(** Take a connection slot. [false] means the caller must shed: answer one
    busy frame and close. *)
val try_conn : t -> bool

(** Release a connection slot taken by {!try_conn}. *)
val conn_closed : t -> unit

(** Record a connection closed by the idle sweeper. *)
val note_idle_closed : t -> unit

(** The backoff hint stamped into busy responses: grows with the current
    queue depth, bounded, deterministic given the load. *)
val retry_after_ms : t -> int

type admission =
  | Admitted  (** slot taken; the caller must {!release} *)
  | Shed of int  (** over capacity; the argument is the retry-after hint *)
  | Expired  (** the request's deadline passed before a slot freed *)

(** [admit t ?deadline ()] takes an in-flight slot, waiting in the bounded
    queue if needed. [deadline] is an absolute [Unix.gettimeofday] instant:
    the wait never outlives it, and a request already at or past it is shed as
    [Expired] without waiting. *)
val admit : t -> ?deadline:float -> unit -> admission

(** Release an in-flight slot taken by a successful {!admit}. *)
val release : t -> unit

(** One status line, e.g.
    [admission: 2 inflight (peak 4), 0 queued, 3 shed (2 conns, 1 requests), 1 expired, 2 idle-closed]. *)
val counters_line : t -> string

(** The counters and the inflight/peak gauges as [vrpd_admission_*_total],
    [vrpd_inflight] and [vrpd_peak_inflight], read at scrape time. *)
val samples : t -> Vrp_obs.Metrics.sample list
