(** Fleet mode: a front-door router over N vrpd worker daemons.

    The front door speaks the same wire protocol as a single [vrpd] (same
    {!Accept} loop), but instead of analysing, it routes each request to a
    worker sharded by the request's session / name / source digest and
    proxies the response back untouched — so a client of a fleet sees
    byte-identical responses to a client of one daemon. Workers listen on
    fixed per-slot Unix socket paths ([DIR/worker-N.sock]); a replacement
    worker rebinds the {e same} path, which is what lets the proxy's retry
    ladder ride out a crash without re-routing.

    Containment ladder for a failing worker (extending the supervisor's
    task ladder): the proxy retries the idempotent request against the same
    slot under {!Vrp_sched.Supervisor.supervise} (bounded linear backoff —
    each retry is a recorded failover) → the monitor thread, which pings
    every worker, crash-replaces a dead or wedged one (bounded restart
    budget per slot) → a slot out of restarts is marked degraded and
    excluded from routing → under [strict], a degraded slot stops the
    fleet, and [vrpd --fleet --strict] exits 3.

    Load awareness: each ping's answer carries the worker's
    inflight/capacity/shed, remembered per slot; routing linearly probes
    past {e saturated} slots (no free in-flight slot in the last report)
    the same way it probes past degraded ones, falling back to the sharded
    order when every worker is saturated. A worker that sheds a proxied
    request with a busy response is marked saturated until its next ping
    and the proxy's retry ladder re-routes the replay; an exhausted ladder
    passes the busy response (with its [retry_after_ms]) through to the
    client, which backs off and retries. [fleet-status] shows the
    per-worker inflight/shed and the front door's own admission line.

    Worker processes are abstracted behind a {!spawner} so the tests can
    run in-process thread workers ({!in_process_spawner}) while
    [vrpd --fleet] spawns real [vrpd] child processes. Workers share
    one on-disk summary-cache tier when given the same [cache_dir]
    (guarded by the cache's advisory locks).

    The front door instantiates the same {!Accept} op table as a single
    daemon, ungated, with the proxy as its fallback handler.
    Front-door-local operations: [fleet-status] (fleet counters and
    per-worker state), [ping], [metrics] (Prometheus exposition of the
    registry plus the front door's own records, read at scrape time:
    admission, proxy ladder, replacement counters, per-worker health
    gauges; in-process workers' records are not among them), [shutdown].
    Everything else is proxied.

    Fault injection: [Kill_worker n] force-kills the routed worker on
    every [n]th proxied request just before forwarding — the request must
    survive via retry + replacement; [Slow_worker ms] belongs in the
    {e worker's} settings and wedges it so the ping monitor replaces it. *)

module Diag = Vrp_diag.Diag

(** A live worker as the fleet sees it. [kill] force-kills (idempotent);
    [alive] must turn false only once the worker is fully torn down and
    its socket path is reclaimable — replacement spawns wait on it. *)
type worker = {
  sock : string;
  describe : string;
  kill : unit -> unit;
  alive : unit -> bool;
}

(** [spawner ~wid ~incarnation ~sock] starts worker [wid]'s
    [incarnation]-th body listening on [sock] and returns its handle. *)
type spawner = wid:int -> incarnation:int -> sock:string -> worker

type settings = {
  size : int;  (** worker count (≥ 1) *)
  dir : string;  (** fleet directory holding the per-slot sockets *)
  ping_interval_ms : int;  (** monitor health-check period *)
  ping_timeout_ms : int;  (** ping read timeout before a worker counts as wedged *)
  restarts : int;  (** per-slot replacement budget before degradation *)
  retries : int;  (** proxy replays per request (failover budget) *)
  retry_backoff_ms : int;  (** proxy retry base; attempt [n] sleeps [n·base] *)
  strict : bool;  (** stop the fleet when a slot degrades *)
  fault : Diag.Fault.t option;  (** front-door fault ([Kill_worker]) *)
  limits : Admit.limits;
      (** front-door overload limits: connection bound (accept-then-shed)
          and idle-sweeper timeout for front-door connections. In-flight
          bounds live in the {e workers}; the front door reacts to their
          busy responses by re-routing. *)
}

(** 2 workers, 100ms ping interval, 250ms ping timeout, 3 restarts,
    10 retries at 40ms base (≈2.2s failover budget), not strict,
    {!Admit.default_limits}. *)
val default_settings : dir:string -> settings

(** A snapshot; [served] and [contained] come from the op table. *)
type counters = {
  mutable served : int;  (** requests answered (local + proxied) *)
  mutable contained : int;
      (** requests answered by the containment wrapper, malformed frames
          included *)
  mutable failovers : int;  (** proxy replays after a dropped/refused attempt *)
  mutable replaced : int;  (** workers crash-replaced by the monitor *)
}

type t

(** Create the fleet directory, spawn the workers, wait until every socket
    accepts, and start the ping monitor.
    @raise Failure if a worker never starts listening. *)
val create : settings:settings -> spawner:spawner -> unit -> t

val settings : t -> settings
val counters : t -> counters

(** The front door's admission state (connection shed / idle-close
    counters, also surfaced by [fleet-status]). *)
val admit : t -> Admit.t

(** The worker socket path a request with these [op]/[params] routes to
    right now. Exposed for the tests (routing determinism). *)
val route_sock : t -> op:string -> params:Json.t -> string

(** True once any slot has exhausted its restart budget. Under [strict]
    this also stops {!serve}; [vrpd --fleet] maps it to exit 3. *)
val degraded : t -> bool

(** Handle one request — route, proxy, contain — independent of any
    socket. The seam the tests drive in-process. *)
val handle : t -> Protocol.request -> Protocol.response

(** Accept and serve connections until {!stop} (or a [shutdown] request).
    Same contract as {!Server.serve}. *)
val serve : t -> Unix.file_descr -> unit

val stop : t -> unit
val stopping : t -> bool

(** Stop the monitor, kill every worker and wait for teardown, release the
    accept state. Idempotent. *)
val shutdown : t -> unit

(** A spawner running each worker as a {!Server.t} on a thread inside this
    process — the tests' stand-in for [vrpd] child processes.
    [worker_settings] configures each spawned server (e.g. a shared
    [cache_dir], or a [Slow_worker] fault). *)
val in_process_spawner : ?worker_settings:Server.settings -> unit -> spawner
