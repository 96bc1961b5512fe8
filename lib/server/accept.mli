(** The shared accept loop and op table: framed request connections
    multiplexed against a self-pipe stop signal, and one dispatcher for
    every request kind.

    Both daemons speak the same wire shape — read a {!Protocol} frame,
    decode a request, answer a response — so the single-process server
    ({!Server}) and the fleet front door ({!Fleet}) each instantiate this
    table and differ only in the handlers they register. The table owns
    the op catalog and its bounded metric label, the per-op request
    counter and latency histogram, served/contained accounting (malformed
    frames included), exception containment, the admission class, and the
    control plane ([ping], [metrics], [shutdown]). Connection handling is
    thread-per-connection (blocking I/O on system threads); decode failures
    and torn frames are answered with {!Protocol.error_response} and never
    escape a connection.

    The {!Admit} state makes the loop overload-hardened: a connection over
    [max_conns] is answered with one structured busy frame and closed
    without spawning a thread (accept-then-shed); accepted sockets are
    armed with [SO_RCVTIMEO]/[SO_SNDTIMEO] at the idle timeout; and a
    sweeper thread shuts down any connection stalled mid-frame (or idle
    between frames) past the idle timeout, so a slow-loris peer loses its
    thread instead of pinning it. Finished connection threads are reaped on
    every accept — a long-lived daemon holds handles proportional to live
    connections, not connections ever accepted. *)

(** Request accounting, one record per daemon. *)
type counters = {
  mutable served : int;  (** requests answered by their handler *)
  mutable contained : int;
      (** requests answered by the containment wrapper, malformed frames
          included *)
  mutable cancelled : int;  (** contained specifically by cancellation *)
}

(** An op handler: the daemon, the request's deadline (the absolute
    [Unix.gettimeofday] instant its [deadline_ms] param names, counted from
    arrival; [None] without one), the request. The table stamps the
    request id on the response. *)
type 'd handler = 'd -> deadline:float option -> Protocol.request -> Protocol.response

(** Raised by a handler whose backend could not answer; contained with
    kind [worker-unavailable]. *)
exception Unavailable of string

(** One daemon's table and loop state. ['d] is the daemon its handlers
    receive. *)
type 'd t

(** [create ~family ~ops ?fallback ~samples ?gate admit]: [family] prefixes
    the per-op series ([FAMILY_requests_total{op}],
    [FAMILY_request_seconds{op}], [FAMILY_uptime_seconds]). Every daemon
    counts [predict], [analyze], [compare], [batch] (the gated analysis
    class), [status], [evict], [ping], [metrics] and [shutdown], in that
    status order; [ops] are the daemon's handlers, and their names outside
    that catalog extend its label set, in which any other op is counted as
    [unknown]; [fallback] answers ops without a handler (absent, they are
    contained as [bad-request]); [samples] renders the daemon's own records at scrape time,
    next to the table's uptime and [admit]'s counters. With [gate] the
    analysis ops take an [admit] in-flight slot, shedding with a [busy]
    response over capacity and as [deadline-expired] past their
    propagated [deadline_ms]; the control plane always answers. [admit]
    also bounds connections and drives the idle sweeper. *)
val create :
  family:string ->
  ops:(string * 'd handler) list ->
  ?fallback:'d handler ->
  samples:('d -> Vrp_obs.Metrics.sample list) ->
  ?gate:bool ->
  Admit.t ->
  'd t

val counters : 'd t -> counters

(** Unix time of {!create}. *)
val started : 'd t -> float

(** The [deadline-expired] error response: the request's deadline passed
    before it was dispatched. *)
val expired_response : rid:int -> Protocol.response

(** A successful response carrying an outcome. *)
val reply : ?data:(string * Json.t) list -> Ops.outcome -> Protocol.response

(** The [uptime:] and [ops:] status lines and their JSON fields
    ([uptime_s], [requests_total], [ops]). *)
val status_lines : 'd t -> string * (string * Json.t) list

(** Handle one request through the table — admission, dispatch,
    accounting, containment — independent of any socket. *)
val handle : 'd t -> 'd -> Protocol.request -> Protocol.response

(** Accept connections on [listen_fd] until {!stop} (or a [shutdown]
    request, once its response is on the wire), spawning one handler thread per connection
    that answers each decoded request with [handle] (the daemon's wrapper
    around {!handle}). Should [handle] raise, the request is answered with
    an [internal] {!Protocol.error_response}, counted [contained], and the
    connection keeps serving. On exit, wakes every in-flight connection and joins
    its thread, then rearms so a later [serve] on the same [t] starts
    clean. Does not close [listen_fd]. *)
val serve : 'd t -> handle:(Protocol.request -> Protocol.response) -> Unix.file_descr -> unit

(** Ask {!serve} to return now. Safe from any thread or signal handler;
    idempotent. *)
val stop : 'd t -> unit

(** True once a stop was requested. *)
val stopping : 'd t -> bool

(** Release the stop pipe. Call after the final {!serve}. Idempotent. *)
val close : 'd t -> unit
