(** Client side of the vrpd wire protocol — used by [vrpc remote ...], the
    tests and perfbench's [serve_mixed] workload.

    An address is either a Unix-domain socket path (contains a [/] or no
    [:]) or [HOST:PORT] for a TCP daemon started with [vrpd --listen]. *)

type conn

(** The conventional default daemon address shared by [vrpd] and
    [vrpc remote]: [vrpd.sock] in the system temp directory. *)
val default_address : unit -> string

(** How an address string is interpreted: a Unix path (contains [/] or no
    [:]), else [HOST:PORT] split on the {e last} colon with [\[...\]]
    brackets stripped from an IPv6 host; a string that fails to parse as
    [HOST:PORT] falls back to a Unix path. Exposed for the tests. *)
val parse_addr : string -> [ `Unix of string | `Tcp of string * int ]

(** Connect to an address. @raise Unix.Unix_error / Failure on refusal. *)
val connect : string -> conn

(** Connect and return the raw descriptor — the transport seam for chaos
    clients that hold idle connections or speak partial frames
    ([flood-conns], [stall-frame]). Caller closes it.
    @raise Unix.Unix_error / Failure like {!connect}. *)
val connect_fd : string -> Unix.file_descr

(** Send one request and wait for its response; request ids are assigned
    sequentially per connection and checked against the response echo.
    @raise Failure on a protocol violation or a dropped connection. *)
val request : conn -> op:string -> ?params:Json.t -> unit -> Protocol.response

val close : conn -> unit

(** [with_connection addr f] connects, runs [f] and always closes. *)
val with_connection : string -> (conn -> 'a) -> 'a

(** [request_retry ~addr ~op ()] sends one request on a fresh connection,
    retrying with exponential backoff and deterministic jitter (seeded by
    [seed], the address and the op) when the connection is refused or
    dropped mid-request — the signature of a fleet worker being
    crash-replaced under us. All vrpd analysis ops are idempotent, so the
    replay against the replacement worker answers byte-identically. A
    [busy] response (an overloaded daemon shedding the request) is also
    replayed, after sleeping its [retry_after_ms] hint plus jitter — so a
    client waiting out a saturated daemon eventually gets the same answer
    an idle daemon gives. Retry stops after [attempts] tries (default 8,
    backoff base [backoff_ms] default 25, capped at ~2s per wait), and an
    exhausted busy ladder returns the busy response itself; non-transient
    errors — protocol violations, mismatched response ids — are never
    retried.
    @raise Unix.Unix_error / Failure like {!request} once out of tries. *)
val request_retry :
  ?attempts:int ->
  ?backoff_ms:int ->
  ?seed:int ->
  addr:string ->
  op:string ->
  ?params:Json.t ->
  unit ->
  Protocol.response
