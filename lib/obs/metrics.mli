(** Process-wide metrics registry with Prometheus text exposition.

    Dependency-free (stdlib + unix) so every layer of the stack can link
    it: counters, gauges and fixed-bucket histograms registered by name +
    label set, aggregated on read, rendered in the Prometheus text format
    (v0.0.4).

    Concurrency model: registration is mutex-guarded (rare, idempotent)
    but the hot-path cells never take a lock — counters are sharded per
    domain ([inc] is a fetch-and-add on a domain-private atomic, [value]
    sums the shards so increments are never lost across domains), gauges
    are one atomic float, histograms one atomic count per bucket plus an
    atomic sum. Reads are racy snapshots by design: they never block
    writers and are monotonic per cell, which is all a scraper needs. *)

type counter
type gauge
type histogram

(** A metric namespace. Most callers use the implicit {!default}; tests
    create private registries so assertions don't see process-wide
    state. *)
type registry

val create : unit -> registry

(** The process-wide registry every [?registry]-defaulted call targets —
    what [vrpd]'s [metrics] op renders, next to the daemon's own
    {!sample}s. *)
val default : registry

(** Find-or-create: the same (name, label set) always yields the same
    cell, so metric definitions can live at their use sites.
    @raise Invalid_argument if the name is already registered as a
    different metric kind. *)
val counter :
  ?registry:registry -> ?help:string -> ?labels:(string * string) list ->
  string -> counter

val gauge :
  ?registry:registry -> ?help:string -> ?labels:(string * string) list ->
  string -> gauge

(** Default latency buckets (seconds), log-spaced 0.5ms..10s. *)
val default_buckets : float list

(** @raise Invalid_argument on empty or non-increasing [buckets]. *)
val histogram :
  ?registry:registry -> ?help:string -> ?labels:(string * string) list ->
  ?buckets:float list -> string -> histogram

val inc : ?by:int -> counter -> unit

(** Sum over the per-domain shards. *)
val value : counter -> int

val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** [time h f] runs [f], records its wall-clock duration (seconds) in [h]
    — also when [f] raises — and returns its result. *)
val time : histogram -> (unit -> 'a) -> 'a

val hist_count : histogram -> int
val hist_sum : histogram -> float

(** Zero a counter's shards (tests; the exposition never resets). *)
val reset_counter : counter -> unit

(** Zero every cell in the registry, keeping the registrations. *)
val reset : ?registry:registry -> unit -> unit

(** A series whose value its owner reads from its own record at scrape
    time, so the exposition and that record cannot differ. Samples are
    never stored in a registry. *)
type sample

val counter_sample :
  ?help:string -> ?labels:(string * string) list -> string -> int -> sample

val gauge_sample :
  ?help:string -> ?labels:(string * string) list -> string -> float -> sample

(** Prometheus text exposition of the registry plus [samples]: one
    [# HELP]/[# TYPE] block per metric name, series sorted by (name,
    labels), label values escaped, histograms rendered as cumulative
    [_bucket{le=...}] lines plus [+Inf], [_sum] and [_count]. Pure read —
    rendering twice with no writes in between yields identical text. *)
val render : ?registry:registry -> ?samples:sample list -> unit -> string
