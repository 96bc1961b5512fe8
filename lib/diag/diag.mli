(** Structured diagnostics for the analysis stack (resilience layer): a
    per-run collector of machine-readable degradation events threaded
    through the engine, the interprocedural driver and the pipeline, plus
    deterministic fault injection for the tests and the CLI. The prediction
    map stays total; the report says what degraded and why. *)

type severity = Info | Warning | Error

(** [Warning]-or-worse kinds mark degradation: the run completed but some
    result is less precise than the analysis could ideally deliver. *)
type kind =
  | Budget_exhausted  (** the engine's fuel ran out before the fixed point *)
  | Widened  (** a value was forcibly widened to ⊥ (quota or growth cap) *)
  | Analysis_crashed  (** a per-function analysis raised; function demoted *)
  | Fallback_heuristic  (** a branch was predicted by Ball–Larus, not VRP *)
  | Front_end_error  (** parse / type / IR-check failure *)
  | Fault_injected  (** a deterministic test fault fired *)
  | Deadline_exceeded  (** a supervised task overran its wall-clock deadline *)
  | Note  (** free-form informational event *)

type location = { fn : string option; block : int option }

val no_loc : location

type diag = {
  severity : severity;
  kind : kind;
  loc : location;
  message : string;
}

(** A per-run collector; diagnostics are kept in emission order. *)
type report

val create : unit -> report
val add : report -> ?fn:string -> ?block:int -> severity -> kind -> string -> unit
val to_list : report -> diag list

(** [append report diags] adds [diags] to [report] in list order. *)
val append : report -> diag list -> unit

(** [merge ~into from] appends every diagnostic of [from] to [into] in
    [from]'s emission order. Used by the parallel scheduler to combine
    per-task reports deterministically. *)
val merge : into:report -> report -> unit
val count : report -> int
val count_kind : report -> kind -> int

(** True when any diagnostic is [Warning] or worse. Drives [--strict]. *)
val degraded : report -> bool

val severity_to_string : severity -> string
val kind_to_string : kind -> string
val location_to_string : location -> string
val diag_to_string : diag -> string

(** One line per diagnostic plus a summary line. *)
val render : report -> string

(** Cooperative cancellation by deadline: a domain-safe token carrying an
    absolute wall-clock instant. A worker calls {!Cancel.check} at its safe
    points and raises {!Cancel.Cancelled} once the instant has passed —
    this is how a hung analysis is broken out of. No other domain or thread
    watches the clock. *)
module Cancel : sig
  type token

  exception Cancelled of string
  (** Raised by a worker whose deadline passed; the argument names the task
      that was cut short. *)

  (** A token that fires at [deadline], a [Unix.gettimeofday] instant. *)
  val make : deadline:float -> token

  (** True once some {!check} has seen the deadline pass: the run holding
      the token was cut short. *)
  val cancelled : token -> bool

  (** Raise {!Cancelled} carrying [name] if the deadline has passed,
      marking the token cancelled. *)
  val check : token -> name:string -> unit
end

(** Deterministic fault injection: pure configuration, no global state. *)
module Fault : sig
  type t =
    | Crash_fn of string
        (** raise {!Injected} while analysing this function *)
    | Starve_fuel of string
        (** give this function's analysis almost no fuel *)
    | Trip_after of int
        (** raise {!Injected} after N engine steps in any function *)
    | Hang_fn of string
        (** wedge this function's analysis until its deadline breaks it
            out *)
    | Crash_file of string
        (** crash the batch task of any file whose name contains this
            substring (outside per-function containment) *)
    | Corrupt_cache of int
        (** corrupt every Nth entry written to the cache's disk tier *)
    | Skew_range of string
        (** off-by-one the final ranges of this function — a deliberately
            unsound result used to prove the fuzzing oracles catch one *)
    | Kill_worker of int
        (** fleet chaos: the front door force-kills the routed worker on
            every Nth proxied request, just before forwarding *)
    | Slow_worker of int
        (** wedge a worker: every request it handles (pings included)
            sleeps N ms first, so a fleet's health check sees it as hung *)
    | Flood_conns of int
        (** transport chaos, enacted by the client: open N idle raw
            connections around the real request, driving the daemon into
            its connection-capacity shed path *)
    | Stall_frame of int
        (** transport chaos, enacted by the client: stall N ms after a
            partial frame header on a throwaway connection — the idle
            sweeper must disconnect it *)

  exception Injected of string

  val to_string : t -> string

  (** Human-readable list of the accepted spec forms. *)
  val spec_help : string

  (** Parse a CLI spec: [crash:FN], [fuel:FN], [steps:N],
      [hang:FN], [crash-file:NAME], [corrupt-cache:N], [skew:FN],
      [kill-worker:N], [slow-worker:MS],
      [flood-conns:N] or [stall-frame:MS]. *)
  val parse : string -> (t, string) result
end
