(** Instrumentation counters: scoped per-run frames returned by value.
    Every range-pair primitive ticks [sub_ops] (Figure 6's "evaluation
    sub-operations"); the engine records evaluations, widenings and fuel
    exhaustions. {!with_counters} opens a fresh frame. An event is recorded
    once: in the innermost open frame of its domain, or in the process-wide
    [vrp_engine_*_total] registry cells when none is open. A closing frame
    adds its totals to the frame below it, or to the registry when it is
    outermost, so nested scopes include their children while sibling
    scopes stay isolated, and the registry sees every event exactly once. *)

type t = {
  mutable evaluations : int;  (** engine expression evaluations (Figure 5) *)
  mutable sub_ops : int;  (** range-pair primitives (Figure 6) *)
  mutable widenings : int;  (** forced widenings to ⊥ (quota / growth cap) *)
  mutable fuel_exhaustions : int;  (** engine runs that ran out of fuel *)
}

(** Run [f] with a fresh counter frame; returns its result and the frame's
    totals. Exception-safe: the frame is closed, and its totals passed on,
    even if [f] raises. *)
val with_counters : (unit -> 'a) -> 'a * t

val tick : unit -> unit
val record_evaluation : unit -> unit
val record_widening : unit -> unit
val record_fuel_exhaustion : unit -> unit
