(** Instrumentation counters for the paper's complexity figures and the
    resilience layer's governors.

    Figure 5 plots the number of {e expression evaluations} (counted by the
    propagation engine) and Figure 6 the number of {e evaluation
    sub-operations} — the primitive operations on pairs of ranges — against
    program size. Every range-pair primitive in this library ticks the
    sub-operation counter.

    Counters used to be a single global [ref], which meant nested or
    interleaved analyses (interprocedural rounds re-entering the engine, an
    evaluation harness wrapping a pipeline run) smeared each other's
    figures. They are now {e scoped frames} returned by value: every
    {!with_counters} call opens a fresh frame, an event is recorded once in
    the innermost open frame, and a closing frame hands its totals down to
    the frame below it, or to the registry when it is the outermost. *)

type t = {
  mutable evaluations : int;  (** engine expression evaluations (Figure 5) *)
  mutable sub_ops : int;  (** range-pair primitives (Figure 6) *)
  mutable widenings : int;  (** forced widenings to ⊥ (quota / growth cap) *)
  mutable fuel_exhaustions : int;  (** engine runs that ran out of fuel *)
}

(* Process-wide totals live in the metrics registry as per-domain-sharded
   counters, so no increment is lost when worker domains record
   concurrently. They receive the events no frame is open for, and the
   totals of every outermost frame when it closes. *)
let evaluations_total =
  Vrp_obs.Metrics.counter
    ~help:"Engine expression evaluations (paper Figure 5)"
    "vrp_engine_evaluations_total"

let sub_ops_total =
  Vrp_obs.Metrics.counter
    ~help:"Range-pair primitive sub-operations (paper Figure 6)"
    "vrp_engine_sub_ops_total"

let widenings_total =
  Vrp_obs.Metrics.counter ~help:"Forced widenings to bottom (quota/growth cap)"
    "vrp_engine_widenings_total"

let fuel_exhaustions_total =
  Vrp_obs.Metrics.counter ~help:"Engine runs that ran out of fuel"
    "vrp_engine_fuel_exhaustions_total"

(* Scoped frames are domain-local, innermost first: analyses running on
   scheduler worker domains each record into their own stack, so concurrent
   per-function runs cannot corrupt each other's frames. A frame opened on
   one domain therefore does not observe work done on another — per-run
   totals for parallel batch work are aggregated from the per-function
   [Engine.t] fields instead (and from the registry totals above). *)
let frames : t list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let flush c ~into =
  match into with
  | p :: _ ->
    p.evaluations <- p.evaluations + c.evaluations;
    p.sub_ops <- p.sub_ops + c.sub_ops;
    p.widenings <- p.widenings + c.widenings;
    p.fuel_exhaustions <- p.fuel_exhaustions + c.fuel_exhaustions
  | [] ->
    Vrp_obs.Metrics.inc ~by:c.evaluations evaluations_total;
    Vrp_obs.Metrics.inc ~by:c.sub_ops sub_ops_total;
    Vrp_obs.Metrics.inc ~by:c.widenings widenings_total;
    Vrp_obs.Metrics.inc ~by:c.fuel_exhaustions fuel_exhaustions_total

(* Closing removes the frame by identity rather than popping the head:
   system threads share their domain's stack, so frames of two threads may
   close out of order. Either way the totals go to a frame still open (or
   the registry), never to one already closed. *)
let rec close frame = function
  | [] -> []
  | c :: below when c == frame ->
    flush frame ~into:below;
    below
  | c :: rest -> c :: close frame rest

let with_counters f =
  let frame = { evaluations = 0; sub_ops = 0; widenings = 0; fuel_exhaustions = 0 } in
  Domain.DLS.set frames (frame :: Domain.DLS.get frames);
  let result =
    Fun.protect ~finally:(fun () -> Domain.DLS.set frames (close frame (Domain.DLS.get frames))) f
  in
  (result, frame)

let record bump cell =
  match Domain.DLS.get frames with c :: _ -> bump c | [] -> Vrp_obs.Metrics.inc cell

let tick () = record (fun c -> c.sub_ops <- c.sub_ops + 1) sub_ops_total
let record_evaluation () = record (fun c -> c.evaluations <- c.evaluations + 1) evaluations_total
let record_widening () = record (fun c -> c.widenings <- c.widenings + 1) widenings_total

let record_fuel_exhaustion () =
  record (fun c -> c.fuel_exhaustions <- c.fuel_exhaustions + 1) fuel_exhaustions_total
