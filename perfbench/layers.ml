(* Per-layer instrumentation from outside the program: layer attribution
   of the program's own spans and of the benchmark's spans around calls into
   public entry points, work counts read at the [Interproc.analyze_fn] seam
   or from the registry, and self-time accounting over the captured span
   tree. *)

module Trace = Vrp_obs.Trace
module Metrics = Vrp_obs.Metrics
module Counters = Vrp_ranges.Counters
module Interproc = Vrp_core.Interproc
module Engine = Vrp_core.Engine
module Ir = Vrp_ir.Ir

(* Registry cells the program already bumps; find-or-create returns the
   program's own counters. *)
let engine_runs = Metrics.counter "vrp_engine_runs_total"
let interproc_rounds = Metrics.counter "vrp_interproc_rounds_total"

type engine_work = {
  mutable calls : int;
  mutable evaluations : int;
  mutable sub_ops : int;
  mutable widenings : int;
  mutable fuel_spent : int;
  mutable alloc_words : float;  (** minor-heap words, on the calling domain *)
}

let engine_work () =
  { calls = 0; evaluations = 0; sub_ops = 0; widenings = 0; fuel_spent = 0; alloc_words = 0. }

(* Wrap an analysis function so every engine run it causes is counted. A
   call that the engine did not run (a summary-cache hit) counts nothing.
   Exact only when one domain runs the analysis. *)
let probe w (inner : Interproc.analyze_fn) : Interproc.analyze_fn =
 fun ~config ~report ~call_oracle ~param_values fn ->
  let runs0 = Metrics.value engine_runs in
  let words0 = Gc.minor_words () in
  let r, c =
    Counters.with_counters (fun () -> inner ~config ~report ~call_oracle ~param_values fn)
  in
  if Metrics.value engine_runs > runs0 then begin
    w.calls <- w.calls + 1;
    w.evaluations <- w.evaluations + c.Counters.evaluations;
    w.sub_ops <- w.sub_ops + c.Counters.sub_ops;
    w.widenings <- w.widenings + c.Counters.widenings;
    w.fuel_spent <- w.fuel_spent + r.Engine.fuel_spent;
    w.alloc_words <- w.alloc_words +. (Gc.minor_words () -. words0)
  end;
  r

(* [f ()] with the engine work it causes, read from the registry and a
   counter frame: for paths with no [Interproc.analyze_fn] seam. Exact only
   when [f] runs on this domain; fuel and allocation are not counted. *)
let engine_registry w f =
  let runs0 = Metrics.value engine_runs in
  let r, c = Counters.with_counters f in
  w.calls <- w.calls + (Metrics.value engine_runs - runs0);
  w.evaluations <- w.evaluations + c.Counters.evaluations;
  w.sub_ops <- w.sub_ops + c.Counters.sub_ops;
  w.widenings <- w.widenings + c.Counters.widenings;
  r

let instrs (p : Ir.program) =
  List.fold_left
    (fun acc (fn : Ir.fn) ->
      Array.fold_left (fun acc (b : Ir.block) -> acc + List.length b.Ir.instrs) acc fn.Ir.blocks)
    0 p.Ir.fns

(* Which layer a span belongs to. [Pipeline.compile]'s own spans give the
   front end and the IR steps; "compile" itself stays unattributed, so its
   children's self time counts. "task" is one [Interproc.analyze_fn] call
   outside the engine: the summary cache's memoizing wrapper when the
   request runs through a cache ([cached]), else the interprocedural
   driver's. "ops" ([Ops.predict_compiled]) and "batch" ([Batch]'s driver
   and render) are the benchmark's own spans. Names without a layer ("op",
   the root of one benchmark operation, "compile" and "predict", a side
   measurement outside it) stay unattributed. *)
let layer_of ~cached = function
  | "parse+check" -> Some "front"
  | "build-cfg" -> Some "ir.build"
  | "ssa" -> Some "ir.ssa"
  | "check-ssa" -> Some "ir.check"
  | "task" -> Some (if cached then "cache" else "interproc")
  | "ops" -> Some "ops"
  | "batch" -> Some "batch"
  | "interproc" | "wave" -> Some "interproc"
  | "engine" | "algebra" -> Some "engine"
  | _ -> None

type breakdown = {
  self_ms : (string * float) list;  (** per layer, self time *)
  op_ms : float;  (** total duration of the root "op" spans *)
  span_ms : string -> float;  (** total duration of the spans of one name *)
}

(* A span's self time is its duration minus the part its children cover.
   Children are found through the parent links of the captured spans. *)
let breakdown ~cached (events : Trace.event list) =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.parent <> 0 then
        Hashtbl.replace child e.Trace.parent
          (e.Trace.dur_us +. Option.value ~default:0. (Hashtbl.find_opt child e.Trace.parent)))
    events;
  let self = Hashtbl.create 16 and by_name = Hashtbl.create 16 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (e : Trace.event) ->
      add by_name e.Trace.name (e.Trace.dur_us /. 1000.);
      match layer_of ~cached e.Trace.name with
      | None -> ()
      | Some l ->
        let c = Option.value ~default:0. (Hashtbl.find_opt child e.Trace.id) in
        add self l ((e.Trace.dur_us -. c) /. 1000.))
    events;
  let span_ms n = Option.value ~default:0. (Hashtbl.find_opt by_name n) in
  {
    self_ms = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []);
    op_ms = span_ms "op";
    span_ms;
  }

let self b l = Option.value ~default:0. (List.assoc_opt l b.self_ms)
