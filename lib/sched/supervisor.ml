(** Task supervision: deadlines (see the interface). *)

module Diag = Vrp_diag.Diag
module Engine = Vrp_core.Engine
module Ir = Vrp_ir.Ir
module Interproc = Vrp_core.Interproc

type counters = {
  mutable deadline_hits : int;
  mutable gave_up : int;
}

(* A running supervised task, visible to the monitor domain. *)
type running = {
  token : Diag.Cancel.token;
  deadline : float;  (* absolute, Unix.gettimeofday clock *)
}

type t = {
  deadline_ms : int option;
  lock : Mutex.t;  (* guards registry, next_id and counters *)
  registry : (int, running) Hashtbl.t;
  mutable next_id : int;
  c : counters;
  stop : bool Atomic.t;
  mutable monitor : unit Domain.t option;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The monitor never touches reports or results: it only flips cancellation
   flags and bumps counters, so all observable diagnostics are emitted from
   the worker that owns the task — no cross-domain races on reports. *)
let monitor_loop t () =
  while not (Atomic.get t.stop) do
    locked t (fun () ->
        let now = Unix.gettimeofday () in
        Hashtbl.iter
          (fun _ r ->
            if now > r.deadline && not (Diag.Cancel.cancelled r.token) then begin
              Diag.Cancel.cancel r.token;
              t.c.deadline_hits <- t.c.deadline_hits + 1
            end)
          t.registry);
    Unix.sleepf 0.002
  done

let create ?deadline_ms () =
  let t =
    {
      deadline_ms;
      lock = Mutex.create ();
      registry = Hashtbl.create 32;
      next_id = 0;
      c = { deadline_hits = 0; gave_up = 0 };
      stop = Atomic.make false;
      monitor = None;
    }
  in
  (* No deadline means nothing to watch: skip the monitor domain so a
     supervisor without one costs nothing at idle. A per-call deadline
     arriving later spawns it lazily (see [ensure_monitor]). *)
  (match deadline_ms with
  | None -> ()
  | Some _ -> t.monitor <- Some (Domain.spawn (monitor_loop t)));
  t

(* Lazy monitor spawn for supervisors created without a deadline
   whose first per-call deadline arrives mid-life. Under the lock so two
   racing registrations spawn one monitor; never after shutdown. *)
let ensure_monitor t =
  locked t (fun () ->
      if t.monitor = None && not (Atomic.get t.stop) then
        t.monitor <- Some (Domain.spawn (monitor_loop t)))

let shutdown t =
  Atomic.set t.stop true;
  Option.iter Domain.join t.monitor;
  t.monitor <- None

let with_supervisor ?deadline_ms f =
  let t = create ?deadline_ms () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let counters t =
  locked t (fun () ->
      { deadline_hits = t.c.deadline_hits; gave_up = t.c.gave_up })

let counters_line t =
  let c = counters t in
  Printf.sprintf "supervision: %d deadline hit(s), %d task(s) gave up" c.deadline_hits
    c.gave_up

let samples t =
  let c = counters t and counter = Vrp_obs.Metrics.counter_sample in
  [
    counter ~help:"Supervised tasks cancelled by deadline" "vrp_sched_deadline_hits_total"
      c.deadline_hits;
    counter ~help:"Supervised tasks that failed" "vrp_sched_gave_up_total" c.gave_up;
  ]

let register t ?deadline_ms token =
  (* A per-call deadline overrides the supervisor's; callers that want the
     tighter of the two (e.g. a propagated request budget under a server
     deadline) take the min before calling. *)
  let eff =
    match deadline_ms with Some _ -> deadline_ms | None -> t.deadline_ms
  in
  (match eff with Some _ -> ensure_monitor t | None -> ());
  locked t (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      (match eff with
      | None -> ()
      | Some ms ->
        let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
        Hashtbl.replace t.registry id { token; deadline });
      id)

let unregister t id = locked t (fun () -> Hashtbl.remove t.registry id)

let supervise t ~name ?deadline_ms ?report f =
  let token = Diag.Cancel.make () in
  let id = register t ?deadline_ms token in
  match Fun.protect ~finally:(fun () -> unregister t id) (fun () -> f token) with
  | v -> v
  | exception e ->
    (* Deterministic message: never include wall-clock measurements, so
       reports stay byte-identical across jobs counts and machine load. *)
    (match (e, report) with
    | Diag.Cancel.Cancelled _, Some r ->
      Diag.add r ~fn:name Diag.Warning Diag.Deadline_exceeded
        (Printf.sprintf "deadline exceeded in %s; analysis cancelled" name)
    | _ -> ());
    locked t (fun () -> t.c.gave_up <- t.c.gave_up + 1);
    raise e

let wrap_analyze_fn t (inner : Interproc.analyze_fn) : Interproc.analyze_fn =
 fun ~config ~report ~call_oracle ~param_values fn ->
  let name = fn.Ir.fname in
  supervise t ~name ?report (fun token ->
      inner
        ~config:{ config with Engine.cancel = Some token }
        ~report ~call_oracle ~param_values fn)
