(** Admission control: bounded connections and in-flight work (see the
    interface). *)

type limits = {
  max_conns : int;
  max_inflight : int;
  max_queue : int;
  queue_wait_ms : int;
  idle_timeout_ms : int;
}

let default_limits =
  {
    max_conns = 1024;
    max_inflight = 64;
    max_queue = 256;
    queue_wait_ms = 1000;
    idle_timeout_ms = 10_000;
  }

type counters = {
  mutable admitted : int;
  mutable shed_conns : int;
  mutable shed_requests : int;
  mutable expired : int;
  mutable idle_closed : int;
  mutable peak_inflight : int;
}

type t = {
  limits : limits;
  lock : Mutex.t;
  mutable n_conns : int;
  mutable n_inflight : int;
  mutable n_queued : int;
  c : counters;
}

let create ?(limits = default_limits) () =
  {
    limits;
    lock = Mutex.create ();
    n_conns = 0;
    n_inflight = 0;
    n_queued = 0;
    c =
      {
        admitted = 0;
        shed_conns = 0;
        shed_requests = 0;
        expired = 0;
        idle_closed = 0;
        peak_inflight = 0;
      };
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let limits t = t.limits

let counters t =
  locked t (fun () ->
      {
        admitted = t.c.admitted;
        shed_conns = t.c.shed_conns;
        shed_requests = t.c.shed_requests;
        expired = t.c.expired;
        idle_closed = t.c.idle_closed;
        peak_inflight = t.c.peak_inflight;
      })

let inflight t = locked t (fun () -> t.n_inflight)
let queued t = locked t (fun () -> t.n_queued)
let conns t = locked t (fun () -> t.n_conns)

(* --- Connection slots --- *)

let try_conn t =
  locked t (fun () ->
      if t.n_conns < t.limits.max_conns then begin
        t.n_conns <- t.n_conns + 1;
        true
      end
      else begin
        t.c.shed_conns <- t.c.shed_conns + 1;
        false
      end)

let conn_closed t = locked t (fun () -> t.n_conns <- max 0 (t.n_conns - 1))
let note_idle_closed t = locked t (fun () -> t.c.idle_closed <- t.c.idle_closed + 1)

(* --- Request slots --- *)

(* The hint grows with queue depth so a deeper backlog spreads retries
   further apart; bounded so a shed client never waits out of proportion to
   the queue it would have stood in. *)
let retry_after_locked t = min 1000 (25 * (1 + t.n_queued))
let retry_after_ms t = locked t (fun () -> retry_after_locked t)

type admission = Admitted | Shed of int | Expired

let take_slot_locked t =
  t.n_inflight <- t.n_inflight + 1;
  t.c.admitted <- t.c.admitted + 1;
  t.c.peak_inflight <- max t.c.peak_inflight t.n_inflight

(* OCaml's Condition has no timed wait, so queued requests poll for a slot
   at a 2ms period — coarse enough to cost nothing, fine enough that the
   queue drains at request (not deadline) granularity. *)
let admit t ?deadline () =
  let now = Unix.gettimeofday () in
  (* At the instant itself the budget is spent: a 0 ms budget is expired
     on arrival even when the clock has not ticked since. *)
  let expired_at now = match deadline with Some d -> now >= d | None -> false in
  if expired_at now then
    locked t (fun () ->
        t.c.expired <- t.c.expired + 1;
        Expired)
  else
    let verdict =
      locked t (fun () ->
          if t.n_inflight < t.limits.max_inflight then begin
            take_slot_locked t;
            `Admitted
          end
          else if t.n_queued >= t.limits.max_queue then begin
            t.c.shed_requests <- t.c.shed_requests + 1;
            `Shed (retry_after_locked t)
          end
          else begin
            t.n_queued <- t.n_queued + 1;
            let give_up = now +. (float_of_int t.limits.queue_wait_ms /. 1000.) in
            `Wait (match deadline with Some d -> Float.min give_up d | None -> give_up)
          end)
    in
    match verdict with
    | `Admitted -> Admitted
    | `Shed ms -> Shed ms
    | `Wait give_up ->
      let rec wait () =
        Thread.delay 0.002;
        let now = Unix.gettimeofday () in
        match
          locked t (fun () ->
              if t.n_inflight < t.limits.max_inflight then begin
                t.n_queued <- t.n_queued - 1;
                take_slot_locked t;
                Some Admitted
              end
              else if now > give_up then begin
                t.n_queued <- t.n_queued - 1;
                if expired_at now then begin
                  t.c.expired <- t.c.expired + 1;
                  Some Expired
                end
                else begin
                  t.c.shed_requests <- t.c.shed_requests + 1;
                  Some (Shed (retry_after_locked t))
                end
              end
              else None)
        with
        | Some verdict -> verdict
        | None -> wait ()
      in
      wait ()

let release t = locked t (fun () -> t.n_inflight <- max 0 (t.n_inflight - 1))

let counters_line t =
  locked t (fun () ->
      Printf.sprintf
        "admission: %d inflight (peak %d), %d queued, %d shed (%d conns, %d requests), %d expired, %d idle-closed"
        t.n_inflight t.c.peak_inflight t.n_queued
        (t.c.shed_conns + t.c.shed_requests)
        t.c.shed_conns t.c.shed_requests t.c.expired t.c.idle_closed)

let samples t =
  let module M = Vrp_obs.Metrics in
  locked t (fun () ->
      [
        M.counter_sample ~help:"Requests admitted through the gate"
          "vrpd_admission_admitted_total" t.c.admitted;
        M.counter_sample ~help:"Connections shed at the accept gate"
          "vrpd_admission_shed_conns_total" t.c.shed_conns;
        M.counter_sample ~help:"Requests shed with a busy response"
          "vrpd_admission_shed_requests_total" t.c.shed_requests;
        M.counter_sample
          ~help:"Requests shed because their deadline expired before dispatch"
          "vrpd_admission_expired_total" t.c.expired;
        M.counter_sample ~help:"Idle connections closed by the sweeper"
          "vrpd_admission_idle_closed_total" t.c.idle_closed;
        M.gauge_sample ~help:"Requests currently holding an in-flight slot"
          "vrpd_inflight" (float_of_int t.n_inflight);
        M.gauge_sample ~help:"Peak concurrent in-flight requests"
          "vrpd_peak_inflight" (float_of_int t.c.peak_inflight);
      ])
