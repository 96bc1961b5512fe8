(** Shared accept loop and op table for vrpd and the fleet front door (see
    the interface). *)

module Diag = Vrp_diag.Diag
module Metrics = Vrp_obs.Metrics

(* One accepted connection. [read_started] is the wall-clock instant its
   thread entered a blocking frame read (0. while handling a request), the
   signal the idle sweeper keys off: a connection stalled mid-frame — or
   idle between frames — longer than the admission idle timeout is shut
   down so a slow-loris peer cannot pin a handler thread. *)
type conn = {
  fd : Unix.file_descr;
  mutable read_started : float;
}

type counters = {
  mutable served : int;
  mutable contained : int;
  mutable cancelled : int;
}

type 'd handler = 'd -> deadline:float option -> Protocol.request -> Protocol.response

exception Unavailable of string

type 'd t = {
  state_lock : Mutex.t;  (* connection registry, counters *)
  mutable stop_requested : bool;
  stop_rd : Unix.file_descr;
  stop_wr : Unix.file_descr;
  pipe_lock : Mutex.t;  (* [stop]'s wake-up write vs [close] *)
  mutable conns : conn list;
  mutable closed : bool;
  family : string;
  names : string list;  (* op labels, in status order *)
  ops : (string * 'd handler) list;
  fallback : 'd handler option;
  samples : 'd -> Metrics.sample list;
  admit : Admit.t;
  gate : bool;
  counters : counters;
  started : float;
}

(* The ops both daemons count, in status order; a daemon's own extra ops
   follow them. The analysis ops are the gated admission class. *)
let catalog =
  [ "predict"; "analyze"; "compare"; "batch"; "status"; "evict"; "ping"; "metrics"; "shutdown" ]

let expired_response ~rid =
  Protocol.error_response ~rid ~kind:"deadline-expired" "request deadline expired before dispatch"

let gated_op = function "predict" | "analyze" | "compare" | "batch" -> true | _ -> false

let create ~family ~ops ?fallback ~samples ?(gate = false) admit =
  let stop_rd, stop_wr = Unix.pipe () in
  {
    state_lock = Mutex.create ();
    stop_requested = false;
    stop_rd;
    stop_wr;
    pipe_lock = Mutex.create ();
    conns = [];
    closed = false;
    family;
    names = catalog @ List.filter (fun n -> not (List.mem n catalog)) (List.map fst ops);
    ops;
    fallback;
    samples;
    admit;
    gate;
    counters = { served = 0; contained = 0; cancelled = 0 };
    started = Unix.gettimeofday ();
  }

let locked t f =
  Mutex.lock t.state_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.state_lock) f

let request_stop t = t.stop_requested <- true
let stopping t = t.stop_requested

let stop t =
  t.stop_requested <- true;
  (* Wake the accept loop; EAGAIN on a full pipe is as good as a byte.
     Never after [close]: the descriptor may by then belong to a
     connection. A held lock means [close] or another [stop] is running,
     so no byte is needed here; [try_lock] keeps a signal handler from
     blocking. *)
  if Mutex.try_lock t.pipe_lock then begin
    (if not t.closed then
       try ignore (Unix.write t.stop_wr (Bytes.of_string "x") 0 1) with _ -> ());
    Mutex.unlock t.pipe_lock
  end

let register_conn t fd =
  let c = { fd; read_started = 0. } in
  locked t (fun () -> t.conns <- c :: t.conns);
  c

let close_conn t c =
  locked t (fun () ->
      if List.memq c t.conns then begin
        t.conns <- List.filter (fun c' -> c' != c) t.conns;
        try Unix.close c.fd with _ -> ()
      end)

let conn_loop t ~handle c =
  let fd = c.fd in
  let answer resp =
    try Protocol.write_frame fd (Protocol.encode_response resp) with _ -> ()
  in
  let contain ~rid ~kind msg =
    locked t (fun () -> t.counters.contained <- t.counters.contained + 1);
    answer (Protocol.error_response ~rid ~kind msg)
  in
  let read_one () =
    c.read_started <- Unix.gettimeofday ();
    Fun.protect ~finally:(fun () -> c.read_started <- 0.) (fun () ->
        Protocol.read_frame fd)
  in
  let rec loop () =
    match read_one () with
    | None -> ()
    | Some payload ->
      (match Protocol.decode_request payload with
      | Error msg -> contain ~rid:0 ~kind:"bad-request" msg
      | Ok req ->
        (* [handle] contains every exception of its own; one that still
           escapes is a handler bug, answered and counted like a bad frame
           so the connection keeps serving. *)
        (match handle req with
        | resp -> answer resp
        | exception e -> contain ~rid:req.Protocol.id ~kind:"internal" (Printexc.to_string e));
        (* A shutdown request stops the daemon only after its response is
           on the wire, so the requesting client gets its acknowledgment. *)
        if t.stop_requested then stop t);
      if not t.stop_requested then loop ()
    | exception Failure msg ->
      answer (Protocol.error_response ~rid:0 ~kind:"bad-frame" msg)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* SO_RCVTIMEO fired: the peer stalled mid-frame past the idle
         budget. Same verdict as a sweeper close, counted the same way. *)
      Admit.note_idle_closed t.admit
    | exception Unix.Unix_error _ -> ()
  in
  (* However the loop ends, the socket and its connection slot are
     released, so the peer reads EOF at once. *)
  Fun.protect
    ~finally:(fun () ->
      close_conn t c;
      Admit.conn_closed t.admit)
    loop

(* Arm the kernel-side stall guards. SO_RCVTIMEO bounds each blocking read
   (so a frame must keep arriving) and SO_SNDTIMEO each blocking write (so
   a peer that stops draining its response cannot pin the thread); the
   sweeper remains the backstop for byte-at-a-time trickle, which resets
   the kernel timers but not [read_started]. *)
let arm_timeouts fd ~idle_timeout_ms =
  if idle_timeout_ms > 0 then begin
    let secs = float_of_int idle_timeout_ms /. 1000. in
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO secs with _ -> ());
    try Unix.setsockopt_float fd Unix.SO_SNDTIMEO secs with _ -> ()
  end

(* Accept-then-shed: over [max_conns] the connection is answered with one
   structured busy frame (rid 0 — no request was read) and closed without
   spawning a thread, so the client learns why instead of hanging. *)
let shed_conn admit fd =
  arm_timeouts fd ~idle_timeout_ms:1000;
  (try
     Protocol.write_frame fd
       (Protocol.encode_response
          (Protocol.busy_response ~rid:0
             ~retry_after_ms:(Admit.retry_after_ms admit)
             (Printf.sprintf "server at connection capacity (%d); retry later"
                (Admit.limits admit).Admit.max_conns)))
   with _ -> ());
  try Unix.close fd with _ -> ()

let sweeper_loop t stop_flag () =
  let admit = t.admit in
  let timeout_ms = (Admit.limits admit).Admit.idle_timeout_ms in
  let timeout = float_of_int timeout_ms /. 1000. in
  while not (Atomic.get stop_flag) do
    let now = Unix.gettimeofday () in
    locked t (fun () ->
        List.iter
          (fun c ->
            if c.read_started > 0. && now -. c.read_started > timeout then begin
              (* Reset the mark so one stall is counted (and shut down)
                 once; the owning thread's read then sees EOF and closes. *)
              c.read_started <- 0.;
              Admit.note_idle_closed admit;
              try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ()
            end)
          t.conns);
    Thread.delay (Float.min 0.05 (Float.max 0.005 (timeout /. 4.)))
  done

(* --- The op table --- *)

let counters t = t.counters
let started t = t.started
let uptime t = Unix.gettimeofday () -. t.started

let reply ?(data = []) (o : Ops.outcome) =
  { Protocol.rid = 0; ok = true; code = o.Ops.code; out = o.Ops.out; err = o.Ops.err; data }

(* Bound label cardinality: unknown client-supplied op strings collapse to
   one series instead of minting one per typo. *)
let label t op = if List.mem op t.names then op else "unknown"

let requests t op =
  Metrics.counter ~help:"Requests handled, by operation" ~labels:[ ("op", label t op) ]
    (t.family ^ "_requests_total")

let request_seconds t op =
  Metrics.histogram ~help:"Request latency in seconds, by operation"
    ~labels:[ ("op", label t op) ] (t.family ^ "_request_seconds")

let status_lines t =
  let uptime = uptime t in
  let op_counts = List.map (fun op -> (op, Metrics.value (requests t op))) t.names in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 op_counts in
  ( Printf.sprintf "uptime: %.1fs\nops: %d total (%s)\n" uptime total
      (String.concat ", " (List.map (fun (op, n) -> Printf.sprintf "%s %d" op n) op_counts)),
    [
      ("uptime_s", Json.Float uptime);
      ("requests_total", Json.Int total);
      ("ops", Json.Obj (List.map (fun (op, n) -> (op, Json.Int n)) op_counts));
    ] )

(* Ping doubles as the fleet's load probe: inflight/capacity/shed let the
   front door route around saturated workers, not just dead ones. Only a
   gated daemon has an in-flight capacity to report. *)
let ping t =
  let a = Admit.counters t.admit in
  reply
    ~data:
      ([ ("pong", Json.Bool true); ("pid", Json.Int (Unix.getpid ()));
         ("inflight", Json.Int (Admit.inflight t.admit)) ]
      @ (if t.gate then [ ("capacity", Json.Int (Admit.limits t.admit).Admit.max_inflight) ]
         else [])
      @ [ ("shed", Json.Int (a.Admit.shed_conns + a.Admit.shed_requests)) ])
    { Ops.out = ""; err = ""; code = 0 }

(* The control plane (ping, metrics, shutdown) is answered here for both
   daemons. The scrape renders the registry plus the daemon's records, so
   it reads the same store as the status text. *)
let dispatch t d ~deadline (req : Protocol.request) =
  match req.Protocol.op with
  | "ping" -> ping t
  | "metrics" ->
    let uptime =
      Metrics.gauge_sample ~help:"Uptime in seconds" (t.family ^ "_uptime_seconds") (uptime t)
    in
    reply
      { Ops.out = Metrics.render ~samples:((uptime :: Admit.samples t.admit) @ t.samples d) ();
        err = ""; code = 0 }
  | "shutdown" ->
    request_stop t;
    reply ~data:[ ("stopping", Json.Bool true) ] { Ops.out = ""; err = ""; code = 0 }
  | op -> (
    match (List.assoc_opt op t.ops, t.fallback) with
    | Some h, _ | None, Some h -> h d ~deadline req
    | None, None -> failwith (Printf.sprintf "unknown op %S" op))

let handle t d (req : Protocol.request) =
  let op = req.Protocol.op and rid = req.Protocol.id in
  let contained ?(cancelled = false) ~kind msg =
    locked t (fun () ->
        t.counters.contained <- t.counters.contained + 1;
        if cancelled then t.counters.cancelled <- t.counters.cancelled + 1);
    Protocol.error_response ~rid ~kind msg
  in
  (* The client's deadline_ms param is a relative budget stamped at send
     time; it becomes an absolute instant once, on arrival, so the wait for
     an in-flight slot is charged against it and a handler (or a proxy hop)
     sees the time that remains, never a fresh budget. *)
  let deadline =
    match Json.mem_int "deadline_ms" req.Protocol.params with
    | Some ms when ms >= 0 -> Some (Unix.gettimeofday () +. (float_of_int ms /. 1000.))
    | _ -> None
  in
  let run () =
    Metrics.inc (requests t op);
    Metrics.time (request_seconds t op) @@ fun () ->
    Vrp_obs.Trace.with_span ("op:" ^ label t op) @@ fun () ->
    match dispatch t d ~deadline req with
    | resp ->
      locked t (fun () -> t.counters.served <- t.counters.served + 1);
      { resp with Protocol.rid }
    | exception Diag.Fault.Injected msg -> contained ~kind:"fault-injected" msg
    | exception Diag.Cancel.Cancelled name ->
      contained ~cancelled:true ~kind:"cancelled" ("request cancelled: " ^ name)
    | exception Unavailable msg -> contained ~kind:"worker-unavailable" msg
    | exception Failure msg -> contained ~kind:"bad-request" msg
    | exception e -> contained ~kind:"crashed" (Printexc.to_string e)
  in
  if not (t.gate && gated_op op) then run ()
  else begin
    (* A request that would start already-expired is shed, never
       dispatched. *)
    let expired () = expired_response ~rid in
    match Admit.admit t.admit ?deadline () with
    | Admit.Shed retry_after_ms ->
      Protocol.busy_response ~rid ~retry_after_ms
        (Printf.sprintf "server at capacity (%d in flight); retry later"
           (Admit.limits t.admit).Admit.max_inflight)
    | Admit.Expired -> expired ()
    | Admit.Admitted ->
      Fun.protect
        ~finally:(fun () -> Admit.release t.admit)
        (fun () ->
          match deadline with
          | Some d when Unix.gettimeofday () >= d -> expired ()
          | _ -> run ())
  end

(* --- Serving --- *)

let serve t ~handle listen_fd =
  let admit = t.admit in
  let threads = ref [] in
  (* Reap finished connection threads on each accept so a long-lived daemon
     holds handles proportional to live connections, not connections ever
     accepted. Joining a finished thread is immediate. *)
  let reap () =
    threads :=
      List.filter
        (fun (th, done_) ->
          if Atomic.get done_ then begin
            Thread.join th;
            false
          end
          else true)
        !threads
  in
  let spawn_conn fd =
    arm_timeouts fd ~idle_timeout_ms:(Admit.limits admit).Admit.idle_timeout_ms;
    let c = register_conn t fd in
    let done_ = Atomic.make false in
    let th =
      Thread.create
        (fun c ->
          Fun.protect
            ~finally:(fun () -> Atomic.set done_ true)
            (fun () -> conn_loop t ~handle c))
        c
    in
    threads := (th, done_) :: !threads
  in
  let sweeper_stop = Atomic.make false in
  let sweeper =
    if (Admit.limits admit).Admit.idle_timeout_ms > 0 then
      Some (Thread.create (sweeper_loop t sweeper_stop) ())
    else None
  in
  let rec accept_loop () =
    if not t.stop_requested then begin
      match Unix.select [ listen_fd; t.stop_rd ] [] [] (-1.0) with
      | readable, _, _ ->
        if List.memq listen_fd readable && not t.stop_requested then begin
          match Unix.accept listen_fd with
          | fd, _ ->
            reap ();
            if Admit.try_conn admit then spawn_conn fd else shed_conn admit fd
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
        end;
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    end
  in
  accept_loop ();
  Atomic.set sweeper_stop true;
  Option.iter Thread.join sweeper;
  (* Wake any connection thread blocked in read: a shutdown delivers EOF
     (or EBADF-free error) to its pending read without closing the fd —
     the thread still owns the close. *)
  locked t (fun () ->
      List.iter
        (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ())
        t.conns);
  List.iter (fun (th, _) -> Thread.join th) !threads;
  (* Drain the stop pipe so a later serve on the same state starts clean. *)
  let buf = Bytes.create 16 in
  Unix.set_nonblock t.stop_rd;
  (try
     while Unix.read t.stop_rd buf 0 16 > 0 do
       ()
     done
   with _ -> ());
  Unix.clear_nonblock t.stop_rd;
  t.stop_requested <- false

let close t =
  Mutex.lock t.pipe_lock;
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.stop_rd with _ -> ());
    try Unix.close t.stop_wr with _ -> ()
  end;
  Mutex.unlock t.pipe_lock
