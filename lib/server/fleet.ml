(** Fleet front door: sharded routing, proxying, crash-replacement (see
    the interface). *)

module Diag = Vrp_diag.Diag

type worker = {
  sock : string;
  describe : string;
  kill : unit -> unit;
  alive : unit -> bool;
}

type spawner = wid:int -> incarnation:int -> sock:string -> worker

type settings = {
  size : int;
  dir : string;
  ping_interval_ms : int;
  ping_timeout_ms : int;
  restarts : int;
  retries : int;
  retry_backoff_ms : int;
  strict : bool;
  fault : Diag.Fault.t option;
  limits : Admit.limits;
}

let default_settings ~dir =
  {
    size = 2;
    dir;
    ping_interval_ms = 100;
    ping_timeout_ms = 250;
    restarts = 3;
    retries = 10;
    retry_backoff_ms = 40;
    strict = false;
    fault = None;
    limits = Admit.default_limits;
  }

type counters = {
  mutable served : int;
  mutable contained : int;
  mutable failovers : int;
  mutable replaced : int;
}

type slot_state = Healthy | Replacing | Degraded

type slot = {
  wid : int;
  sock : string;  (* fixed per slot: a replacement rebinds the same path *)
  mutable body : worker option;
  mutable incarnation : int;  (* bodies spawned so far *)
  mutable state : slot_state;
  (* Last load the worker reported in a ping (or that the proxy observed
     in a busy response); drives saturation-aware routing. *)
  mutable inflight : int;
  mutable capacity : int;  (* 0 = unknown *)
  mutable shed : int;
}

type t = {
  settings : settings;
  spawner : spawner;
  slots : slot array;
  lock : Mutex.t;  (* failovers + replaced + slot states + proxied count *)
  mutable failovers : int;
  mutable replaced : int;
  acc : t Accept.t;
  admit : Admit.t;  (* front-door connection bound + idle sweeper *)
  monitor_stop : bool Atomic.t;
  mutable monitor : Thread.t option;
  mutable proxied : int;  (* Kill_worker fault trigger count *)
  mutable shut : bool;
}

let settings t = t.settings
let admit t = t.admit

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let counters t =
  let c = Accept.counters t.acc in
  locked t (fun () ->
      { served = c.Accept.served; contained = c.Accept.contained; failovers = t.failovers;
        replaced = t.replaced })

(* --- Worker liveness probes --- *)

(* Started = the socket accepts a connection. No ping here: a worker
   wedged by a Slow_worker fault still counts as started — it is the
   health monitor's job to then catch it. *)
let wait_listening ?(budget_ms = 10000) sock =
  let deadline = Unix.gettimeofday () +. (float_of_int budget_ms /. 1000.) in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
      (try Unix.close fd with _ -> ());
      true
    | exception _ ->
      (try Unix.close fd with _ -> ());
      if Unix.gettimeofday () > deadline then false
      else begin
        Thread.delay 0.01;
        go ()
      end
  in
  go ()

(* One health check: connect, send a ping, wait for any well-formed
   response under the read timeout. A worker that cannot answer a ping in
   time is as good as dead for routing purposes. A live answer doubles as
   the load report: its data carries inflight/capacity/shed, which routing
   uses to probe past saturated workers. *)
let ping_probe ~timeout_ms sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let resp =
    try
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let secs = float_of_int timeout_ms /. 1000. in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO secs;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO secs;
      Protocol.write_frame fd
        (Protocol.encode_request { Protocol.id = 1; op = "ping"; params = Json.Null });
      match Protocol.read_frame fd with
      | Some payload -> (
        match Protocol.decode_response payload with
        | Ok resp when resp.Protocol.ok -> Some resp
        | Ok _ | Error _ -> None)
      | None -> None
    with _ -> None
  in
  (try Unix.close fd with _ -> ());
  resp

let data_int key data =
  match List.assoc_opt key data with Some (Json.Int n) -> Some n | _ -> None

let note_load t (s : slot) (resp : Protocol.response) =
  locked t (fun () ->
      (match data_int "inflight" resp.Protocol.data with
      | Some n -> s.inflight <- n
      | None -> ());
      (match data_int "capacity" resp.Protocol.data with
      | Some n -> s.capacity <- n
      | None -> ());
      match data_int "shed" resp.Protocol.data with
      | Some n -> s.shed <- n
      | None -> ())

(* --- Spawning and replacement --- *)

let wait_dead ?(budget_ms = 5000) (w : worker) =
  let deadline = Unix.gettimeofday () +. (float_of_int budget_ms /. 1000.) in
  let rec go () =
    if not (w.alive ()) then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let spawn_slot t (s : slot) =
  let incarnation = s.incarnation in
  s.incarnation <- incarnation + 1;
  let w = t.spawner ~wid:s.wid ~incarnation ~sock:s.sock in
  if not (wait_listening s.sock) then begin
    w.kill ();
    failwith (Printf.sprintf "worker-%d (%s) never started listening" s.wid w.describe)
  end;
  s.body <- Some w;
  s.state <- Healthy

(* Replacement is the middle rung of the ladder: kill what is left of the
   old body, wait for its socket path to be reclaimable, respawn on the
   same path. Out of restart budget → degrade the slot; under --strict a
   degraded fleet stops serving (vrpd maps that to exit 3). *)
let replace t (s : slot) =
  locked t (fun () -> s.state <- Replacing);
  (* A body that refuses to die is replaced anyway. *)
  Option.iter (fun w -> w.kill (); ignore (wait_dead w)) s.body;
  s.body <- None;
  let respawned =
    s.incarnation <= t.settings.restarts
    && match spawn_slot t s with () -> true | exception _ -> false
  in
  if respawned then locked t (fun () -> t.replaced <- t.replaced + 1)
  else begin
    (* Out of restarts, or the replacement failed to start. *)
    locked t (fun () -> s.state <- Degraded);
    if t.settings.strict then Accept.stop t.acc
  end

let monitor_loop t () =
  let interval = float_of_int t.settings.ping_interval_ms /. 1000. in
  while not (Atomic.get t.monitor_stop) do
    Array.iter
      (fun s ->
        if (not (Atomic.get t.monitor_stop)) && s.state = Healthy then
          match s.body with
          | Some w when not (w.alive ()) -> replace t s
          | Some _ -> (
            match ping_probe ~timeout_ms:t.settings.ping_timeout_ms s.sock with
            | Some resp -> note_load t s resp
            | None ->
              (* Unresponsive but running: a wedged daemon holds its socket,
                 so it must be killed before the slot can be rebound. *)
              replace t s)
          | None -> ())
      t.slots;
    (* Sleep in small steps so shutdown does not wait a full interval. *)
    let rec nap left =
      if left > 0. && not (Atomic.get t.monitor_stop) then begin
        Thread.delay (Float.min 0.02 left);
        nap (left -. 0.02)
      end
    in
    nap interval
  done

(* --- Routing --- *)

(* The shard key prefers the most stable identity a request carries:
   session id (all requests of a session hit one worker's warm state),
   then file name, then the source digest, then the op. Deterministic by
   construction — the same request always routes the same way while the
   same slots are healthy. *)
let route_key ~op ~params =
  match Json.mem_string "session" params with
  | Some sid -> "session:" ^ sid
  | None -> (
    match Json.mem_string "name" params with
    | Some name -> "name:" ^ name
    | None -> (
      match Json.mem_string "source" params with
      | Some source -> "source:" ^ Digest.to_hex (Digest.string source)
      | None -> "op:" ^ op))

(* Saturated = the worker's last load report shows no free in-flight slot;
   routing treats it like a degraded slot in the first probe pass, so new
   work spills to idle workers instead of queueing behind a hot shard. *)
let saturated (s : slot) = s.capacity > 0 && s.inflight >= s.capacity

let route t ~op ~params =
  let key = route_key ~op ~params in
  let d = Digest.string key in
  let base =
    (Char.code d.[0] lsl 16) lor (Char.code d.[1] lsl 8) lor Char.code d.[2]
  in
  let n = Array.length t.slots in
  (* Linear probe past degraded and saturated slots; Replacing slots still
     route (their socket comes back under the proxy's retry budget). When
     every non-degraded slot is saturated, fall back to the sharded order —
     the worker's own queue + shed ladder then takes over. *)
  let rec probe ~skip_saturated k =
    if k = n then
      if skip_saturated then probe ~skip_saturated:false 0
      else failwith "all fleet workers are degraded"
    else
      let s = t.slots.((base + k) mod n) in
      if s.state = Degraded || (skip_saturated && saturated s) then
        probe ~skip_saturated (k + 1)
      else s
  in
  probe ~skip_saturated:true 0

let route_sock t ~op ~params = (route t ~op ~params).sock

let degraded t =
  Array.exists (fun s -> s.state = Degraded) t.slots

(* --- The front-door handler --- *)

let state_string = function
  | Healthy -> "healthy"
  | Replacing -> "replacing"
  | Degraded -> "degraded"

let handle_fleet_status t ~deadline:_ _ =
  let c = counters t in
  let healthy =
    Array.fold_left (fun n s -> if s.state = Healthy then n + 1 else n) 0 t.slots
  in
  let uptime_ops, uptime_ops_data = Accept.status_lines t.acc in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "fleet %s: %d worker(s), %d healthy\n" Version.version
       (Array.length t.slots) healthy);
  Buffer.add_string buf
    (Printf.sprintf "requests: %d served, %d contained, %d failover(s)\n" c.served
       c.contained c.failovers);
  Buffer.add_string buf uptime_ops;
  Buffer.add_string buf (Printf.sprintf "workers replaced: %d\n" c.replaced);
  Array.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "worker-%d: %s (incarnation %d) inflight %d/%s, %d shed, %s\n"
           s.wid (state_string s.state)
           (max 0 (s.incarnation - 1))
           s.inflight
           (if s.capacity > 0 then string_of_int s.capacity else "?")
           s.shed s.sock))
    t.slots;
  Buffer.add_string buf (Admit.counters_line t.admit ^ "\n");
  let workers =
    Array.to_list
      (Array.map
         (fun s ->
           Json.Obj
             [
               ("wid", Json.Int s.wid);
               ("state", Json.String (state_string s.state));
               ("incarnation", Json.Int (max 0 (s.incarnation - 1)));
               ("inflight", Json.Int s.inflight);
               ("capacity", Json.Int s.capacity);
               ("shed", Json.Int s.shed);
               ("sock", Json.String s.sock);
             ])
         t.slots)
  in
  Accept.reply
    { Ops.out = Buffer.contents buf; err = ""; code = 0 }
    ~data:
      ([
         ("version", Json.String Version.version);
         ("size", Json.Int (Array.length t.slots));
         ("healthy", Json.Int healthy);
         ("served", Json.Int c.served);
         ("contained", Json.Int c.contained);
         ("failovers", Json.Int c.failovers);
         ("replaced", Json.Int c.replaced);
       ]
      @ uptime_ops_data
      @ [ ("workers", Json.List workers) ])

(* The front door's records as scrape-time series: its own proxy ladder,
   replacement counters and per-worker health, read from the slots. The
   workers are separate daemons with their own scrapes. *)
let samples t =
  let c = counters t in
  let counter = Vrp_obs.Metrics.counter_sample
  and gauge = Vrp_obs.Metrics.gauge_sample in
  let up s = if s.state = Healthy then 1.0 else 0.0 in
  let per_worker f =
    Array.to_list (Array.map (fun s -> f ~labels:[ ("worker", string_of_int s.wid) ] s) t.slots)
  in
  [
    counter ~help:"Fleet requests served" "vrpd_fleet_served_total" c.served;
    counter ~help:"Fleet requests contained" "vrpd_fleet_contained_total" c.contained;
    counter ~help:"Proxy retries that re-routed to another worker" "vrpd_fleet_failovers_total"
      c.failovers;
    counter ~help:"Workers crash-replaced" "vrpd_fleet_replaced_total" c.replaced;
    gauge ~help:"Fleet workers currently healthy" "vrpd_fleet_workers_healthy"
      (Array.fold_left (fun n s -> n +. up s) 0. t.slots);
  ]
  @ per_worker (fun ~labels s ->
        gauge ~help:"Per-worker liveness (1 = healthy)" ~labels "vrpd_fleet_worker_up" (up s))
  @ per_worker (fun ~labels s ->
        gauge ~help:"Per-worker in-flight load from its last ping" ~labels
          "vrpd_fleet_worker_inflight" (float_of_int s.inflight))

(* The Kill_worker chaos fault: every Nth proxied request force-kills its
   routed worker just before forwarding — the proxy's failover loop plus
   the monitor's replacement must then serve it anyway. *)
let maybe_kill_routed t (s : slot) =
  match t.settings.fault with
  | Some (Diag.Fault.Kill_worker n) ->
    let fire =
      locked t (fun () ->
          t.proxied <- t.proxied + 1;
          t.proxied mod n = 0)
    in
    if fire then Option.iter (fun w -> w.kill ()) s.body
  | _ -> ()

(* A busy response raised through the proxy's failover loop: each replay
   re-routes, and the slot that shed was marked saturated, so the replay
   probes to a less-loaded worker. Carries the response so an exhausted
   loop still hands the client the busy + retry_after_ms contract. *)
exception Worker_busy of Protocol.response

(* Raised by a proxy attempt once the request's deadline is spent. *)
exception Spent

let proxy t ~deadline (req : Protocol.request) =
  let op = req.Protocol.op and params = req.Protocol.params in
  let send () =
    (* Each attempt forwards the time that remains, so a replay never
       restarts the client's budget at the worker. *)
    let params =
      match (deadline, params) with
      | Some d, Json.Obj fields ->
        let ms = int_of_float ((d -. Unix.gettimeofday ()) *. 1000.) in
        if ms <= 0 then raise Spent;
        Json.Obj
          (List.map (fun (k, v) -> if k = "deadline_ms" then (k, Json.Int ms) else (k, v)) fields)
      | _ -> params
    in
    (* Re-route each attempt: the slot may have degraded (or saturated)
       mid-retry. *)
    let s = route t ~op ~params in
    let resp = Client.with_connection s.sock (fun c -> Client.request c ~op ~params ()) in
    match Protocol.retry_after_ms resp with
    | Some _ ->
      (* The worker shed this request: remember it as saturated until its
         next ping so replays probe past it. *)
      locked t (fun () -> s.inflight <- max s.inflight (max s.capacity 1));
      raise (Worker_busy resp)
    | None -> resp
  in
  (* A worker dying is the one transient failure here: replay the
     idempotent request up to [retries] times, with linear backoff that
     never sleeps past the deadline, each replay a counted failover. *)
  let rec attempt n =
    match send () with
    | resp -> resp
    | exception Spent -> raise Spent
    | exception _ when n < t.settings.retries ->
      let pause = float_of_int (t.settings.retry_backoff_ms * (n + 1)) /. 1000. in
      Unix.sleepf
        (match deadline with
        | Some d -> Float.max 0. (Float.min pause (d -. Unix.gettimeofday ()))
        | None -> pause);
      locked t (fun () -> t.failovers <- t.failovers + 1);
      attempt (n + 1)
  in
  let forward () =
    maybe_kill_routed t (route t ~op ~params);
    attempt 0
  in
  (* The worker's response passes through byte-identical (the table
     rewrites only the rid, to echo the client's request id), a busy one
     too once the ladder is exhausted. A spent deadline is answered here;
     any other failure means no worker could answer. *)
  match forward () with
  | resp -> resp
  | exception Spent -> Accept.expired_response ~rid:req.Protocol.id
  | exception Worker_busy resp -> resp
  | exception e ->
    raise (Accept.Unavailable (match e with Failure m -> m | e -> Printexc.to_string e))

let create ~settings ~spawner () =
  if settings.size < 1 then invalid_arg "Fleet.create: size must be >= 1";
  (try Unix.mkdir settings.dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let slots =
    Array.init settings.size (fun wid ->
        {
          wid;
          sock = Filename.concat settings.dir (Printf.sprintf "worker-%d.sock" wid);
          body = None;
          incarnation = 0;
          state = Replacing;
          inflight = 0;
          capacity = 0;
          shed = 0;
        })
  in
  let admit = Admit.create ~limits:settings.limits () in
  let t =
    {
      settings;
      spawner;
      slots;
      lock = Mutex.create ();
      failovers = 0;
      replaced = 0;
      acc =
        Accept.create ~family:"vrpd_fleet" ~samples ~fallback:proxy admit
          ~ops:[ ("fleet-status", handle_fleet_status) ];
      admit;
      monitor_stop = Atomic.make false;
      monitor = None;
      proxied = 0;
      shut = false;
    }
  in
  (match Array.iter (spawn_slot t) slots with
  | () -> ()
  | exception e ->
    (* A partial fleet is torn down, not served. *)
    Array.iter
      (fun s ->
        match s.body with
        | Some w ->
          w.kill ();
          ignore (wait_dead w)
        | None -> ())
      slots;
    raise e);
  t.monitor <- Some (Thread.create (monitor_loop t) ());
  t

let handle t req = Accept.handle t.acc t req

(* --- Serving --- *)

let serve t listen_fd = Accept.serve t.acc ~handle:(handle t) listen_fd

let stop t = Accept.stop t.acc
let stopping t = Accept.stopping t.acc

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Atomic.set t.monitor_stop true;
    Option.iter Thread.join t.monitor;
    t.monitor <- None;
    Array.iter
      (fun s ->
        match s.body with
        | Some w ->
          w.kill ();
          ignore (wait_dead w);
          s.body <- None
        | None -> ())
      t.slots;
    Accept.close t.acc
  end

(* --- In-process workers (tests) --- *)

let in_process_spawner ?(worker_settings = Server.default_settings) () : spawner =
 fun ~wid ~incarnation ~sock ->
  let server = Server.create ~settings:worker_settings () in
  let listen_fd = Server.listen_unix sock in
  let dead = Atomic.make false in
  let _thread =
    Thread.create
      (fun () ->
        (try Server.serve server listen_fd with _ -> ());
        (try Unix.close listen_fd with _ -> ());
        (* Unlink before flipping [dead]: a replacement spawn that observed
           dead=true must find the socket path reclaimable. *)
        (try Unix.unlink sock with _ -> ());
        (try Server.shutdown server with _ -> ());
        Atomic.set dead true)
      ()
  in
  {
    sock;
    describe = Printf.sprintf "in-process worker-%d.%d" wid incarnation;
    kill = (fun () -> Server.stop server);
    alive = (fun () -> not (Atomic.get dead));
  }
