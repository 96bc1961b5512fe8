(** The vrpd daemon: resident state, request handlers, accept loop (see
    the interface). *)

module Diag = Vrp_diag.Diag
module Pool = Vrp_sched.Pool
module Supervisor = Vrp_sched.Supervisor
module Summary_cache = Vrp_cache.Summary_cache
module Digest_key = Vrp_cache.Digest_key
module Strutil = Vrp_util.Strutil

type settings = {
  jobs : int;
  deadline_ms : int option;
  fault : Diag.Fault.t option;
  cache_dir : string option;
  limits : Admit.limits;
}

let default_settings =
  {
    jobs = 1;
    deadline_ms = None;
    fault = None;
    cache_dir = None;
    limits = Admit.default_limits;
  }

(* Session diff sizes: registry-only histograms. *)
let session_size_buckets = [ 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100. ]

let obs_session_changed =
  Vrp_obs.Metrics.histogram ~help:"Changed functions per session diff"
    ~buckets:session_size_buckets "vrpd_session_changed_functions"

let obs_session_dirty =
  Vrp_obs.Metrics.histogram ~help:"Dirty functions per session diff"
    ~buckets:session_size_buckets "vrpd_session_dirty_functions"

let obs_session_reused =
  Vrp_obs.Metrics.histogram ~help:"Reused summaries per session diff"
    ~buckets:session_size_buckets "vrpd_session_reused_functions"

type counters = Accept.counters = {
  mutable served : int;
  mutable contained : int;
  mutable cancelled : int;
}

type t = {
  settings : settings;
  pool : Pool.t;
  cache : Summary_cache.t;  (* server-wide, shared by predict/batch *)
  sessions : Session.t;
  admit : Admit.t;  (* shared by the accept loop and the request gate *)
  acc : t Accept.t;
  batch_lock : Mutex.t;  (* held by a batch request that runs a pool *)
  mutable shut : bool;
}

(* --- Request parameter extraction --- *)

let opt_string p k = Json.mem_string k p
let opt_bool p k = Option.value ~default:false (Json.mem_bool k p)

let req_string p k =
  match Json.mem_string k p with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing required string param %S" k)

let int_list p k =
  match Json.mem_list k p with
  | None -> None
  | Some xs ->
    Some
      (List.map
         (fun v ->
           match Json.get_int v with
           | Some n -> n
           | None -> failwith (Printf.sprintf "param %S must be a list of ints" k))
         xs)

(* The request's fault spec, falling back to the daemon-wide one. *)
let fault_of t p =
  match opt_string p "fault" with
  | None -> t.settings.fault
  | Some spec -> (
    match Diag.Fault.parse spec with
    | Ok f -> Some f
    | Error msg -> failwith msg)

let opts_of t p =
  {
    Ops.default_opts with
    Ops.numeric = opt_bool p "numeric";
    diagnostics = opt_bool p "diagnostics";
    strict = opt_bool p "strict";
    fault = fault_of t p;
  }

(* --- Handlers ---

   Each answers a response through {!Accept.reply}; the op table turns
   anything raised into a contained error response. *)

(* A crash-file fault matching this request's source name models a worker
   dying mid-request: it fires outside analysis containment so only the
   per-request wrapper may catch it (the daemon must survive it). *)
let check_crash_file ~fault name =
  match fault with
  | Some (Diag.Fault.Crash_file affix) when Strutil.is_infix ~affix name ->
    raise (Diag.Fault.Injected (Printf.sprintf "injected request crash in %s" name))
  | _ -> ()

(* Run an analysis under its deadline: the tighter of the request's own
   (counted from its arrival) and the daemon's --deadline-ms from now. The
   engine and the interprocedural wave driver check the token, and once it
   fires every not-yet-analyzed function demotes to Ball–Larus — the
   request still completes, with the degradation in its diagnostics.
   Without either deadline there is no token. *)
let supervised t ~label ~deadline f =
  Supervisor.supervise ~name:label
    (Supervisor.tighter deadline (Option.map Supervisor.within_ms t.settings.deadline_ms))
    f

(* The file-level tier's key for a predict of [source_md5] under [opts].
   Requests carrying a fault bypass the tier, as they bypass the summary
   cache: their degradations must replay exactly as one-shot. *)
let reply_key opts ~source_md5 =
  if opts.Ops.fault <> None then None
  else
    Some
      (Digest_key.reply_key ~source_md5
         ~config_digest:(Digest_key.config_digest (Ops.config_of opts))
         ~diagnostics:opts.Ops.diagnostics ~strict:opts.Ops.strict)

(* Compile through [cache]'s per-function memo: only the functions whose
   AST changed since [name] was last compiled are rebuilt. *)
let compile_cached cache ~name source =
  Result.map_error Ops.front_end_failure (Summary_cache.compile ~file:name cache source)

let handle_predict t ~deadline { Protocol.params = p; _ } =
  let source = req_string p "source" in
  let source_md5 = Digest.to_hex (Digest.string source) in
  (* A nameless source is its own file: unrelated nameless programs must
     not supersede each other's summaries. *)
  let name = Option.value ~default:source_md5 (opt_string p "name") in
  let opts = opts_of t p in
  check_crash_file ~fault:opts.Ops.fault name;
  let key = reply_key opts ~source_md5 in
  match Option.bind key (fun key -> Summary_cache.find_reply t.cache ~key) with
  | Some o -> Accept.reply o
  | None ->
    supervised t ~label:("predict " ^ name) ~deadline (fun cancel ->
        let opts = { opts with Ops.cancel } in
        let o =
          match key with
          | None -> Ops.predict ~pool:t.pool ~opts ~source ()
          | Some _ -> (
            match compile_cached t.cache ~name source with
            | Error o -> o
            | Ok (c, keys) ->
              let analyze_fn = Summary_cache.memoized ~file:name t.cache keys in
              Ops.predict_compiled ~pool:t.pool ~analyze_fn ~opts c)
        in
        (* A fired token may have cut the reply short, and a deadline cut
           is not a function of the key: never store it. *)
        (match key with
        | Some key when not (Option.fold ~none:false ~some:Diag.Cancel.cancelled cancel) ->
          Summary_cache.store_reply t.cache ~key o
        | _ -> ());
        Accept.reply o)

let plan_json (plan : Session.plan) =
  Json.Obj
    [
      ("fresh", Json.Bool plan.Session.fresh);
      ("functions", Json.Int plan.Session.functions);
      ("changed", Json.List (List.map (fun f -> Json.String f) plan.Session.changed));
      ("dirty", Json.List (List.map (fun f -> Json.String f) plan.Session.dirty));
      ("reused", Json.List (List.map (fun f -> Json.String f) plan.Session.reused));
    ]

let cache_counters_json (c : Summary_cache.counters) =
  Json.Obj
    [
      ("hits", Json.Int c.Summary_cache.hits);
      ("disk_hits", Json.Int c.Summary_cache.disk_hits);
      ("misses", Json.Int c.Summary_cache.misses);
      ("stores", Json.Int c.Summary_cache.stores);
      ("invalidations", Json.Int c.Summary_cache.invalidations);
      ("quarantined", Json.Int c.Summary_cache.quarantined);
      ("file_hits", Json.Int c.Summary_cache.file_hits);
      ("compile_hits", Json.Int c.Summary_cache.compile_hits);
      ("compile_misses", Json.Int c.Summary_cache.compile_misses);
    ]

let handle_analyze t ~deadline { Protocol.params = p; _ } =
  let sid = req_string p "session" in
  let source = req_string p "source" in
  let name = Option.value ~default:"<source>" (opt_string p "name") in
  let opts = opts_of t p in
  check_crash_file ~fault:opts.Ops.fault name;
  let s = Session.find_or_create t.sessions sid in
  (* Serializing per session is what makes the counter delta below exact
     request-scoped accounting on the session's private cache. *)
  let cache = Session.cache s in
  Session.with_lock s (fun () ->
      let before = Summary_cache.counters cache in
      match Session.compile s ~name source with
      | Error d -> Accept.reply (Ops.front_end_failure d)
      | Ok (c, keys) ->
        let plan = Session.plan s ~name keys in
        Vrp_obs.Metrics.observe obs_session_changed
          (float_of_int (List.length plan.Session.changed));
        Vrp_obs.Metrics.observe obs_session_dirty
          (float_of_int (List.length plan.Session.dirty));
        Vrp_obs.Metrics.observe obs_session_reused
          (float_of_int (List.length plan.Session.reused));
        let o =
          supervised t ~label:(Printf.sprintf "analyze %s %s" sid name) ~deadline
            (fun cancel ->
              let opts = { opts with Ops.cancel } in
              let analyze_fn = Summary_cache.memoized ~file:name cache keys in
              Ops.predict_compiled ~pool:t.pool ~analyze_fn ~opts c)
        in
        let delta = Summary_cache.delta ~before (Summary_cache.counters cache) in
        Accept.reply o ~data:[ ("plan", plan_json plan); ("cache", cache_counters_json delta) ])

let handle_compare t ~deadline { Protocol.params = p; _ } =
  let source = req_string p "source" in
  let name = Option.value ~default:"<request>" (opt_string p "name") in
  let opts = opts_of t p in
  check_crash_file ~fault:opts.Ops.fault name;
  let train = Option.value ~default:[ 100; 1 ] (int_list p "train") in
  let ref_args = Option.value ~default:[ 1000; 2 ] (int_list p "reference") in
  supervised t ~label:("compare " ^ name) ~deadline (fun cancel ->
      let opts = { opts with Ops.cancel } in
      Accept.reply (Ops.compare_predictors ~opts ~train ~ref_args ~source ()))

let handle_batch t ~deadline { Protocol.params = p; _ } =
  let files =
    match Json.mem_list "files" p with
    | None -> failwith "missing required list param \"files\""
    | Some xs ->
      List.map
        (fun v ->
          match (Json.mem_string "name" v, Json.mem_string "source" v) with
          | Some name, Some source -> (name, source)
          | _ -> failwith "each batch file needs string \"name\" and \"source\"")
        xs
  in
  (* A client may ask for fewer jobs than the daemon has, never more:
     each job is a domain, and the runtime's domain limit is a hard one. *)
  let jobs =
    match Json.mem_int "jobs" p with
    | Some jobs -> max 1 (min jobs t.settings.jobs)
    | None -> t.settings.jobs
  in
  let opts = { (opts_of t p) with Ops.jobs } in
  (* Batch runs on its own transient pool (pooled tasks must not submit to
     the pool they run on); the server-wide cache still serves it warm.
     Such pools take turns, so the daemon never holds more than the one
     batch pool [vrpd --jobs] was checked against. *)
  (* Each function gets the daemon's --deadline-ms, cut short by the
     request's own deadline. *)
  let run () =
    Accept.reply
      (Ops.batch ~cache:t.cache ?within_ms:t.settings.deadline_ms ?deadline ~opts ~sources:files ())
  in
  if jobs > 1 then Mutex.protect t.batch_lock run else run ()

(* The cache counters of the whole daemon: the server-wide cache plus
   every session's, retired sessions included. *)
let cache_totals t =
  Summary_cache.sum (Summary_cache.counters t.cache) (Session.cache_totals t.sessions)

let handle_status t ~deadline:_ _ =
  let c = Accept.counters t.acc in
  let sessions = Session.ids t.sessions in
  let cache = cache_totals t in
  let uptime_ops, uptime_ops_data = Accept.status_lines t.acc in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "vrpd %s\n" Version.version);
  Buffer.add_string buf
    (Printf.sprintf "jobs %d, deadline %s\n" t.settings.jobs
       (match t.settings.deadline_ms with
       | Some ms -> Printf.sprintf "%dms" ms
       | None -> "none"));
  Buffer.add_string buf
    (Printf.sprintf "requests: %d served, %d contained, %d cancelled\n" c.served
       c.contained c.cancelled);
  Buffer.add_string buf uptime_ops;
  Buffer.add_string buf
    (Printf.sprintf "limits: %d conns, %d inflight, %d queued, %dms idle timeout\n"
       t.settings.limits.Admit.max_conns t.settings.limits.Admit.max_inflight
       t.settings.limits.Admit.max_queue t.settings.limits.Admit.idle_timeout_ms);
  Buffer.add_string buf (Admit.counters_line t.admit ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "sessions: %d%s\n" (List.length sessions)
       (if sessions = [] then "" else " (" ^ String.concat ", " sessions ^ ")"));
  Buffer.add_string buf (Summary_cache.counters_line cache ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "compile cache: %d hits, %d misses\n" cache.Summary_cache.compile_hits
       cache.Summary_cache.compile_misses);
  Buffer.add_string buf (Supervisor.counters_line () ^ "\n");
  let a = Admit.counters t.admit in
  Accept.reply
    { Ops.out = Buffer.contents buf; err = ""; code = 0 }
    ~data:
      ([
         ("version", Json.String Version.version);
         ("jobs", Json.Int t.settings.jobs);
         ("sessions", Json.List (List.map (fun s -> Json.String s) sessions));
         ("served", Json.Int c.served);
         ("contained", Json.Int c.contained);
         ("cancelled", Json.Int c.cancelled);
       ]
      @ uptime_ops_data
      @ [
          ("inflight", Json.Int (Admit.inflight t.admit));
          ("shed", Json.Int (a.Admit.shed_conns + a.Admit.shed_requests));
          ("expired", Json.Int a.Admit.expired);
          ("idle_closed", Json.Int a.Admit.idle_closed);
          ("cache", cache_counters_json cache);
        ])

let handle_evict t ~deadline:_ _ =
  let server = Summary_cache.evict_memory t.cache
  and { Session.entries = sessions; parsed } = Session.evict_all t.sessions in
  let n = server.Summary_cache.results + sessions.Summary_cache.results in
  Accept.reply
    { Ops.out = Printf.sprintf "evicted %d cached entries\n" n; err = ""; code = 0 }
    ~data:
      [
        ("evicted", Json.Int n);
        ("evicted_compiled", Json.Int (server.Summary_cache.compiled + sessions.Summary_cache.compiled));
        ("evicted_slots", Json.Int (server.Summary_cache.slots + sessions.Summary_cache.slots));
        ("evicted_parsed", Json.Int parsed);
      ]

(* The daemon's records as scrape-time series; the table adds the per-op
   series, uptime and admission. *)
let samples t =
  let c = Accept.counters t.acc in
  let counter = Vrp_obs.Metrics.counter_sample in
  [
    counter ~help:"Requests answered by the containment wrapper"
      "vrpd_requests_contained_total" c.contained;
    counter ~help:"Requests contained by cancellation" "vrpd_requests_cancelled_total"
      c.cancelled;
    Vrp_obs.Metrics.gauge_sample ~help:"Daemon start time in unix seconds"
      "vrpd_start_time_seconds" (Accept.started t.acc);
  ]
  @ Summary_cache.samples (cache_totals t)

let create ?(settings = default_settings) () =
  let admit = Admit.create ~limits:settings.limits () in
  {
    settings;
    pool = Pool.create ~jobs:settings.jobs ();
    cache = Summary_cache.create ?disk_dir:settings.cache_dir ();
    sessions = Session.create ();
    admit;
    acc =
      Accept.create ~family:"vrpd" ~samples ~gate:true admit
        ~ops:
          [
            ("predict", handle_predict);
            ("analyze", handle_analyze);
            ("compare", handle_compare);
            ("batch", handle_batch);
            ("status", handle_status);
            ("evict", handle_evict);
          ];
    batch_lock = Mutex.create ();
    shut = false;
  }

let settings t = t.settings
let counters t = Accept.counters t.acc
let admit t = t.admit

let handle t req =
  (* A slow-worker fault wedges every request this daemon handles — pings
     included — so a fleet's health check sees it as hung. *)
  (match t.settings.fault with
  | Some (Diag.Fault.Slow_worker ms) -> Thread.delay (float_of_int ms /. 1000.)
  | _ -> ());
  Accept.handle t.acc t req

(* --- Listeners and the accept loop --- *)

let listen_unix path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    (* Probe before reclaiming: a connect that succeeds means a live daemon
       is serving this path, and stealing it would silently split traffic
       between two servers. Only a refused connection marks it stale. *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
      (try Unix.close probe with _ -> ());
      failwith
        (Printf.sprintf
           "%s is already served by a live daemon; stop it first or pick another socket path"
           path)
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      (try Unix.close probe with _ -> ());
      (try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ())
    | exception e ->
      (try Unix.close probe with _ -> ());
      raise e)
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp ~host ~port =
  let addr =
    match (Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]) with
    | ai :: _ -> ai.Unix.ai_addr
    | [] -> failwith (Printf.sprintf "cannot resolve %s:%d" host port)
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd addr;
  Unix.listen fd 64;
  fd

let stop t = Accept.stop t.acc
let stopping t = Accept.stopping t.acc

let serve t listen_fd = Accept.serve t.acc ~handle:(handle t) listen_fd

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Pool.shutdown t.pool;
    Summary_cache.close t.cache;
    Accept.close t.acc
  end
