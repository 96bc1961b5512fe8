(* vrpd — the long-running analysis daemon.

   Listens on a Unix-domain socket (default) or TCP (--listen HOST:PORT)
   and serves vrpc's analysis operations from resident state: a warm
   domain pool, an always-warm summary cache, and per-session incremental
   re-analysis. Clients talk to it with `vrpc remote ... --socket ADDR`.

   With --fleet N the same binary becomes a front door: it spawns N vrpd
   worker child processes on per-slot sockets in --fleet-dir, routes each
   request to a worker sharded by session/source digest, health-checks
   them with ping, and crash-replaces dead or wedged workers. Workers
   share one on-disk summary-cache tier when given --cache DIR.

   Exit codes: 0 clean shutdown (signal or shutdown request); 1 failed to
   bind or serve; 3 a fleet worker degraded under --strict; 124 malformed
   command line. *)

open Cmdliner
module Server = Vrp_server.Server
module Fleet = Vrp_server.Fleet
module Protocol = Vrp_server.Protocol
module Diag = Vrp_diag.Diag

(* Each fleet worker is this same binary in plain single-daemon mode; a
   stale socket left by a SIGKILLed predecessor is reclaimed by the
   child's own listen_unix connect-probe. *)
let process_spawner ~jobs ~deadline_ms ~cache_dir ~worker_fault
    ~(limits : Vrp_server.Admit.limits) : Fleet.spawner =
 fun ~wid:_ ~incarnation:_ ~sock ->
  let args =
    [ Sys.executable_name; "--socket"; sock; "--jobs"; string_of_int jobs ]
    @ (match deadline_ms with
      | Some ms -> [ "--deadline-ms"; string_of_int ms ]
      | None -> [])
    @ (match cache_dir with Some d -> [ "--cache"; d ] | None -> [])
    @ [
        "--max-conns"; string_of_int limits.Vrp_server.Admit.max_conns;
        "--max-inflight"; string_of_int limits.Vrp_server.Admit.max_inflight;
        "--idle-timeout-ms"; string_of_int limits.Vrp_server.Admit.idle_timeout_ms;
      ]
    @
    match worker_fault with
    | Some f -> [ "--inject-fault"; Diag.Fault.to_string f ]
    | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) devnull
      Unix.stderr Unix.stderr
  in
  Unix.close devnull;
  let reaped = ref false in
  {
    Fleet.sock;
    describe = Printf.sprintf "vrpd pid %d" pid;
    kill = (fun () -> try Unix.kill pid Sys.sigkill with _ -> ());
    alive =
      (fun () ->
        if !reaped then false
        else
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> true
          | _ ->
            reaped := true;
            (* A SIGKILLed worker leaves its socket file behind; reclaim
               it so the replacement's bind does not race the probe. *)
            (try Unix.unlink sock with _ -> ());
            false
          | exception _ ->
            reaped := true;
            false);
  }

let bind_listener ~socket ~listen =
  match listen with
  | Some addr -> (
    match Protocol.parse_hostport addr with
    | Error msg ->
      prerr_endline ("vrpd: --listen " ^ msg);
      exit 1
    | Ok (host, port) ->
      (Server.listen_tcp ~host ~port, Printf.sprintf "%s:%d" host port, fun () -> ()))
  | None ->
    let path = Option.value ~default:(Vrp_server.Client.default_address ()) socket in
    (Server.listen_unix path, path, fun () -> try Unix.unlink path with _ -> ())

let install_signals stop =
  let stop_signal _ = stop () in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
  (* A client vanishing mid-response must not kill the daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let run_single ~socket ~listen ~jobs ~deadline_ms ~fault ~cache_dir ~limits =
  let server =
    Server.create ~settings:{ Server.jobs; deadline_ms; fault; cache_dir; limits } ()
  in
  let listen_fd, where, cleanup = bind_listener ~socket ~listen in
  install_signals (fun () -> Server.stop server);
  Printf.eprintf "vrpd %s: listening on %s (%d job%s%s)\n%!"
    Vrp_server.Version.version where jobs
    (if jobs = 1 then "" else "s")
    (match deadline_ms with
    | Some ms -> Printf.sprintf ", %dms deadline" ms
    | None -> "");
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with _ -> ());
      cleanup ();
      Server.shutdown server)
    (fun () -> Server.serve server listen_fd);
  prerr_endline "vrpd: stopped"

let run_fleet ~socket ~listen ~jobs ~deadline_ms ~fault ~cache_dir ~limits ~size
    ~fleet_dir ~strict =
  (* kill-worker is the front door's chaos fault; every other spec (an
     analysis fault, slow-worker) belongs daemon-wide in the workers. *)
  let fleet_fault, worker_fault =
    match fault with
    | Some (Diag.Fault.Kill_worker _) as f -> (f, None)
    | f -> (None, f)
  in
  let dir =
    Option.value fleet_dir
      ~default:(Filename.concat (Filename.get_temp_dir_name ()) "vrpd-fleet")
  in
  let settings =
    {
      (Fleet.default_settings ~dir) with
      Fleet.size;
      strict;
      fault = fleet_fault;
      limits;
    }
  in
  let fleet =
    Fleet.create ~settings
      ~spawner:
        (process_spawner ~jobs ~deadline_ms ~cache_dir ~worker_fault ~limits)
      ()
  in
  let listen_fd, where, cleanup = bind_listener ~socket ~listen in
  install_signals (fun () -> Fleet.stop fleet);
  Printf.eprintf "vrpd %s: fleet of %d worker(s) in %s, front door on %s\n%!"
    Vrp_server.Version.version size dir where;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with _ -> ());
      cleanup ();
      Fleet.shutdown fleet)
    (fun () -> Fleet.serve fleet listen_fd);
  if strict && Fleet.degraded fleet then begin
    prerr_endline "vrpd: fleet degraded under --strict";
    exit 3
  end;
  prerr_endline "vrpd: stopped"

let run socket listen jobs deadline_ms fault cache_dir max_conns max_inflight
    idle_timeout_ms fleet fleet_dir strict =
  (* Main, the request pool and the pool of the one batch request that
     runs at a time: 2·jobs - 1 domains. Deadlines need none: the analysis
     checks its own. *)
  Result.iter_error
    (fun msg -> prerr_endline ("vrpd: " ^ msg); exit 2)
    (Vrp_sched.Pool.check_jobs ~pools:2 jobs);
  if max_conns < 1 || max_inflight < 1 || idle_timeout_ms < 0 then begin
    prerr_endline
      "vrpd: --max-conns and --max-inflight want >= 1, --idle-timeout-ms >= 0";
    exit 1
  end;
  let limits =
    {
      Vrp_server.Admit.default_limits with
      Vrp_server.Admit.max_conns;
      max_inflight;
      idle_timeout_ms;
    }
  in
  match fleet with
  | None ->
    run_single ~socket ~listen ~jobs ~deadline_ms ~fault ~cache_dir ~limits
  | Some size ->
    if size < 1 then begin
      prerr_endline "vrpd: --fleet wants at least 1 worker";
      exit 1
    end;
    run_fleet ~socket ~listen ~jobs ~deadline_ms ~fault ~cache_dir ~limits ~size
      ~fleet_dir ~strict

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (default: vrpd.sock in the temp dir).")

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"HOST:PORT"
        ~doc:
          "Listen on TCP instead of a Unix-domain socket. The port is \
           whatever follows the last colon, so IPv6 literals like \
           [::1]:7001 work.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Width of the resident analysis domain pool (per worker under \
           --fleet). Results are byte-identical to --jobs 1.")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Analysis deadline: a predict, analyze or compare request running \
           longer than $(docv) milliseconds, or a function of a batch request \
           running longer, has its remaining functions demoted to the \
           Ball–Larus fallback and completes with the degradation in its \
           diagnostics. A request's own deadline_ms tightens it.")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Disk tier for the summary cache. Under --fleet every worker \
           points at the same directory and shares it (advisory locks).")

let max_conns_arg =
  Arg.(
    value
    & opt int Vrp_server.Admit.default_limits.Vrp_server.Admit.max_conns
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Concurrent connection bound (per daemon). A connection over the \
           bound is answered with one structured busy response carrying \
           retry_after_ms and closed — accept-then-shed — instead of \
           spawning a handler thread.")

let max_inflight_arg =
  Arg.(
    value
    & opt int Vrp_server.Admit.default_limits.Vrp_server.Admit.max_inflight
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "Concurrent analysis-request bound (per daemon). Requests over \
           the bound wait briefly in a bounded queue, then are shed with a \
           busy response; vrpc remote retries them after retry_after_ms.")

let idle_timeout_arg =
  Arg.(
    value
    & opt int Vrp_server.Admit.default_limits.Vrp_server.Admit.idle_timeout_ms
    & info [ "idle-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-connection stall budget: a connection idle or stalled \
           mid-frame longer than this is closed by the sweeper (and by \
           SO_RCVTIMEO/SO_SNDTIMEO), so slow or dead clients cannot pin \
           handler threads. 0 disables.")

let fleet_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fleet" ] ~docv:"N"
        ~doc:
          "Fleet mode: spawn N vrpd worker processes and serve as their \
           front-door router; dead or wedged workers are crash-replaced \
           with a bounded restart budget.")

let fleet_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fleet-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for the fleet's per-worker sockets (default: \
           vrpd-fleet in the temp dir).")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Fleet mode: stop serving and exit 3 when any worker slot \
           exhausts its restart budget, instead of routing around it.")

let fault_arg =
  let fault_conv =
    let parse s =
      match Diag.Fault.parse s with Ok f -> Ok f | Error msg -> Error (`Msg msg)
    in
    let print ppf f = Format.pp_print_string ppf (Diag.Fault.to_string f) in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "inject-fault" ] ~docv:"SPEC" ~docs:"TESTING (HIDDEN)"
        ~doc:
          "Daemon-wide deterministic fault injection (same specs as vrpc); \
           a request's own fault param overrides it. Under --fleet, \
           kill-worker:N stays in the front door and every other spec is \
           passed to the workers.")

let cmd =
  Cmd.v
    (Cmd.info "vrpd" ~version:Vrp_server.Version.version
       ~doc:"Persistent value-range-propagation analysis server"
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"clean shutdown (signal or shutdown request).";
           Cmd.Exit.info 1 ~doc:"failed to bind or serve.";
           Cmd.Exit.info 3 ~doc:"a fleet worker degraded under --strict.";
           Cmd.Exit.info 124 ~doc:"malformed command line.";
         ])
    Term.(
      const run $ socket_arg $ listen_arg $ jobs_arg $ deadline_arg $ fault_arg
      $ cache_arg $ max_conns_arg $ max_inflight_arg $ idle_timeout_arg
      $ fleet_arg $ fleet_dir_arg $ strict_arg)

let () = exit (Cmd.eval cmd)
