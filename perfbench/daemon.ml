(* A spawned [vrpd] child: start, readiness, scrape, shutdown. Every daemon
   this module starts is stopped and reaped before the benchmark exits. *)

module Client = Vrp_server.Client

type t = { pid : int; sock : string }

let live : t list ref = ref []

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* Reap [d], waiting at most [grace] seconds before killing it. *)
let reap ?(grace = 10.) d =
  let until = Unix.gettimeofday () +. grace in
  let rec wait () =
    if alive d.pid then
      if Unix.gettimeofday () < until then (Thread.delay 0.01; wait ())
      else begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
      end
  in
  wait ();
  (try Sys.remove d.sock with Sys_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

let () = at_exit (fun () -> List.iter (reap ~grace:0.) !live)

(* Spawn with default settings on a Unix socket and wait for the first
   [ping] answer. *)
let start ~exe ~sock ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process exe [| exe; "--socket"; sock |] Unix.stdin fd fd in
  Unix.close fd;
  let d = { pid; sock } in
  live := d :: !live;
  let until = Unix.gettimeofday () +. 30. in
  let rec ready () =
    match Client.with_connection sock (fun c -> Client.request c ~op:"ping" ()) with
    | r when r.Vrp_server.Protocol.ok -> ()
    | _ | (exception _) ->
      if not (alive pid) then failwith "vrpd exited during start-up (see its log)";
      if Unix.gettimeofday () > until then failwith "vrpd did not answer ping within 30s";
      Thread.delay 0.002;
      ready ()
  in
  ready ();
  d

let stop d =
  (try
     ignore (Client.with_connection d.sock (fun c -> Client.request c ~op:"shutdown" ()))
   with _ -> ());
  reap d

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  go ()

(* The daemon's Prometheus exposition as (series, value) pairs, where a
   series is the metric name with its label set, e.g.
   [vrpd_request_seconds_sum{op="predict"}]. *)
let scrape d =
  let r = Client.with_connection d.sock (fun c -> Client.request c ~op:"metrics" ()) in
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | None -> None
        | Some i ->
          Option.map
            (fun v -> (String.sub line 0 i, v))
            (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))))
    (String.split_on_char '\n' r.Vrp_server.Protocol.out)

let series scrape name = Option.value ~default:0. (List.assoc_opt name scrape)
