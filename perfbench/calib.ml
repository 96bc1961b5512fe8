(* Machine-speed calibration.

   On a shared box the same analysis can run 40% slower for tens of
   seconds while a neighbour loads the core; the slowdown shows in CPU time
   as much as in wall time, so it is the core's speed, not scheduling. So
   after every [every_s] seconds of timed work the benchmark runs a fixed
   kernel and reports timings at reference speed: wall time times the speed
   the kernel runs around it measured, where speed 1 means the kernel took
   [nominal_s] of CPU time. The kernel must allocate: kernels that only
   compute, or only chase pointers through a large array, did not slow down
   with the analyser.

   The kernel runs in a child process of its own ([main.exe kernel]), with
   its own heap and garbage collector, and uses only the standard library:
   no allocation, retention or GC work of the analyser can move it. It
   reports CPU time, not wall time, so it may run while the analyser or the
   daemon is busy: waiting for a core does not count, the core's speed
   does. Every run also prints its figures at raw wall time to standard
   error, so that the correction can be checked. *)

let now = Unix.gettimeofday

(* Allocation, hashing, sorting and formatting, like the analyser's own
   mix. Deterministic. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let l = ref [] in
  for i = 0 to 20000 do
    let k = (i * 7919) land 65535 in
    Hashtbl.replace h k (string_of_int i);
    l := (k lxor i) :: !l
  done;
  let b = Buffer.create 1024 in
  List.iteri
    (fun i x ->
      if i land 15 = 0 then
        Buffer.add_string b
          (Printf.sprintf "%d:%s;" x
             (Option.value ~default:"" (Hashtbl.find_opt h (x land 65535)))))
    (List.sort compare !l);
  Buffer.length b

(* The calibration process: for each line on standard input, run the
   kernel once and answer with its CPU seconds. Ends at end of input. *)
let serve () =
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | _ ->
      (* Every run starts from the same, empty heap. *)
      Gc.compact ();
      let c0 = Sys.time () in
      ignore (Sys.opaque_identity (kernel ()));
      Printf.printf "%.9f\n%!" (Sys.time () -. c0);
      loop ()
  in
  loop ()

(* Kernel CPU time on the reference machine, in seconds. *)
let nominal_s = 0.016

let every_s = 0.25

(* The calibration process, started on first use and stopped at exit. Only
   the main domain talks to it. *)
let child =
  lazy
    (let exe = Sys.executable_name in
     let p = Unix.open_process_args exe [| exe; "kernel" |] in
     at_exit (fun () -> ignore (Unix.close_process p));
     p)

(* Kernel seconds of one run. *)
let measure () =
  let ic, oc = Lazy.force child in
  output_string oc "run\n";
  flush oc;
  float_of_string (input_line ic)

(* The kernel runs of one timed loop, newest first: (time stamp, kernel
   seconds); and the loop's timed work so far at reference speed, by the
   latest kernel run. Loops stop on [busy], so that a run does about the
   same work however fast the box is at the time. *)
type t = { mutable marks : (float * float) list; mutable since : float; mutable busy : float }

let create () = { marks = [ (now (), measure ()) ]; since = 0.; busy = 0. }

let latest c = snd (List.hd c.marks)

(* Account [dt] seconds of timed work; runs the kernel when due. *)
let tick c dt =
  c.busy <- c.busy +. (dt *. nominal_s /. latest c);
  c.since <- c.since +. dt;
  if c.since >= every_s then begin
    c.since <- 0.;
    let t = now () in
    c.marks <- (t, measure ()) :: c.marks
  end

(* Concurrent clients: run the kernel every [every_s] on the calling domain
   until [finished ()], while the clients keep going, counting wall time at
   reference speed into [busy]; once it reaches [seconds], set [stop]. *)
let watch c ?seconds ~stop ~finished () =
  let last = ref (now ()) in
  while not (finished ()) do
    Unix.sleepf every_s;
    let t = now () in
    c.busy <- c.busy +. ((t -. !last) *. nominal_s /. latest c);
    last := t;
    c.marks <- (t, measure ()) :: c.marks;
    match seconds with Some s when c.busy >= s -> Atomic.set stop true | _ -> ()
  done

let marks cs = List.concat_map (fun c -> c.marks) cs

(* Speed at time [t]: [nominal_s] over the median kernel time of the runs
   within [window_s] of [t], or of the nearest run. One kernel run varies by
   about 15% from the next; the box's own swings last tens of seconds. *)
let window_s = 1.

let speed marks t =
  let near = List.filter (fun (ts, _) -> Float.abs (ts -. t) <= window_s) marks in
  let near =
    if near <> [] then near
    else
      [
        List.fold_left
          (fun (bt, bk) (ts, k) -> if Float.abs (ts -. t) < Float.abs (bt -. t) then (ts, k) else (bt, bk))
          (List.hd marks) marks;
      ]
  in
  let ks = Array.of_list (List.map snd near) in
  Array.sort compare ks;
  nominal_s /. ks.(Array.length ks / 2)

(* [f ()], its wall time at reference speed, with three kernel runs on
   either side, and its raw wall time. *)
let timed f =
  let runs () = List.init 3 (fun _ -> measure ()) in
  let before = runs () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let ks = Array.of_list (before @ runs ()) in
  Array.sort compare ks;
  (r, dt *. nominal_s /. ks.(Array.length ks / 2), dt)
