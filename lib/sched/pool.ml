(** Fixed-size domain worker pool (see the interface).

    Implementation: a mutex/condition-guarded queue of thunks. Worker
    domains block on the condition until work arrives or the pool closes.
    Each [map] call wraps its tasks so every outcome — value or exception —
    lands in a slot of a results array; a per-batch countdown wakes the
    caller when the last slot is filled. While waiting, the caller drains
    the queue itself, so a pool of [jobs] gives [jobs]-way parallelism with
    only [jobs - 1] spawned domains. *)

type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.work_available t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock (* closed: exit *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.lock;
    task ();
    worker_loop t
  end

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

(* [Max_domains] of OCaml 5.1's [caml/domain.h]. *)
let max_domains = if Sys.word_size = 64 then 128 else 16

let check_jobs ?(pools = 1) jobs =
  let limit = ((max_domains - 1) / pools) + 1 in
  if jobs <= limit then Ok ()
  else
    Error
      (Printf.sprintf "--jobs %d exceeds %d, the most this runtime's %d domains allow" jobs
         limit max_domains)

(* One domain at a time, so a spawn that fails (the runtime is out of
   domains) joins the ones already running before it re-raises. *)
let create ~jobs () =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      closed = false;
      workers = [];
    }
  in
  (try
     for _ = 2 to jobs do
       t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     shutdown t;
     Printexc.raise_with_backtrace e bt);
  t

let jobs t = t.jobs

let map (type a b) (t : t) (f : a -> b) (tasks : a array) : (b, exn) result array =
  let n = Array.length tasks in
  let run i = try Ok (f tasks.(i)) with e -> Error e in
  if t.jobs <= 1 || n <= 1 then Array.init n run
  else begin
    let results : (b, exn) result array =
      Array.make n (Error (Failure "task not executed"))
    in
    let remaining = ref n in
    let batch_lock = Mutex.create () in
    let batch_done = Condition.create () in
    let complete i outcome =
      Mutex.lock batch_lock;
      results.(i) <- outcome;
      decr remaining;
      if !remaining = 0 then Condition.signal batch_done;
      Mutex.unlock batch_lock
    in
    Mutex.lock t.lock;
    for i = 0 to n - 1 do
      Queue.add (fun () -> complete i (run i)) t.queue
    done;
    Condition.broadcast t.work_available;
    Mutex.unlock t.lock;
    (* The caller helps drain the queue, then sleeps until the last task —
       possibly running on a worker — completes. *)
    let continue = ref true in
    while !continue do
      Mutex.lock t.lock;
      match Queue.take_opt t.queue with
      | Some task ->
        Mutex.unlock t.lock;
        task ()
      | None ->
        Mutex.unlock t.lock;
        continue := false
    done;
    Mutex.lock batch_lock;
    while !remaining > 0 do
      Condition.wait batch_done batch_lock
    done;
    Mutex.unlock batch_lock;
    results
  end

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
