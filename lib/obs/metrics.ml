(* Process-wide metrics registry with Prometheus text exposition.

   Dependency-free (stdlib + unix only) so every layer of the stack can link
   it: counters, gauges and fixed-bucket histograms registered by name +
   label set, aggregated on read, rendered in the Prometheus text format.

   Concurrency model: the registry itself is a mutex-guarded list (metric
   registration is rare and idempotent), but the cells on the hot path never
   take a lock:

   - counters are sharded per domain: each domain increments its own
     [Atomic.t] cell (created lazily through [Domain.DLS]); [value] sums the
     shards. Increments are never lost across domains and uncontended
     fetch-and-add on a domain-private cache line is a few nanoseconds.
   - gauges are a single atomic float (set/add via CAS).
   - histograms keep one atomic count per bucket plus an atomic float sum;
     observation is a bounded linear scan over the (small) bucket array and
     two atomic updates.

   Reads (render, value) are racy snapshots by design: they never block
   writers and are monotonic per cell, which is all Prometheus needs. *)

type counter = {
  c_cells : int Atomic.t list ref;
  c_lock : Mutex.t;
  c_key : int Atomic.t Domain.DLS.key;
}

type gauge = { g_value : float Atomic.t }

type histogram = {
  h_bounds : float array; (* strictly increasing upper bounds, no +Inf *)
  h_counts : int Atomic.t array; (* length = Array.length h_bounds + 1 *)
  h_sum : float Atomic.t;
}

(* [Sample] is a series read from its owner's record at scrape time; it
   never enters a registry. *)
type cell =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Sample of string * string  (* kind, rendered value *)

type entry = {
  name : string;
  help : string;
  labels : (string * string) list; (* sorted by label name *)
  cell : cell;
}

type registry = { lock : Mutex.t; mutable entries : entry list }

let create () = { lock = Mutex.create (); entries = [] }
let default = create ()

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --- cell constructors --- *)

let make_counter () =
  let cells = ref [] in
  let lock = Mutex.create () in
  let key =
    Domain.DLS.new_key (fun () ->
        let cell = Atomic.make 0 in
        locked lock (fun () -> cells := cell :: !cells);
        cell)
  in
  { c_cells = cells; c_lock = lock; c_key = key }

(* Default latency buckets (seconds), roughly log-spaced 0.5ms..10s. *)
let default_buckets =
  [ 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0;
    2.5; 5.0; 10.0 ]

let make_histogram buckets =
  let bounds = Array.of_list buckets in
  Array.sort compare bounds;
  let ok = ref true in
  Array.iteri
    (fun i b -> if i > 0 && b <= bounds.(i - 1) then ok := false)
    bounds;
  if Array.length bounds = 0 || not !ok then
    invalid_arg "Metrics.histogram: buckets must be non-empty and increasing";
  {
    h_bounds = bounds;
    h_counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
    h_sum = Atomic.make 0.0;
  }

(* --- registration (find-or-create, idempotent) --- *)

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Sample (kind, _) -> kind

let find_or_create registry ~name ~help ~labels make check =
  let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  locked registry.lock (fun () ->
      match
        List.find_opt (fun e -> e.name = name && e.labels = labels)
          registry.entries
      with
      | Some e -> check e
      | None ->
          (* A name is one metric family: a sibling series under the same
             name but different labels must still agree on the kind, or
             the exposition would emit two conflicting TYPE lines. *)
          (match List.find_opt (fun e -> e.name = name) registry.entries with
          | Some sibling -> ignore (check sibling)
          | None -> ());
          let e = { name; help; labels; cell = make () } in
          registry.entries <- e :: registry.entries;
          (match check e with v -> v))

let wrong_kind name want e =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered as a %s, wanted %s" name
       (kind_name e.cell) want)

let counter ?(registry = default) ?(help = "") ?(labels = []) name =
  find_or_create registry ~name ~help ~labels
    (fun () -> Counter (make_counter ()))
    (fun e -> match e.cell with Counter c -> c | _ -> wrong_kind name "counter" e)

let gauge ?(registry = default) ?(help = "") ?(labels = []) name =
  find_or_create registry ~name ~help ~labels
    (fun () -> Gauge { g_value = Atomic.make 0.0 })
    (fun e -> match e.cell with Gauge g -> g | _ -> wrong_kind name "gauge" e)

let histogram ?(registry = default) ?(help = "") ?(labels = [])
    ?(buckets = default_buckets) name =
  find_or_create registry ~name ~help ~labels
    (fun () -> Histogram (make_histogram buckets))
    (fun e ->
      match e.cell with Histogram h -> h | _ -> wrong_kind name "histogram" e)

(* --- updates --- *)

let inc ?(by = 1) c = ignore (Atomic.fetch_and_add (Domain.DLS.get c.c_key) by)
let value c = locked c.c_lock (fun () -> List.fold_left (fun acc a -> acc + Atomic.get a) 0 !(c.c_cells))

let set g v = Atomic.set g.g_value v

let rec atomic_add_float a v =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. v)) then atomic_add_float a v

let observe h v =
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n || v <= h.h_bounds.(i) then i else bucket (i + 1) in
  ignore (Atomic.fetch_and_add h.h_counts.(bucket 0) 1);
  atomic_add_float h.h_sum v

(* Time [f] and record its duration (seconds) in [h]. *)
let time h f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe h (Unix.gettimeofday () -. t0)) f

let hist_count h = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 h.h_counts
let hist_sum h = Atomic.get h.h_sum

let reset_counter c =
  locked c.c_lock (fun () -> List.iter (fun a -> Atomic.set a 0) !(c.c_cells))

let reset ?(registry = default) () =
  let entries = locked registry.lock (fun () -> registry.entries) in
  List.iter
    (fun e ->
      match e.cell with
      | Counter c -> reset_counter c
      | Gauge g -> Atomic.set g.g_value 0.0
      | Histogram h ->
          Array.iter (fun a -> Atomic.set a 0) h.h_counts;
          Atomic.set h.h_sum 0.0
      | Sample _ -> ())
    entries

(* --- Prometheus text exposition --- *)

(* Label values escape backslash, double-quote and newline; HELP text
   escapes backslash and newline (Prometheus text format v0.0.4). *)
let escape ~quote s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' when quote -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let format_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.9g" v

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape ~quote:true v))
             labels)
      ^ "}"

(* Labels with an extra [le] appended (histogram buckets). *)
let render_labels_le labels le =
  render_labels (labels @ [ ("le", le) ])

type sample = entry

let sample kind ?(help = "") ?(labels = []) name value =
  { name; help; labels = List.sort (fun (a, _) (b, _) -> compare a b) labels;
    cell = Sample (kind, value) }

let counter_sample ?help ?labels name n = sample "counter" ?help ?labels name (string_of_int n)
let gauge_sample ?help ?labels name v = sample "gauge" ?help ?labels name (format_float v)

let render ?(registry = default) ?(samples = []) () =
  let entries = locked registry.lock (fun () -> registry.entries) in
  let entries =
    List.sort
      (fun a b ->
        match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)
      (samples @ entries)
  in
  let buf = Buffer.create 4096 in
  let last_name = ref "" in
  List.iter
    (fun e ->
      if e.name <> !last_name then begin
        last_name := e.name;
        if e.help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" e.name (escape ~quote:false e.help));
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" e.name (kind_name e.cell))
      end;
      match e.cell with
      | Sample (_, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" e.name (render_labels e.labels) v)
      | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" e.name (render_labels e.labels)
               (value c))
      | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" e.name (render_labels e.labels)
               (format_float (Atomic.get g.g_value)))
      | Histogram h ->
          (* Cumulative buckets, then +Inf, _sum and _count. Snapshot the
             per-bucket counts once so bucket/count lines are mutually
             consistent even while writers are active. *)
          let counts = Array.map Atomic.get h.h_counts in
          let total = Array.fold_left ( + ) 0 counts in
          let acc = ref 0 in
          Array.iteri
            (fun i bound ->
              acc := !acc + counts.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" e.name
                   (render_labels_le e.labels (format_float bound))
                   !acc))
            h.h_bounds;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" e.name
               (render_labels_le e.labels "+Inf") total);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" e.name (render_labels e.labels)
               (format_float (Atomic.get h.h_sum)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" e.name (render_labels e.labels)
               total))
    entries;
  Buffer.contents buf
