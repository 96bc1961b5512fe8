(* perfbench: the repository benchmark. README.md in this directory says
   why each workload exists and which end-to-end metric each layer metric
   should move.

     main.exe --workload W --seed N --seconds S --trace 0|1 --vrpd EXE --out DIR
     main.exe ledger [--small]              the work-count ledger alone
     main.exe selftest                      the ledger twice; counts must agree
     main.exe kernel                        the calibration process (see Calib)

   The last line of standard output of a workload run is one JSON object
   with the keys "correct", "attempted", "failed" and "metrics". *)

module Ops = Vrp_server.Ops
module Json = Vrp_server.Json
module Protocol = Vrp_server.Protocol
module Client = Vrp_server.Client
module Batch = Vrp_sched.Batch
module Pool = Vrp_sched.Pool
module Summary_cache = Vrp_cache.Summary_cache
module Pipeline = Vrp_core.Pipeline
module Interproc = Vrp_core.Interproc
module Metrics = Vrp_obs.Metrics
module Trace = Vrp_obs.Trace
module Prng = Vrp_util.Prng
module Suite = Vrp_suite.Suite
module Interp = Vrp_profile.Interp
module Error_analysis = Vrp_evaluation.Error_analysis

let nproc = max 1 (Domain.recommended_domain_count ())
let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

(* The [p] percentile, or, where fewer than ten samples would lie beyond
   it, the highest percentile that has ten beyond it. *)
let tail p xs =
  let n = float_of_int (List.length xs) in
  percentile (Float.min p ((n -. 10.) /. n)) xs

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b > 0. then a /. b else 0.

(* [f] over [xs] on [nproc] domains; only ever outside timed regions. *)
let par_map f xs =
  Pool.with_pool ~jobs:nproc (fun pool -> Array.to_list (Pool.map pool f (Array.of_list xs)))

(* --- Requests --- *)

(* One request asks for the predictions of [members]: one file, or a group
   of files for [batch_warm]. A write ([edit]) replaces one member by a
   fresh one-function edit of it. *)
type request = { edit : bool; group : int; members : (int * Corpus.file) list }

type stream = { next : unit -> request; groups : int list array }

(* The corpus in groups of [group] files. Groups are fixed and balanced:
   files are dealt out largest first, so every group holds one file of each
   size band and no seed can make one group much dearer than another. *)
let groups_of ~group (files : Corpus.file array) =
  let n = Array.length files in
  let by_size = List.init n Fun.id |> List.stable_sort (fun a b -> compare files.(b).Corpus.units files.(a).Corpus.units) in
  let count = (n + group - 1) / group in
  let groups = Array.make count [] in
  List.iteri (fun k i -> groups.(k mod count) <- i :: groups.(k mod count)) by_size;
  Array.map List.rev groups

(* Reads cycle over the groups in a seeded order; every tenth request is a
   write. [id] separates the streams of concurrent clients, whose edits
   must not collide. *)
let stream ~seed ~id ~group (files : Corpus.file array) =
  let rng = Prng.create ((seed * 1_000_003) + id) in
  let n = Array.length files in
  let groups = groups_of ~group files in
  let count = Array.length groups in
  let order = Array.init count Fun.id in
  for i = count - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let group_of = Array.make n 0 in
  Array.iteri (fun g m -> List.iter (fun i -> group_of.(i) <- g) m) groups;
  let targets =
    Array.of_list (List.filter (fun i -> Corpus.edit_target files.(i)) (List.init n Fun.id))
  in
  let k = ref 0 and reads = ref 0 in
  let next () =
    incr k;
    if !k mod 10 = 0 then begin
      let t = targets.(Prng.int rng (Array.length targets)) in
      let e =
        Corpus.edit files.(t)
          ~unit:(Prng.int rng files.(t).Corpus.units)
          ~delta:((id * 1_000_000) + !k)
      in
      let g = group_of.(t) in
      {
        edit = true;
        group = g;
        members = List.map (fun i -> (i, if i = t then e else files.(i))) groups.(g);
      }
    end
    else begin
      let g = order.(!reads mod count) in
      incr reads;
      { edit = false; group = g; members = List.map (fun i -> (i, files.(i))) groups.(g) }
    end
  in
  { next; groups }

(* The next requests of [st] up to one read of every group. *)
let period st =
  let rec go reads acc =
    if reads = Array.length st.groups then List.rev acc
    else
      let q = st.next () in
      go (if q.edit then reads else reads + 1) (q :: acc)
  in
  go 0 []

(* [at] is the start time of the request, [latency] its wall time, [out]
   the digest of its output. *)
type sample = { req : request; at : float; latency : float; out : Digest.t; ok : bool }

let named (f : Corpus.file) = (f.Corpus.name, f.Corpus.source)
let sources req = List.map (fun (_, f) -> named f) req.members
let corpus_sources files = Array.to_list (Array.map named files)

let single req =
  match req.members with [ (_, f) ] -> f | _ -> invalid_arg "one file per request"

(* --- Reference, ledger and accuracy (never timed) --- *)

type reference = {
  outs : string array;  (** one-shot [Ops.predict] stdout per corpus file *)
  fns : int array;  (** functions per corpus file *)
  ledger : (string * Json.t) list;
  ledger_ok : bool;
}

let fallback_rows out =
  List.length
    (List.filter
       (fun l ->
         Vrp_util.Strutil.is_infix ~affix:"%*" l || Vrp_util.Strutil.is_infix ~affix:"%!" l)
       (String.split_on_char '\n' out))

(* One cold sequential pass of [Ops.predict] over the corpus gives the read
   references and the engine's work counts; a fresh summary cache taken
   through a cold pass, a warm pass and one write gives the cache counts.
   All of it is deterministic in the corpus. *)
let reference (files : Corpus.file array) =
  let w = Layers.engine_work () in
  let rounds0 = Metrics.value Layers.interproc_rounds in
  let instrs = ref 0 and fallbacks = ref 0 and ok = ref true in
  let results =
    Array.map
      (fun (f : Corpus.file) ->
        let c = Pipeline.compile f.Corpus.source in
        instrs := !instrs + Layers.instrs c.Pipeline.ssa;
        let o =
          Ops.predict_compiled ~analyze_fn:(Layers.probe w Interproc.default_analyze_fn)
            ~opts:Ops.default_opts c
        in
        if o.Ops.code <> 0 then ok := false;
        fallbacks := !fallbacks + fallback_rows o.Ops.out;
        (o.Ops.out, List.length c.Pipeline.ssa.Vrp_ir.Ir.fns))
      files
  in
  let rounds = Metrics.value Layers.interproc_rounds - rounds0 in
  let all = corpus_sources files in
  let cache = Summary_cache.create () in
  let cold = Batch.render (Batch.analyze_sources ~cache ~jobs:1 all) in
  let warm = Batch.render (Batch.analyze_sources ~cache ~jobs:1 all) in
  if cold <> warm then ok := false;
  (match List.find_opt Corpus.edit_target (Array.to_list files) with
  | Some f ->
    let e = Corpus.edit f ~unit:0 ~delta:0 in
    ignore (Batch.analyze_sources ~cache ~jobs:1 [ named e ])
  | None -> ());
  let c = Summary_cache.counters cache in
  let int k v = (k, Json.Int v) in
  {
    outs = Array.map fst results;
    fns = Array.map snd results;
    ledger =
      [
        ("corpus.digest", Json.String (Corpus.digest files));
        int "corpus.files" (Array.length files);
        int "corpus.functions" (Array.fold_left (fun a (_, n) -> a + n) 0 results);
        int "engine.calls" w.Layers.calls;
        int "engine.evaluations" w.Layers.evaluations;
        int "engine.sub_ops" w.Layers.sub_ops;
        int "engine.widenings" w.Layers.widenings;
        int "engine.fuel_spent" w.Layers.fuel_spent;
        ("engine.alloc_words", Json.Float w.Layers.alloc_words);
        int "interproc.rounds" rounds;
        int "ir.instrs" !instrs;
        int "predict.fallback_branches" !fallbacks;
        int "cache.hits" c.Summary_cache.hits;
        int "cache.misses" c.Summary_cache.misses;
        int "cache.stores" c.Summary_cache.stores;
        int "cache.invalidations" c.Summary_cache.invalidations;
      ];
    ledger_ok = !ok;
  }

let ledger_count r k =
  match List.assoc_opt k r.ledger with Some (Json.Int n) -> float_of_int n | _ -> 0.

(* Paper section 5: mean |error| of the VRP predictions against what the
   interpreter observes on each suite program's reference input. *)
let mean_err_pp () =
  par_map
    (fun (b : Suite.benchmark) ->
      let c = Pipeline.compile b.Suite.source in
      let observed = (Interp.run c.Pipeline.ssa ~args:b.Suite.ref_args).Interp.profile in
      let prediction, _ = Pipeline.vrp_predictions c.Pipeline.ssa in
      Error_analysis.mean_error ~weighted:false
        (Error_analysis.branch_errors ~observed prediction))
    Suite.benchmarks
  |> List.map (function Ok e -> e | Error e -> raise e)
  |> Vrp_util.Stats.mean

(* --- Output checks (after the timed loop) --- *)

(* Samples that failed or whose output differs from the expected one.
   Writes are checked against [edit_expected], computed here in parallel. *)
let failures ~read_expected ~edit_expected samples =
  let edits = List.filter (fun s -> s.req.edit) samples in
  let expected = par_map (fun s -> edit_expected s.req) edits in
  let bad_edits =
    List.fold_left2
      (fun acc s e ->
        match e with Ok want when s.ok && s.out = Digest.string want -> acc | _ -> acc + 1)
      0 edits expected
  in
  List.fold_left
    (fun acc s ->
      if s.req.edit || (s.ok && s.out = Digest.string (read_expected s.req)) then acc
      else acc + 1)
    bad_edits samples

(* What [vrpc predict FILE] prints for each member, concatenated. *)
let one_shot req =
  String.concat ""
    (List.map
       (fun (_, (f : Corpus.file)) ->
         (Ops.predict ~opts:Ops.default_opts ~source:f.Corpus.source ()).Ops.out)
       req.members)

let reference_outs (r : reference) req =
  String.concat "" (List.map (fun (i, _) -> r.outs.(i)) req.members)

(* --- Timed loop, in process --- *)

let run_one exec req =
  let at = now () in
  let out, ok = try exec req with _ -> ("", false) in
  let latency = now () -. at in
  { req; at; latency; out = Digest.string out; ok }

(* Requests back to back for [seconds] of timed work at reference speed. *)
let timed_loop ~seconds next exec =
  let calib = Calib.create () in
  let rec go acc =
    if calib.Calib.busy >= seconds then (List.rev acc, [ calib ])
    else begin
      let s = run_one exec (next ()) in
      Calib.tick calib s.latency;
      go (s :: acc)
    end
  in
  go []

(* --- End-to-end metrics --- *)

type metric = string * float * string

(* [cal s] is the time of sample [s]. Latencies are per file: a request's
   latency over its file count. Throughput counts the time the [clients]
   spent waiting for replies. *)
let e2e ~setup_s ~rss_mb ~err_pp ~(r : reference) ~cal ~clients samples : metric list =
  let elapsed = sum (List.map cal samples) /. float_of_int clients in
  let per_file s = 1000. *. cal s /. float_of_int (List.length s.req.members) in
  let fns =
    List.fold_left
      (fun a s -> List.fold_left (fun a (i, _) -> a + r.fns.(i)) a s.req.members)
      0 samples
  in
  let lat p l = percentile p (List.map per_file l) in
  let tail_lat p l = tail p (List.map per_file l) in
  let reads = List.filter (fun s -> not s.req.edit) samples in
  let edits = List.filter (fun s -> s.req.edit) samples in
  [
    ("setup_s", setup_s, "s");
    ("functions_per_s", float_of_int fns /. elapsed, "1/s");
    ("req_per_s", float_of_int (List.length samples) /. elapsed, "1/s");
    ("file_ms_p50", lat 0.5 samples, "ms");
    ("file_ms_p90", tail_lat 0.9 samples, "ms");
    ("read_ms_p50", lat 0.5 reads, "ms");
    ("read_ms_p99", tail_lat 0.99 reads, "ms");
    ("edit_ms_p50", lat 0.5 edits, "ms");
    ("edit_ms_p90", tail_lat 0.9 edits, "ms");
    ("peak_rss_mb", rss_mb, "MB");
    ("mean_err_pp", err_pp, "pp");
  ]

let metrics_json (ms : metric list) =
  Json.Obj
    (List.map
       (fun (n, v, u) ->
         ( n,
           Json.Obj
             [ ("value", Json.Float (if Float.is_finite v then v else 0.)); ("unit", Json.String u) ]
         ))
       ms)

(* The end-to-end metrics at reference speed (see [Calib]); the same at raw
   wall time go to standard error. [setup] is (reference, raw) seconds. *)
let report ~setup ~rss_mb ~err_pp ~r ~calibs ~clients samples =
  let marks = Calib.marks calibs in
  let raw =
    e2e ~setup_s:(snd setup) ~rss_mb ~err_pp ~r ~cal:(fun s -> s.latency) ~clients samples
  in
  prerr_endline ("raw: " ^ Json.to_string (metrics_json raw));
  e2e ~setup_s:(fst setup) ~rss_mb ~err_pp ~r
    ~cal:(fun s -> s.latency *. Calib.speed marks s.at)
    ~clients samples

(* Every traced run prints all of these; a layer a workload does not use
   reads 0 there. *)
let per_layer_names =
  [
    ("engine.ms", "ms"); ("engine.calls", "count"); ("engine.evaluations", "count");
    ("engine.sub_ops", "count"); ("engine.widenings", "count");
    ("engine.fuel_spent", "count"); ("engine.alloc_words", "words");
    ("interproc.self_ms", "ms"); ("interproc.rounds", "count"); ("front.ms", "ms");
    ("ir.build_ms", "ms"); ("ir.ssa_ms", "ms"); ("ir.check_ms", "ms");
    ("ir.instrs", "count"); ("cache.ms", "ms"); ("cache.hits", "count");
    ("cache.misses", "count"); ("cache.invalidations", "count");
    ("cache.hit_ratio", "ratio"); ("sched.parallel_gain", "ratio"); ("batch.ms", "ms");
    ("ops.ms", "ms");
    ("server.service_ms.predict", "ms"); ("server.service_ms.analyze", "ms");
    ("wire.ms", "ms"); ("codec.us", "us"); ("codec.bytes", "bytes");
    ("admit.shed", "count"); ("admit.peak_inflight", "count");
    ("session.dirty_fns", "count"); ("session.reused_fns", "count"); ("predict.ms", "ms");
    ("predict.fallback_branches", "count"); ("trace.coverage", "ratio");
    ("trace.overhead", "ratio"); ("error_rate", "ratio");
  ]

let per_layer values : metric list =
  List.map
    (fun (n, u) -> (n, Option.value ~default:0. (List.assoc_opt n values), u))
    per_layer_names

let engine_values (w : Layers.engine_work) =
  let f = float_of_int in
  [
    ("engine.calls", f w.Layers.calls);
    ("engine.evaluations", f w.Layers.evaluations);
    ("engine.sub_ops", f w.Layers.sub_ops);
    ("engine.widenings", f w.Layers.widenings);
    ("engine.fuel_spent", f w.Layers.fuel_spent);
    ("engine.alloc_words", w.Layers.alloc_words);
  ]

let cache_values ~hits ~misses ~invalidations =
  [
    ("cache.hits", hits);
    ("cache.misses", misses);
    ("cache.invalidations", invalidations);
    ("cache.hit_ratio", ratio hits (hits +. misses));
  ]

let span_values (b : Layers.breakdown) =
  let s = Layers.self b in
  [
    ("engine.ms", s "engine");
    ("interproc.self_ms", s "interproc");
    ("front.ms", s "front");
    ("ir.build_ms", s "ir.build");
    ("ir.ssa_ms", s "ir.ssa");
    ("ir.check_ms", s "ir.check");
    ("cache.ms", s "cache");
    ("batch.ms", s "batch");
    ("ops.ms", s "ops");
    ("predict.ms", b.Layers.span_ms "predict");
    ("trace.coverage", ratio (sum (List.map snd b.Layers.self_ms)) b.Layers.op_ms);
  ]

let ledger_values r =
  [
    ("ir.instrs", ledger_count r "ir.instrs");
    ("predict.fallback_branches", ledger_count r "predict.fallback_branches");
  ]

(* --- Traced replays ---

   A traced run replays five request lists on this domain through the
   calls the timed loop makes: the first warms up, the rest alternate
   untraced and traced. Per-layer numbers come from the traced replays, and
   [trace.overhead] is their time over that of the untraced ones after the
   warm-up, both at reference speed. The last traced replay is exported as
   a Chrome trace. *)

let replay ~cached ~export lists exec =
  let events = ref [] and walls = Array.make 2 0. and samples = ref [] in
  List.iteri
    (fun i reqs ->
      let traced = i > 0 && i mod 2 = 0 in
      if traced then Trace.enable ~capacity:(1 lsl 20) ();
      let s, wall, _ = Calib.timed (fun () -> List.map (run_one (exec ~traced)) reqs) in
      if traced then begin
        Trace.disable ();
        if Trace.dropped () > 0 then failwith "trace ring overflowed";
        events := Trace.events () @ !events
      end;
      if i > 0 then walls.(i mod 2) <- walls.(i mod 2) +. wall;
      samples := s @ !samples)
    lists;
  Trace.write export;
  (Layers.breakdown ~cached !events, ratio walls.(0) walls.(1), !samples)

(* The Ball–Larus and 90/50 baseline columns, timed on their own. *)
let baselines (c : Pipeline.compiled) =
  Trace.with_span "predict" (fun () ->
      ignore (Vrp_predict.Predictor.ball_larus c.Pipeline.ssa);
      ignore (Vrp_predict.Predictor.ninety_fifty c.Pipeline.ssa))

(* What [Ops.predict] runs for one file: [Pipeline.compile], then
   [Ops.predict_compiled] with [analyze_fn] at the engine seam. *)
let predict_layers ~analyze_fn (f : Corpus.file) =
  let c = Pipeline.compile f.Corpus.source in
  (c, Trace.with_span "ops" (fun () -> Ops.predict_compiled ~analyze_fn ~opts:Ops.default_opts c))

(* --- Workloads --- *)

type result = { attempted : int; failed : int; metrics : metric list }

let result ~(r : reference) ~failed samples metrics =
  {
    attempted = List.length samples;
    failed = failed + (if r.ledger_ok then 0 else 1);
    metrics;
  }

let traced_result ~r ~failed samples values =
  let failed = failed + if r.ledger_ok then 0 else 1 in
  let error_rate = ratio (float_of_int failed) (float_of_int (List.length samples)) in
  {
    attempted = List.length samples;
    failed;
    metrics = per_layer ((("error_rate", error_rate) :: values) @ ledger_values r);
  }

(* Set up [reps] times and report the median time, at reference speed and
   raw; the last set-up is kept, each earlier one released. The heap is
   compacted after every set-up, so that set-ups do not pile up in it and
   every timed loop starts from the same heap. *)
let setups ~reps ~release f =
  let rec go rep times raws =
    let x, t, raw = Calib.timed (fun () -> f rep) in
    Gc.compact ();
    if rep = reps - 1 then (x, (median (t :: times), median (raw :: raws)))
    else begin
      release x;
      go (rep + 1) (t :: times) (raw :: raws)
    end
  in
  go 0 [] []

let self_rss () = Daemon.peak_rss_mb "self"

(* analyze_cold: what [vrpc predict FILE] runs, one file at a time, jobs=1
   and no cache. *)
let analyze_cold ~seed ~seconds ~trace ~export =
  let files, setup = setups ~reps:11 ~release:ignore (fun _ -> Corpus.make ()) in
  let st = stream ~seed ~id:0 ~group:1 files in
  let check r samples =
    failures ~read_expected:(reference_outs r) ~edit_expected:one_shot samples
  in
  if not trace then begin
    let exec req =
      let o = Ops.predict ~opts:Ops.default_opts ~source:(single req).Corpus.source () in
      (o.Ops.out, o.Ops.code = 0)
    in
    let samples, calibs = timed_loop ~seconds st.next exec in
    let rss_mb = self_rss () in
    let r = reference files in
    let failed = check r samples in
    let err_pp = mean_err_pp () in
    (r, result ~r ~failed samples (report ~setup ~rss_mb ~err_pp ~r ~calibs ~clients:1 samples))
  end
  else begin
    let w = Layers.engine_work () in
    let rounds = ref 0 in
    let exec ~traced req =
      let w' = if traced then w else Layers.engine_work () in
      let r0 = Metrics.value Layers.interproc_rounds in
      let c, o =
        Trace.with_span "op" (fun () ->
            predict_layers ~analyze_fn:(Layers.probe w' Interproc.default_analyze_fn) (single req))
      in
      if traced then rounds := !rounds + Metrics.value Layers.interproc_rounds - r0;
      baselines c;
      (o.Ops.out, o.Ops.code = 0)
    in
    let lists = List.init 5 (fun _ -> period st) in
    let b, overhead, samples = replay ~cached:false ~export lists exec in
    let r = reference files in
    let failed = check r samples in
    ( r,
      traced_result ~r ~failed samples
        ((("interproc.rounds", float_of_int !rounds) :: ("trace.overhead", overhead) :: span_values b)
        @ engine_values w) )
  end

(* batch_warm: [Batch.analyze_sources ~cache ~jobs:1] and [Batch.render]
   over groups of files, with the summary cache filled during set-up. All
   of it runs on one domain: at jobs=nproc its tail latencies swung by a
   third between runs whenever a neighbour pre-empted one of the pool's
   domains. The pool's own effect is [sched.parallel_gain] in the traced
   run. *)
let batch_warm ~seed ~seconds ~trace ~export =
  let (files, cache), setup =
    setups ~reps:5 ~release:ignore (fun _ ->
        let files = Corpus.make () in
        let cache = Summary_cache.create () in
        ignore (Batch.analyze_sources ~cache ~jobs:1 (corpus_sources files));
        (files, cache))
  in
  let st = stream ~seed ~id:0 ~group:4 files in
  let run ~jobs req =
    let r = Batch.analyze_sources ~cache ~jobs (sources req) in
    (Batch.render r, Batch.exit_code ~strict:false r = 0)
  in
  (* Every request must render as a cold jobs=1 batch of the same files
     does; reads of a group share one expected render. *)
  let cold req = Batch.render (Batch.analyze_sources ~jobs:1 (sources req)) in
  let renders = Hashtbl.create 16 in
  let read_expected req =
    match Hashtbl.find_opt renders req.group with
    | Some s -> s
    | None ->
      let s = cold req in
      Hashtbl.replace renders req.group s;
      s
  in
  let check samples = failures ~read_expected ~edit_expected:cold samples in
  if not trace then begin
    let samples, calibs = timed_loop ~seconds st.next (run ~jobs:1) in
    let rss_mb = self_rss () in
    let r = reference files in
    let failed = check samples in
    let err_pp = mean_err_pp () in
    (r, result ~r ~failed samples (report ~setup ~rss_mb ~err_pp ~r ~calibs ~clients:1 samples))
  end
  else begin
    (* Pool gain: the same warm read pass at jobs=1 and jobs=nproc,
       alternating, untraced. *)
    let reads = List.init (Array.length st.groups) (fun g ->
        { edit = false; group = g; members = List.map (fun i -> (i, files.(i))) st.groups.(g) })
    in
    let pass jobs =
      let (), t, _ = Calib.timed (fun () -> List.iter (fun q -> ignore (run ~jobs q)) reads) in
      t
    in
    let walls = List.init 3 (fun _ -> (pass 1, pass nproc)) in
    let gain = ratio (median (List.map fst walls)) (median (List.map snd walls)) in
    (* The timed loop's own calls, with a span around each. The path has
       no [analyze_fn] seam: engine work comes from the registry. *)
    let w = Layers.engine_work () in
    let rounds = ref 0 and hits = ref 0 and misses = ref 0 and inval = ref 0 in
    let exec ~traced req =
      let w' = if traced then w else Layers.engine_work () in
      let c0 = Summary_cache.counters cache and r0 = Metrics.value Layers.interproc_rounds in
      let out =
        Trace.with_span "op" (fun () ->
            Layers.engine_registry w' (fun () ->
                let r =
                  Trace.with_span "batch" (fun () ->
                      Batch.analyze_sources ~cache ~jobs:1 (sources req))
                in
                (Trace.with_span "batch" (fun () -> Batch.render r), Batch.exit_code ~strict:false r = 0)))
      in
      if traced then begin
        let c1 = Summary_cache.delta ~before:c0 (Summary_cache.counters cache) in
        hits := !hits + c1.Summary_cache.hits;
        misses := !misses + c1.Summary_cache.misses;
        inval := !inval + c1.Summary_cache.invalidations;
        rounds := !rounds + Metrics.value Layers.interproc_rounds - r0
      end;
      out
    in
    let lists = List.init 5 (fun _ -> period st) in
    let b, overhead, samples = replay ~cached:true ~export lists exec in
    let r = reference files in
    let failed = check samples in
    let f = float_of_int in
    ( r,
      traced_result ~r ~failed samples
        ((("interproc.rounds", f !rounds) :: ("sched.parallel_gain", gain)
         :: ("trace.overhead", overhead) :: span_values b)
        @ engine_values w
        @ cache_values ~hits:(f !hits) ~misses:(f !misses) ~invalidations:(f !inval)) )
  end

(* --- serve_mixed: a spawned vrpd and closed-loop clients --- *)

let session cl = Printf.sprintf "perfbench-%d" cl

let wire_request cl req =
  let f = single req in
  let base = [ ("source", Json.String f.Corpus.source); ("name", Json.String f.Corpus.name) ] in
  if req.edit then ("analyze", Json.Obj (("session", Json.String (session cl)) :: base))
  else ("predict", Json.Obj base)

(* Start a daemon and warm it as an editor session would: every corpus
   file read once (fills the server-wide summary cache) and every edit
   target submitted once under each client's session. *)
let serve_setup ~exe ~dir ~rep files =
  let sock = Filename.concat dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) rep) in
  let d = Daemon.start ~exe ~sock ~log:(Filename.concat dir "vrpd.log") in
  Client.with_connection sock (fun c ->
      let send cl req =
        let op, params = wire_request cl req in
        let r = Client.request c ~op ~params () in
        if not (r.Protocol.ok && r.Protocol.code = 0) then failwith "vrpd warm-up request failed"
      in
      Array.iteri (fun i f -> send 0 { edit = false; group = i; members = [ (i, f) ] }) files;
      for cl = 0 to nproc - 1 do
        Array.iteri
          (fun i f ->
            if Corpus.edit_target f then send cl { edit = true; group = i; members = [ (i, f) ] })
          files
      done);
  d

type codec = { mutable codec_s : float; mutable bytes : int }

(* [nproc] client domains with one connection each; a client sends its
   next request only after the previous reply, and stops after [count]
   requests, or once [seconds] of wall time at reference speed have passed.
   This domain calibrates meanwhile. With [traced], each exchange is also
   encoded and decoded once more to time the codec. *)
let clients ~(d : Daemon.t) ~streams ?seconds ?(count = max_int) ~traced () =
  let calib = Calib.create () in
  let stop = Atomic.make false and finished = Atomic.make 0 in
  let run cl =
    Fun.protect ~finally:(fun () -> Atomic.incr finished) @@ fun () ->
    let codec = { codec_s = 0.; bytes = 0 } in
    let conn = ref (Client.connect d.Daemon.sock) in
    let exchange req =
      let op, params = wire_request cl req in
      let at = now () in
      let r = Client.request !conn ~op ~params () in
      let latency = now () -. at in
      if traced then begin
        let bytes, enc_s =
          time (fun () -> Protocol.encode_request { Protocol.id = 1; op; params })
        in
        let rb = Protocol.encode_response r in
        let _, dec_s = time (fun () -> Protocol.decode_response rb) in
        codec.codec_s <- codec.codec_s +. enc_s +. dec_s;
        codec.bytes <- codec.bytes + String.length bytes + String.length rb
      end;
      {
        req;
        at;
        latency;
        out = Digest.string r.Protocol.out;
        ok = r.Protocol.ok && r.Protocol.code = 0;
      }
    in
    let rec go k acc =
      if k >= count || Atomic.get stop then List.rev acc
      else begin
        let req = streams.(cl).next () in
        let sample =
          try Trace.with_span "op" ~args:[ ("client", string_of_int cl) ] (fun () -> exchange req)
          with _ ->
            (try Client.close !conn with _ -> ());
            conn := Client.connect d.Daemon.sock;
            { req; at = now (); latency = 0.; out = Digest.string ""; ok = false }
        in
        go (k + 1) (sample :: acc)
      end
    in
    let samples = go 0 [] in
    Client.close !conn;
    (samples, codec)
  in
  let doms = Array.init nproc (fun cl -> Domain.spawn (fun () -> run cl)) in
  Calib.watch calib ?seconds ~stop ~finished:(fun () -> Atomic.get finished = nproc) ();
  let results = Array.to_list (Array.map Domain.join doms) in
  (List.concat_map fst results, List.map snd results, [ calib ])

let serve_mixed ~exe ~dir ~seed ~seconds ~trace ~export =
  let (files, d), setup =
    setups ~reps:3 ~release:(fun (_, d) -> Daemon.stop d) (fun rep ->
        let files = Corpus.make () in
        (files, serve_setup ~exe ~dir ~rep files))
  in
  let streams = Array.init nproc (fun cl -> stream ~seed ~id:(cl + 1) ~group:1 files) in
  let check r samples =
    failures ~read_expected:(reference_outs r) ~edit_expected:one_shot samples
  in
  if not trace then begin
    let samples, _, calibs =
      clients ~d ~streams ~seconds ~traced:false ()
    in
    let rss_mb = Daemon.peak_rss_mb (string_of_int d.Daemon.pid) in
    Daemon.stop d;
    let r = reference files in
    let failed = check r samples in
    let err_pp = mean_err_pp () in
    ( r,
      result ~r ~failed samples
        (report ~setup ~rss_mb ~err_pp ~r ~calibs ~clients:nproc samples) )
  end
  else begin
    let per_client = 150 in
    let run ~traced =
      Calib.timed (fun () -> clients ~d ~streams ~count:per_client ~traced ())
    in
    let (untraced, _, _), wall0, _ = run ~traced:false in
    let m0 = Daemon.scrape d in
    Trace.enable ~capacity:(1 lsl 16) ();
    let (traced, codecs, _), wall1, _ = run ~traced:true in
    Trace.disable ();
    let m1 = Daemon.scrape d in
    Trace.write export;
    Daemon.stop d;
    let delta k = Daemon.series m1 k -. Daemon.series m0 k in
    let op_sum op = delta (Printf.sprintf "vrpd_request_seconds_sum{op=\"%s\"}" op) in
    let op_count op = delta (Printf.sprintf "vrpd_request_seconds_count{op=\"%s\"}" op) in
    let service = op_sum "predict" +. op_sum "analyze" in
    let served = op_count "predict" +. op_count "analyze" in
    let n = float_of_int (List.length traced) in
    let latency = sum (List.map (fun s -> s.latency) traced) in
    let codec_s = sum (List.map (fun c -> c.codec_s) codecs) in
    let bytes = float_of_int (List.fold_left (fun a c -> a + c.bytes) 0 codecs) in
    let samples = untraced @ traced in
    let r = reference files in
    let failed = check r samples in
    ( r,
      traced_result ~r ~failed samples
        ([
           ("engine.ms", 1000. *. delta "vrp_engine_run_seconds_sum");
           ("engine.calls", delta "vrp_engine_runs_total");
           ("engine.evaluations", delta "vrp_engine_evaluations_total");
           ("engine.sub_ops", delta "vrp_engine_sub_ops_total");
           ("engine.widenings", delta "vrp_engine_widenings_total");
           ("interproc.rounds", delta "vrp_interproc_rounds_total");
           ("server.service_ms.predict", 1000. *. ratio (op_sum "predict") (op_count "predict"));
           ("server.service_ms.analyze", 1000. *. ratio (op_sum "analyze") (op_count "analyze"));
           ("wire.ms", 1000. *. (ratio latency n -. ratio service served));
           ("codec.us", 1e6 *. ratio codec_s n);
           ("codec.bytes", ratio bytes n);
           ( "admit.shed",
             delta "vrpd_admission_shed_requests_total" +. delta "vrpd_admission_shed_conns_total" );
           ("admit.peak_inflight", Daemon.series m1 "vrpd_peak_inflight");
           ("session.dirty_fns", delta "vrpd_session_dirty_functions_sum");
           ("session.reused_fns", delta "vrpd_session_reused_functions_sum");
           ("trace.coverage", ratio (service +. codec_s) latency);
           ("trace.overhead", ratio wall1 wall0);
         ]
        @ cache_values ~hits:(delta "vrp_cache_hits_total") ~misses:(delta "vrp_cache_misses_total")
            ~invalidations:(delta "vrp_cache_invalidations_total")) )
  end

(* --- Command line --- *)

let print_result (res : result) =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) res.metrics in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (finite && res.failed = 0));
            ("attempted", Json.Int res.attempted);
            ("failed", Json.Int res.failed);
            ("metrics", metrics_json res.metrics);
          ]))

let usage () =
  prerr_endline
    "usage: main.exe --workload analyze_cold|batch_warm|serve_mixed --seed N --seconds S \
     --trace 0|1 --vrpd EXE --out DIR\n\
    \       main.exe ledger [--small]\n\
    \       main.exe selftest\n\
    \       main.exe kernel";
  exit 2

let rec opt name = function
  | k :: v :: _ when k = name -> Some v
  | _ :: rest -> opt name rest
  | [] -> None

let int_opt name args =
  match Option.map int_of_string_opt (opt name args) with Some (Some n) -> n | _ -> usage ()

let ledger_json args =
  let size = if List.mem "--small" args then Corpus.Small else Corpus.Full in
  let r = reference (Corpus.make ~size ()) in
  Json.to_string (Json.Obj (("ok", Json.Bool r.ledger_ok) :: r.ledger))

(* Relative tolerance on [engine.alloc_words] between two runs; every other
   ledger entry must repeat exactly. *)
let alloc_tolerance = 0.02

let selftest () =
  let exe = Sys.executable_name in
  let run () =
    let ic = Unix.open_process_args_in exe [| exe; "ledger"; "--small" |] in
    let line = input_line ic in
    match (Unix.close_process_in ic, Json.parse line) with
    | Unix.WEXITED 0, Ok (Json.Obj fields) -> fields
    | _ -> failwith "ledger run failed"
  in
  let a = run () and b = run () in
  let bad =
    List.filter
      (fun (k, v) ->
        match (v, List.assoc_opt k b) with
        | Json.Float x, Some (Json.Float y) when k = "engine.alloc_words" ->
          Float.abs (x -. y) > alloc_tolerance *. Float.max x y
        | v, w -> Some v <> w)
      a
  in
  List.iter (fun (k, v) -> Printf.printf "%-28s %s\n" k (Json.to_string v)) a;
  if bad <> [] || List.length a <> List.length b || List.assoc_opt "ok" a <> Some (Json.Bool true)
  then begin
    List.iter (fun (k, _) -> Printf.printf "MISMATCH %s\n" k) bad;
    exit 1
  end;
  print_endline "ledger repeats: ok"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "ledger" :: args -> print_endline (ledger_json args)
  | [ "selftest" ] -> selftest ()
  | [ "kernel" ] -> Calib.serve ()
  | args ->
    let workload = Option.value ~default:"" (opt "--workload" args) in
    let seed = int_opt "--seed" args and seconds = float_of_int (int_opt "--seconds" args) in
    let trace = int_opt "--trace" args = 1 in
    let dir = Option.value ~default:".perfbench" (opt "--out" args) in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let export = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
    let r, res =
      match workload with
      | "analyze_cold" -> analyze_cold ~seed ~seconds ~trace ~export
      | "batch_warm" -> batch_warm ~seed ~seconds ~trace ~export
      | "serve_mixed" -> (
        match opt "--vrpd" args with
        | Some exe -> serve_mixed ~exe ~dir ~seed ~seconds ~trace ~export
        | None -> usage ())
      | _ -> usage ()
    in
    let ledger = Json.to_string (Json.Obj r.ledger) in
    let oc = open_out (Filename.concat dir (Printf.sprintf "ledger-%s-%d.json" workload seed)) in
    output_string oc (ledger ^ "\n");
    close_out oc;
    prerr_endline ("ledger: " ^ ledger);
    print_result res
