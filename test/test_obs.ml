(** Observability tests: Prometheus exposition correctness (escaping,
    histogram bucket discipline, idempotent re-render), registry cell
    semantics (find-or-create identity, kind mismatch, cross-domain
    counter sharding), the span tracer (disabled cost, parent links, ring
    overflow, Chrome-trace export), and the two end-to-end invariants —
    analysis output is byte-identical with tracing on, and the aggregated
    engine counters are deterministic across pool widths. *)

module Metrics = Vrp_obs.Metrics
module Trace = Vrp_obs.Trace
module Json = Vrp_server.Json
module Ops = Vrp_server.Ops
module Pipeline = Vrp_core.Pipeline

let tc = Alcotest.test_case
let contains s affix = Astring.String.is_infix ~affix s

let lines_of s = String.split_on_char '\n' s

(* The numeric sample of a rendered series, e.g.
   [series_value text {|foo_bucket{le="+Inf"}|}]. *)
let series_value text series =
  let prefix = series ^ " " in
  lines_of text
  |> List.find_map (fun line ->
         if String.length line >= String.length prefix
            && String.sub line 0 (String.length prefix) = prefix
         then
           Some
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
         else None)

let series_int text series =
  match series_value text series with
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None -> Alcotest.failf "series %s: non-integer sample %s" series v)
  | None -> Alcotest.failf "series %s not rendered" series

(* --- Exposition --- *)

let exposition_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r ~help:"Things counted" "test_things_total" in
  Metrics.inc c;
  Metrics.inc ~by:41 c;
  let g = Metrics.gauge ~registry:r "test_level" in
  Metrics.set g 2.0;
  let text = Metrics.render ~registry:r () in
  Alcotest.(check bool) "HELP line" true
    (contains text "# HELP test_things_total Things counted\n");
  Alcotest.(check bool) "TYPE counter" true
    (contains text "# TYPE test_things_total counter\n");
  Alcotest.(check bool) "TYPE gauge" true
    (contains text "# TYPE test_level gauge\n");
  Alcotest.(check int) "counter sample" 42 (series_int text "test_things_total");
  (* Gauges render as floats; integral values get a trailing .0 so the
     sample is unambiguously a float to downstream parsers. *)
  Alcotest.(check (option string)) "gauge sample" (Some "2.0")
    (series_value text "test_level");
  Metrics.set g 2.5;
  Alcotest.(check (option string)) "gauge fraction" (Some "2.5")
    (series_value (Metrics.render ~registry:r ()) "test_level")

let label_escaping () =
  let r = Metrics.create () in
  let c =
    Metrics.counter ~registry:r
      ~help:"line one\nline two with \\ backslash"
      ~labels:[ ("path", "a\\b\"c\nd") ]
      "test_labeled_total"
  in
  Metrics.inc c;
  let text = Metrics.render ~registry:r () in
  Alcotest.(check bool) "label value escaped" true
    (contains text {|test_labeled_total{path="a\\b\"c\nd"} 1|});
  Alcotest.(check bool) "help newline escaped" true
    (contains text {|# HELP test_labeled_total line one\nline two with \\ backslash|})

let series_sorted_by_labels () =
  let r = Metrics.create () in
  (* Registered out of order; the exposition must sort by (name, labels)
     under one TYPE header so scrapers see a single well-formed family. *)
  Metrics.inc (Metrics.counter ~registry:r ~labels:[ ("op", "predict") ] "test_ops_total");
  Metrics.inc (Metrics.counter ~registry:r ~labels:[ ("op", "batch") ] "test_ops_total");
  Metrics.inc (Metrics.counter ~registry:r "test_aaa_total");
  let text = Metrics.render ~registry:r () in
  let idx affix =
    match Astring.String.find_sub ~sub:affix text with
    | Some i -> i
    | None -> Alcotest.failf "missing %s" affix
  in
  Alcotest.(check bool) "names sorted" true
    (idx "test_aaa_total" < idx "test_ops_total");
  Alcotest.(check bool) "labels sorted" true
    (idx {|test_ops_total{op="batch"}|} < idx {|test_ops_total{op="predict"}|});
  (* One TYPE header per family, not per series. *)
  let headers =
    lines_of text
    |> List.filter (fun l -> l = "# TYPE test_ops_total counter")
  in
  Alcotest.(check int) "one TYPE header" 1 (List.length headers)

let histogram_exposition () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~buckets:[ 1.0; 2.0; 5.0 ] "test_lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 10.0 ];
  let text = Metrics.render ~registry:r () in
  Alcotest.(check bool) "TYPE histogram" true
    (contains text "# TYPE test_lat histogram\n");
  (* Cumulative buckets: each le bound counts everything at or below it. *)
  Alcotest.(check int) "le=1" 1 (series_int text {|test_lat_bucket{le="1.0"}|});
  Alcotest.(check int) "le=2" 2 (series_int text {|test_lat_bucket{le="2.0"}|});
  Alcotest.(check int) "le=5" 2 (series_int text {|test_lat_bucket{le="5.0"}|});
  Alcotest.(check int) "le=+Inf" 3 (series_int text {|test_lat_bucket{le="+Inf"}|});
  Alcotest.(check int) "_count = +Inf" 3 (series_int text "test_lat_count");
  Alcotest.(check (option string)) "_sum" (Some "12.0")
    (series_value text "test_lat_sum");
  (* Bucket monotonicity over the rendered lines themselves. *)
  let bucket_counts =
    lines_of text
    |> List.filter_map (fun l ->
           if String.length l > 16 && String.sub l 0 16 = "test_lat_bucket{" then
             match String.rindex_opt l ' ' with
             | Some i ->
               int_of_string_opt
                 (String.sub l (i + 1) (String.length l - i - 1))
             | None -> None
           else None)
  in
  Alcotest.(check int) "bucket lines" 4 (List.length bucket_counts);
  let rec monotone = function
    | a :: (b :: _ as tl) -> a <= b && monotone tl
    | _ -> true
  in
  Alcotest.(check bool) "cumulative non-decreasing" true (monotone bucket_counts);
  Alcotest.(check int) "hist_count" 3 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "hist_sum" 12.0 (Metrics.hist_sum h)

let idempotent_rerender () =
  let r = Metrics.create () in
  Metrics.inc ~by:7 (Metrics.counter ~registry:r "test_again_total");
  Metrics.observe (Metrics.histogram ~registry:r ~buckets:[ 1.0 ] "test_h") 0.5;
  Metrics.set (Metrics.gauge ~registry:r "test_g") 3.25;
  let a = Metrics.render ~registry:r () in
  let b = Metrics.render ~registry:r () in
  Alcotest.(check string) "render is a pure read" a b

let find_or_create_identity () =
  let r = Metrics.create () in
  let a = Metrics.counter ~registry:r ~labels:[ ("k", "v") ] "test_same_total" in
  let b = Metrics.counter ~registry:r ~labels:[ ("k", "v") ] "test_same_total" in
  Metrics.inc a;
  Metrics.inc b;
  (* Same (name, labels) resolves to the same cell: definitions can live
     at their use sites without double counting. *)
  Alcotest.(check int) "one cell" 2 (Metrics.value a);
  let other = Metrics.counter ~registry:r ~labels:[ ("k", "w") ] "test_same_total" in
  Alcotest.(check int) "different labels, different cell" 0 (Metrics.value other);
  (match Metrics.gauge ~registry:r "test_same_total" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  Metrics.reset_counter a;
  Alcotest.(check int) "reset_counter zeroes" 0 (Metrics.value a);
  Metrics.inc other;
  Metrics.reset ~registry:r ();
  Alcotest.(check int) "reset zeroes all" 0 (Metrics.value other)

let sharded_counter_across_domains () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "test_shards_total" in
  let per_domain = 10_000 in
  let body () = for _ = 1 to per_domain do Metrics.inc c done in
  let domains = List.init 4 (fun _ -> Domain.spawn body) in
  body ();
  List.iter Domain.join domains;
  (* Five domains hammering one counter concurrently: the per-domain
     shards mean no increment is ever lost. *)
  Alcotest.(check int) "no lost increments" (5 * per_domain) (Metrics.value c)

(* --- Tracer --- *)

let tracer_disabled_no_events () =
  Trace.enable ~capacity:16 ();
  Trace.disable ();
  Trace.reset ();
  let v = Trace.with_span "ghost" (fun () -> 41 + 1) in
  Alcotest.(check int) "body ran" 42 v;
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()));
  Alcotest.(check bool) "disabled" false (Trace.enabled ())

let tracer_nesting_parent_links () =
  Trace.enable ~capacity:64 ();
  Fun.protect ~finally:Trace.disable (fun () ->
      Trace.with_span "outer" ~args:[ ("k", "v") ] (fun () ->
          Trace.with_span "inner" (fun () -> ());
          Trace.with_span "inner2" (fun () -> ()));
      match Trace.events () with
      | [ i1; i2; o ] ->
        (* Children complete (and are recorded) before their parent. *)
        Alcotest.(check string) "first child" "inner" i1.Trace.name;
        Alcotest.(check string) "second child" "inner2" i2.Trace.name;
        Alcotest.(check string) "parent last" "outer" o.Trace.name;
        Alcotest.(check int) "inner links outer" o.Trace.id i1.Trace.parent;
        Alcotest.(check int) "inner2 links outer" o.Trace.id i2.Trace.parent;
        Alcotest.(check int) "outer is a root" 0 o.Trace.parent;
        Alcotest.(check (list (pair string string))) "args carried"
          [ ("k", "v") ] o.Trace.args;
        Alcotest.(check bool) "durations non-negative" true
          (List.for_all (fun e -> e.Trace.dur_us >= 0.0) [ i1; i2; o ])
      | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

let tracer_span_closed_on_raise () =
  Trace.enable ~capacity:64 ();
  Fun.protect ~finally:Trace.disable (fun () ->
      (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
      (* The raising span was recorded and popped: a sibling opened after
         it must not inherit it as parent. *)
      Trace.with_span "after" (fun () -> ());
      match Trace.events () with
      | [ b; a ] ->
        Alcotest.(check string) "raised span recorded" "boom" b.Trace.name;
        Alcotest.(check int) "sibling is a root" 0 a.Trace.parent
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let tracer_ring_overflow () =
  Trace.enable ~capacity:16 ();
  Fun.protect ~finally:Trace.disable (fun () ->
      for i = 1 to 20 do
        Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
      done;
      let evs = Trace.events () in
      Alcotest.(check int) "ring holds capacity" 16 (List.length evs);
      Alcotest.(check int) "overwrites counted" 4 (Trace.dropped ());
      (* Oldest four were overwritten: the survivors start at s5. *)
      Alcotest.(check string) "oldest survivor" "s5" (List.hd evs).Trace.name;
      Alcotest.(check string) "newest last" "s20"
        (List.nth evs 15).Trace.name)

let tracer_export_parses () =
  Trace.enable ~capacity:64 ();
  Fun.protect ~finally:Trace.disable (fun () ->
      Trace.with_span "root" (fun () ->
          Trace.with_span "leaf" ~args:[ ("fn", "a\"b") ] (fun () -> ()));
      let doc = Trace.export () in
      match Json.parse doc with
      | Error msg -> Alcotest.failf "export is not JSON: %s" msg
      | Ok j -> (
        match Json.mem_list "traceEvents" j with
        | None -> Alcotest.fail "no traceEvents array"
        | Some evs ->
          Alcotest.(check int) "two events" 2 (List.length evs);
          List.iter
            (fun e ->
              Alcotest.(check (option string)) "complete event" (Some "X")
                (Json.mem_string "ph" e);
              match Json.member "args" e with
              | Some args ->
                if Json.mem_string "span_id" args = None then
                  Alcotest.fail "no span_id in args"
              | None -> Alcotest.fail "no args")
            evs;
          Alcotest.(check (option string)) "time unit" (Some "ms")
            (Json.mem_string "displayTimeUnit" j)))

(* --- End-to-end invariants --- *)

let obs_src =
  {|
int depth(int n) {
  int d = 0;
  while (n > 1) { n = n / 2; d = d + 1; }
  return d;
}
int scale(int k) {
  int acc = 0;
  for (int i = 0; i < 16; i++) { if (i < k) { acc = acc + depth(i); } }
  return acc;
}
int main(int a, int b) {
  if (a > b) { return scale(a); }
  return scale(b) + depth(a);
}
|}

(* The headline instrumentation contract: tracing must not perturb the
   analysis. Output with spans recording is byte-identical to output with
   the tracer off. *)
let predict_byte_identical_traced () =
  let want = Ops.predict ~opts:Ops.default_opts ~source:obs_src () in
  Trace.enable ();
  let got =
    Fun.protect ~finally:Trace.disable (fun () ->
        Ops.predict ~opts:Ops.default_opts ~source:obs_src ())
  in
  Alcotest.(check string) "stdout byte-identical" want.Ops.out got.Ops.out;
  Alcotest.(check string) "stderr byte-identical" want.Ops.err got.Ops.err;
  Alcotest.(check int) "code identical" want.Ops.code got.Ops.code;
  (* And the run actually produced a span tree: per-phase roots with the
     per-function engine spans below them. *)
  let evs = Trace.events () in
  let names = List.map (fun e -> e.Trace.name) evs in
  List.iter
    (fun n ->
      if not (List.mem n names) then Alcotest.failf "no %s span" n)
    [ "compile"; "interproc"; "engine"; "wave" ];
  List.iter
    (fun e ->
      if e.Trace.name = "engine" && e.Trace.parent = 0 then
        Alcotest.fail "engine span has no parent")
    evs

(* The migrated Counters frames aggregate per-domain registry shards; the
   totals must not depend on the pool width (same analysis, same counts —
   the counter companion to byte-identical output). *)
let four_job_counter_determinism () =
  let program = (Helpers.compile obs_src).Pipeline.ssa in
  let names =
    [
      "vrp_engine_runs_total";
      "vrp_engine_evaluations_total";
      "vrp_engine_sub_ops_total";
      "vrp_engine_widenings_total";
      "vrp_engine_fuel_exhaustions_total";
    ]
  in
  let cells = List.map Metrics.counter names in
  let deltas jobs =
    let before = List.map Metrics.value cells in
    ignore (Helpers.analyze_on_pool ~jobs program);
    List.map2 (fun c b -> Metrics.value c - b) cells before
  in
  let seq = deltas 1 in
  let par = deltas 4 in
  Alcotest.(check bool) "sequential run counted work" true
    (List.nth seq 2 > 0 && List.nth seq 0 > 0);
  List.iteri
    (fun i name ->
      Alcotest.(check int)
        (Printf.sprintf "%s delta (jobs 1 vs 4)" name)
        (List.nth seq i) (List.nth par i))
    names

let suite =
  ( "obs",
    [
      tc "exposition basics" `Quick exposition_basics;
      tc "label + help escaping" `Quick label_escaping;
      tc "series sorted, one TYPE header" `Quick series_sorted_by_labels;
      tc "histogram buckets + _sum/_count" `Quick histogram_exposition;
      tc "idempotent re-render" `Quick idempotent_rerender;
      tc "find-or-create identity + kind mismatch" `Quick find_or_create_identity;
      tc "counter sharded across domains" `Quick sharded_counter_across_domains;
      tc "tracer disabled records nothing" `Quick tracer_disabled_no_events;
      tc "span nesting + parent links" `Quick tracer_nesting_parent_links;
      tc "span closed on raise" `Quick tracer_span_closed_on_raise;
      tc "ring overflow drops oldest" `Quick tracer_ring_overflow;
      tc "chrome trace export parses" `Quick tracer_export_parses;
      tc "predict byte-identical under tracing" `Quick predict_byte_identical_traced;
      tc "engine counters deterministic at 4 jobs" `Quick four_job_counter_determinism;
    ] )
