(** Diagnostics subsystem tests: report collection and ordering, severity
    accounting, rendering, fault-spec parsing, and the scoped counter
    frames. *)

module Diag = Vrp_diag.Diag
module Counters = Vrp_ranges.Counters

let tc = Alcotest.test_case

let report_collects_in_order () =
  let r = Diag.create () in
  Diag.add r ~fn:"f" ~block:3 Diag.Warning Diag.Budget_exhausted "out of fuel";
  Diag.add r ~fn:"g" Diag.Info Diag.Fallback_heuristic "heuristic";
  Diag.add r Diag.Error Diag.Analysis_crashed "boom";
  Alcotest.(check int) "count" 3 (Diag.count r);
  let kinds = List.map (fun (d : Diag.diag) -> d.Diag.kind) (Diag.to_list r) in
  Alcotest.(check bool) "emission order" true
    (kinds = [ Diag.Budget_exhausted; Diag.Fallback_heuristic; Diag.Analysis_crashed ]);
  Alcotest.(check int) "count_kind" 1 (Diag.count_kind r Diag.Analysis_crashed)

let degraded_tracks_severity () =
  let r = Diag.create () in
  Alcotest.(check bool) "empty not degraded" false (Diag.degraded r);
  Diag.add r Diag.Info Diag.Widened "quota widening";
  Alcotest.(check bool) "info not degraded" false (Diag.degraded r);
  Diag.add r ~fn:"f" Diag.Warning Diag.Budget_exhausted "out of fuel";
  Alcotest.(check bool) "warning degrades" true (Diag.degraded r)

let render_mentions_kinds_and_locations () =
  let r = Diag.create () in
  Diag.add r ~fn:"f" ~block:7 Diag.Warning Diag.Budget_exhausted "out of fuel";
  Diag.add r ~fn:"f" ~block:7 Diag.Warning Diag.Budget_exhausted "out of fuel";
  let s = Diag.render r in
  let has frag = Astring.String.is_infix ~affix:frag s in
  Alcotest.(check bool) "kind tag" true (has "[budget-exhausted]");
  Alcotest.(check bool) "location" true (has "f.B7");
  Alcotest.(check bool) "duplicates collapsed" true (has "(×2)");
  Alcotest.(check bool) "summary" true (has "2 diagnostics");
  Alcotest.(check bool) "degraded note" true (has "run degraded")

let fault_parse_roundtrip () =
  let ok spec expected =
    match Diag.Fault.parse spec with
    | Ok f ->
      Alcotest.(check string) spec (Diag.Fault.to_string expected) (Diag.Fault.to_string f)
    | Error msg -> Alcotest.failf "parse %S failed: %s" spec msg
  in
  ok "crash:main" (Diag.Fault.Crash_fn "main");
  ok "fuel:helper" (Diag.Fault.Starve_fuel "helper");
  ok "steps:120" (Diag.Fault.Trip_after 120);
  ok "hang:f" (Diag.Fault.Hang_fn "f");
  ok "crash-file:dir/x.mc" (Diag.Fault.Crash_file "dir/x.mc");
  ok "corrupt-cache:2" (Diag.Fault.Corrupt_cache 2);
  ok "skew:main" (Diag.Fault.Skew_range "main");
  ok "kill-worker:3" (Diag.Fault.Kill_worker 3)

let fault_parse_rejects_garbage () =
  List.iter
    (fun spec ->
      match Diag.Fault.parse spec with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" spec
      | Error msg ->
        Alcotest.(check bool) "message mentions the spec" true
          (Astring.String.is_infix ~affix:spec msg))
    [
      "bogus"; "crash:"; "steps:banana"; "steps:-4"; "explode:f"; "hang:";
      "corrupt-cache:0"; "timeout:f";
      (* retired specs: no retry ladder, no journal *)
      "flaky:f:3"; "torn-journal:1";
    ]

(* --- Scoped counter frames --- *)

let analysis_src =
  {|
int main(int n, int s) {
  int acc = 0;
  for (int i = 0; i < 100; i++) { if (i < 50) { acc = acc + i; } }
  return acc;
}
|}

let run_one () =
  let _, fn = Helpers.compile_main analysis_src in
  ignore (Vrp_core.Engine.analyze fn)

let counters_isolate_siblings () =
  let (), a = Counters.with_counters run_one in
  let (), b = Counters.with_counters run_one in
  Alcotest.(check bool) "work counted" true (a.Counters.sub_ops > 0);
  Alcotest.(check bool) "evaluations counted" true (a.Counters.evaluations > 0);
  (* identical deterministic runs in sibling frames: no smearing *)
  Alcotest.(check int) "sibling sub_ops equal" a.Counters.sub_ops b.Counters.sub_ops;
  Alcotest.(check int) "sibling evals equal" a.Counters.evaluations b.Counters.evaluations

let counters_nest () =
  let (inner_figures, outer) =
    Counters.with_counters (fun () ->
        let (), inner = Counters.with_counters run_one in
        run_one ();
        inner)
  in
  Alcotest.(check bool) "outer includes inner" true
    (outer.Counters.sub_ops >= 2 * inner_figures.Counters.sub_ops);
  Alcotest.(check int) "inner is exactly one run"
    (let (), solo = Counters.with_counters run_one in
     solo.Counters.sub_ops)
    inner_figures.Counters.sub_ops

let counters_pop_on_exception () =
  (try
     ignore
       (Counters.with_counters (fun () -> failwith "boom"))
   with Failure _ -> ());
  (* the frame stack must be balanced again: a fresh frame sees only its
     own work *)
  let (), a = Counters.with_counters run_one in
  let (), b = Counters.with_counters (fun () -> ()) in
  Alcotest.(check bool) "fresh frame counts" true (a.Counters.sub_ops > 0);
  Alcotest.(check int) "empty frame is empty" 0 b.Counters.sub_ops

(* Each event is recorded once: in the innermost frame, which hands its
   totals down when it closes. Across an outermost frame the registry
   therefore moves by exactly the frame's totals, also when its body
   raises. *)
let counters_conserved () =
  let cells =
    List.map Vrp_obs.Metrics.counter
      [
        "vrp_engine_evaluations_total";
        "vrp_engine_sub_ops_total";
        "vrp_engine_widenings_total";
        "vrp_engine_fuel_exhaustions_total";
      ]
  in
  let registry_delta f =
    let before = List.map Vrp_obs.Metrics.value cells in
    let r = f () in
    (r, List.map2 (fun c b -> Vrp_obs.Metrics.value c - b) cells before)
  in
  let figures (c : Counters.t) =
    [ c.Counters.evaluations; c.Counters.sub_ops; c.Counters.widenings; c.Counters.fuel_exhaustions ]
  in
  let ((), frame), delta =
    registry_delta (fun () ->
        Counters.with_counters (fun () ->
            run_one ();
            ignore (Counters.with_counters run_one)))
  in
  Alcotest.(check bool) "work counted" true (frame.Counters.sub_ops > 0);
  Alcotest.(check (list int)) "registry delta = frame totals" (figures frame) delta;
  let (), solo = Counters.with_counters run_one in
  let (), raised =
    registry_delta (fun () ->
        try
          Counters.with_counters (fun () ->
              run_one ();
              failwith "boom")
          |> ignore
        with Failure _ -> ())
  in
  Alcotest.(check (list int)) "raising frame flushed" (figures solo) raised

let suite =
  ( "diag",
    [
      tc "report collects in order" `Quick report_collects_in_order;
      tc "degraded tracks severity" `Quick degraded_tracks_severity;
      tc "render mentions kinds and locations" `Quick render_mentions_kinds_and_locations;
      tc "fault parse roundtrip" `Quick fault_parse_roundtrip;
      tc "fault parse rejects garbage" `Quick fault_parse_rejects_garbage;
      tc "counters isolate sibling frames" `Quick counters_isolate_siblings;
      tc "counters nest" `Quick counters_nest;
      tc "counters pop on exception" `Quick counters_pop_on_exception;
      tc "counters conserved into the registry" `Quick counters_conserved;
    ] )
