(** The learned fallback predictor: model-file round-trips and rejection,
    training determinism (pinned digests), clean degradation to Ball–Larus
    on bad models, the fallback hook in the pipeline ladder, and the
    held-out fuzzer validation of the committed default model. *)

module Ir = Vrp_ir.Ir
module Diag = Vrp_diag.Diag
module Pipeline = Vrp_core.Pipeline
module Heuristics = Vrp_predict.Heuristics
module Features = Vrp_learn.Features
module Dataset = Vrp_learn.Dataset
module Tree = Vrp_learn.Tree
module Infer = Vrp_learn.Infer
module Ops = Vrp_server.Ops

let tc = Alcotest.test_case

(* The committed default model's training coordinates, pinned end to end:
   seed/count/profile fix the corpus digest, which (with the tree
   parameters) fixes the model bytes. CI's train-smoke job re-derives the
   same digests from a fresh `vrpc train` run. *)
let default_seed = 42
let default_count = 300
let default_depth = 7
let default_min_leaf = 10
let default_corpus_digest = "e54168c946e8dc3dd044c711745360e4"
let default_model_digest = "52da6c8644947fd51f6b8ba8d337ccc6"

let small_model () =
  let ds = Dataset.build ~seed:7 ~count:15 () in
  Tree.train ~depth:4 ~min_leaf:5 ds

(* --- serialization --- *)

let roundtrip_byte_identical () =
  let m = small_model () in
  let bytes = Tree.to_string m in
  match Tree.of_string bytes with
  | Error e -> Alcotest.failf "own serialization rejected: %s" e
  | Ok m' ->
    Alcotest.(check string) "re-serialization is byte-identical" bytes
      (Tree.to_string m');
    Alcotest.(check string) "digest stable" (Tree.digest m) (Tree.digest m')

let committed_model_matches_embedded () =
  let committed = Helpers.read_file "../models/default.vrpmodel" in
  Alcotest.(check string) "models/default.vrpmodel = embedded module bytes"
    Vrp_learn.Default_model.data committed;
  let m = Lazy.force Infer.default in
  Alcotest.(check string) "embedded default round-trips byte-identically"
    committed (Tree.to_string m);
  Alcotest.(check string) "pinned model digest" default_model_digest
    (Tree.digest m);
  Alcotest.(check string) "pinned corpus digest" default_corpus_digest
    m.Tree.corpus;
  Alcotest.(check int) "schema version" Features.version m.Tree.schema_version;
  Alcotest.(check int) "feature dimension" Features.dim m.Tree.dim

let corrupt_and_truncated_rejected () =
  let bytes = Tree.to_string (small_model ()) in
  let expect_error what s =
    match Tree.of_string s with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  expect_error "empty model" "";
  expect_error "bad magic" ("vrpmodelx 1\n" ^ bytes);
  (* Flip one byte inside a node line: the trailing MD5 must catch it. *)
  let flipped = Bytes.of_string bytes in
  let pos = String.index bytes 'L' in
  Bytes.set flipped pos 'S';
  expect_error "bit-flipped body" (Bytes.to_string flipped);
  (* Drop the checksum line entirely, then half of it. *)
  let before_md5 = String.length bytes - (String.length (Tree.digest (small_model ())) + 5) in
  expect_error "missing checksum" (String.sub bytes 0 before_md5);
  expect_error "truncated mid-line" (String.sub bytes 0 (String.length bytes - 7));
  (* A verifying checksum over a truncated body must still be rejected:
     re-sign a body whose node list is cut short. *)
  let body_lines = String.split_on_char '\n' bytes in
  let cut = List.filteri (fun i _ -> i < List.length body_lines - 4) body_lines in
  let cut_body = String.concat "\n" cut ^ "\nend\n" in
  expect_error "re-signed truncation"
    (cut_body ^ "md5 " ^ Digest.to_hex (Digest.string cut_body) ^ "\n")

let schema_mismatch_rejected () =
  let m = small_model () in
  let future = Tree.to_string { m with Tree.schema_version = Features.version + 1 } in
  (match Tree.of_string future with
  | Ok _ -> () (* the container accepts any schema; Infer must not *)
  | Error e -> Alcotest.failf "container rejected schema it should defer on: %s" e);
  match Infer.of_string future with
  | Ok _ -> Alcotest.fail "Infer accepted a future feature schema"
  | Error d ->
    Alcotest.(check bool) "kind is model-error" true (d.Diag.kind = Diag.Model_error);
    Alcotest.(check bool) "message names the schema" true
      (Astring.String.is_infix ~affix:"schema" d.Diag.message)

let load_errors_are_structured () =
  match Infer.load "/nonexistent/model.vrpmodel" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error d ->
    Alcotest.(check bool) "kind is model-error" true (d.Diag.kind = Diag.Model_error);
    Alcotest.(check bool) "severity is error" true (d.Diag.severity = Diag.Error)

(* --- degradation: a bad model file must not change the predictions --- *)

let bad_model_degrades_cleanly () =
  let source = (Option.get (Vrp_suite.Suite.find "qsort")).Vrp_suite.Suite.source in
  let plain = Ops.predict ~opts:Ops.default_opts ~source () in
  let bad_opts = { Ops.default_opts with Ops.model = Ops.Model_file "/nonexistent.vrpmodel" } in
  let degraded = Ops.predict ~opts:bad_opts ~source () in
  Alcotest.(check string) "output identical to Ball–Larus run" plain.Ops.out
    degraded.Ops.out;
  Alcotest.(check int) "exit 0 without --strict" 0 degraded.Ops.code;
  let diag =
    Ops.predict ~opts:{ bad_opts with Ops.diagnostics = true; strict = true } ~source ()
  in
  Alcotest.(check bool) "model-error in diagnostics" true
    (Astring.String.is_infix ~affix:"model-error" diag.Ops.err);
  Alcotest.(check int) "exit 3 under --strict" 3 diag.Ops.code

let good_model_changes_legend () =
  let source = (Option.get (Vrp_suite.Suite.find "qsort")).Vrp_suite.Suite.source in
  let opts = { Ops.default_opts with Ops.model = Ops.Default_model } in
  let o = Ops.predict ~opts ~source () in
  Alcotest.(check bool) "legend names the learned model" true
    (Astring.String.is_infix ~affix:"learned-model fallback" o.Ops.out)

(* --- training determinism --- *)

let corpus_digest_job_invariant () =
  let a = Dataset.build ~jobs:1 ~seed:5 ~count:25 () in
  let b = Dataset.build ~jobs:3 ~seed:5 ~count:25 () in
  Alcotest.(check string) "digest invariant under jobs" a.Dataset.digest b.Dataset.digest;
  Alcotest.(check string) "model bytes invariant under jobs"
    (Tree.to_string (Tree.train a))
    (Tree.to_string (Tree.train b));
  let c = Dataset.build ~seed:6 ~count:25 () in
  Alcotest.(check bool) "seed changes the corpus" true
    (a.Dataset.digest <> c.Dataset.digest)

let default_training_reproducible () =
  let ds =
    Dataset.build ~jobs:2 ~seed:default_seed ~count:default_count ()
  in
  Alcotest.(check string) "corpus digest pinned" default_corpus_digest ds.Dataset.digest;
  let m = Tree.train ~depth:default_depth ~min_leaf:default_min_leaf ds in
  Alcotest.(check string) "model digest pinned" default_model_digest (Tree.digest m);
  Alcotest.(check string) "re-training reproduces the committed bytes"
    Vrp_learn.Default_model.data (Tree.to_string m)

let dataset_invariants () =
  let ds = Dataset.build ~seed:11 ~count:20 () in
  Alcotest.(check bool) "nonempty" true (Array.length ds.Dataset.samples > 0);
  Array.iter
    (fun (s : Dataset.sample) ->
      Alcotest.(check int) "feature dimension" Features.dim (Array.length s.Dataset.fv);
      Alcotest.(check bool) "total positive" true (s.Dataset.total > 0);
      Alcotest.(check bool) "taken within total" true
        (s.Dataset.taken >= 0 && s.Dataset.taken <= s.Dataset.total);
      Alcotest.(check bool) "ball-larus per-mille in range" true
        (s.Dataset.bl_pm >= 0 && s.Dataset.bl_pm <= 1000))
    ds.Dataset.samples

(* --- the fallback hook in the pipeline ladder --- *)

let fallback_hook_reaches_bottom_branches () =
  (* A branch on main's parameter: its range is ⊥/unknown, so the paper's
     ladder ends in the fallback tier — which the hook replaces. *)
  let src = "int main(int n, int s) { if (n > 5) { return 1; } return 0; }" in
  let c = Pipeline.compile src in
  let hook ~static:_ ~res:_ ~src:_ _ = 0.123 in
  let preds, _ = Pipeline.vrp_predictions ~fallback:hook c.Pipeline.ssa in
  let hit =
    Hashtbl.fold (fun _ p acc -> acc || Float.equal p 0.123) preds false
  in
  Alcotest.(check bool) "hook prediction reached the surface" true hit;
  let plain, _ = Pipeline.vrp_predictions c.Pipeline.ssa in
  let bl_differs =
    Hashtbl.fold
      (fun key p acc ->
        acc || not (Float.equal p (Hashtbl.find preds key)))
      plain false
  in
  Alcotest.(check bool) "default tier is not the hook" true bl_differs

let compare_has_learned_column () =
  let source = (Option.get (Vrp_suite.Suite.find "qsort")).Vrp_suite.Suite.source in
  let o =
    Ops.compare_predictors ~opts:Ops.default_opts ~train:[ 100; 1 ]
      ~ref_args:[ 1000; 2 ] ~source ()
  in
  Alcotest.(check bool) "vrp+learned column present" true
    (Astring.String.is_infix ~affix:"vrp+learned" o.Ops.out);
  Alcotest.(check bool) "vrp+learned mean-error line present" true
    (Astring.String.is_infix ~affix:"mean |error| vrp+learned" o.Ops.out)

(* --- held-out validation: the acceptance bar for the committed model ---

   A corpus whose seed is disjoint from the training seed; the learned
   model must beat Ball–Larus at every §5 error margin on the branches
   both are asked to predict (the ⊥ fallback population), and on mean
   absolute error. *)

let held_out_validation_beats_ball_larus () =
  let model = Lazy.force Infer.default in
  let v = Dataset.build ~jobs:2 ~seed:1234 ~count:120 () in
  let n = Array.length v.Dataset.samples in
  Alcotest.(check bool) "validation corpus nonempty" true (n > 100);
  let errs =
    Array.map
      (fun (s : Dataset.sample) ->
        let actual = float_of_int s.Dataset.taken /. float_of_int s.Dataset.total in
        ( abs_float (Tree.predict model s.Dataset.fv -. actual) *. 100.,
          abs_float ((float_of_int s.Dataset.bl_pm /. 1000.) -. actual) *. 100. ))
      v.Dataset.samples
  in
  let within err m =
    Array.fold_left (fun acc e -> if err e < float_of_int m then acc + 1 else acc) 0 errs
  in
  List.iter
    (fun m ->
      let learned = within fst m and bl = within snd m in
      if learned <= bl then
        Alcotest.failf "margin <%d pp: learned %d of %d, Ball–Larus %d — not strictly better"
          m learned n bl)
    Vrp_evaluation.Error_analysis.margins;
  let mean err = Array.fold_left (fun a e -> a +. err e) 0. errs /. float_of_int n in
  let ml = mean fst and mb = mean snd in
  if ml >= mb then
    Alcotest.failf "mean |error|: learned %.2f pp, Ball–Larus %.2f pp — not lower" ml mb

let suite =
  ( "learn",
    [
      tc "model round-trip is byte-identical" `Quick roundtrip_byte_identical;
      tc "committed model = embedded module, digests pinned" `Quick
        committed_model_matches_embedded;
      tc "corrupt and truncated models rejected" `Quick corrupt_and_truncated_rejected;
      tc "future feature schema rejected by Infer" `Quick schema_mismatch_rejected;
      tc "load errors are structured Model_error diags" `Quick load_errors_are_structured;
      tc "bad model file degrades cleanly to Ball–Larus" `Quick bad_model_degrades_cleanly;
      tc "active model announces itself in the legend" `Quick good_model_changes_legend;
      tc "corpus digest and model bytes invariant under jobs" `Quick
        corpus_digest_job_invariant;
      tc "default training reproduces the committed model" `Slow
        default_training_reproducible;
      tc "dataset samples are well-formed" `Quick dataset_invariants;
      tc "fallback hook reaches bottom branches" `Quick fallback_hook_reaches_bottom_branches;
      tc "compare output has the vrp+learned column" `Quick compare_has_learned_column;
      tc "held-out validation beats Ball-Larus at every margin" `Slow
        held_out_validation_beats_ball_larus;
    ] )
