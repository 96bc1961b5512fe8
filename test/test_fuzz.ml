(** The fuzzing subsystem: corpus replay, pretty-printer round-trips, a
    smoke campaign, and the injected-unsoundness acceptance test. *)

module Ast = Vrp_lang.Ast
module Front = Vrp_lang.Front
module Pretty = Vrp_lang.Pretty
module Ir = Vrp_ir.Ir
module Engine = Vrp_core.Engine
module Pipeline = Vrp_core.Pipeline
module Diag = Vrp_diag.Diag
module Gen = Vrp_fuzz.Gen
module Oracle = Vrp_fuzz.Oracle
module Shrink = Vrp_fuzz.Shrink
module Runner = Vrp_fuzz.Runner

let tc = Alcotest.test_case

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort String.compare
  |> List.map (fun f -> (f, Helpers.read_file (Filename.concat "corpus" f)))

(* --- Corpus replay: every shrunk repro must stay clean forever. --- *)

let corpus_is_nonempty () =
  let files = corpus_files () in
  if List.length files < 5 then
    Alcotest.failf "corpus has only %d programs, want >= 5" (List.length files)

let corpus_replays_clean () =
  List.iter
    (fun (name, source) ->
      let o = Oracle.check source in
      (match o.Oracle.violations with
      | [] -> ()
      | vs ->
        Alcotest.failf "corpus/%s: %s" name
          (String.concat "; " (List.map Oracle.violation_to_string vs)));
      if not o.Oracle.membership_checked then
        Alcotest.failf
          "corpus/%s: static results not trusted, membership oracles idle" name)
    (corpus_files ())

let corpus_determinism_clean () =
  (* The full differential check is expensive; run it on the corpus entry
     dedicated to the property. *)
  let source = Helpers.read_file "corpus/determinism_calls.mc" in
  match Oracle.check_determinism ~name:"determinism_calls" source with
  | [] -> ()
  | vs ->
    Alcotest.failf "determinism corpus: %s"
      (String.concat "; " (List.map Oracle.violation_to_string vs))

(* --- Pretty-printer round-trip: parse (pretty p) re-typechecks and
       lowers to the identical SSA IR. --- *)

let ir_of source = Ir.program_to_string (Pipeline.compile source).Pipeline.ssa

let round_trip what source =
  let ast = Front.parse_and_check source in
  let printed = Pretty.program_to_string ast in
  let reparsed =
    try Front.parse_and_check printed
    with e ->
      Alcotest.failf "%s: pretty output no longer parses (%s):\n%s" what
        (match Front.describe_error e with Some m -> m | None -> Printexc.to_string e)
        printed
  in
  (* pretty is a fixpoint of parse ∘ pretty ... *)
  let printed2 = Pretty.program_to_string reparsed in
  if not (String.equal printed printed2) then
    Alcotest.failf "%s: pretty ∘ parse is not a fixpoint" what;
  (* ... and printing loses nothing the IR can see. *)
  if not (String.equal (ir_of source) (ir_of printed)) then
    Alcotest.failf "%s: SSA IR changed across the round trip" what

let round_trip_suite () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      round_trip b.Vrp_suite.Suite.name b.Vrp_suite.Suite.source)
    Vrp_suite.Suite.benchmarks

let round_trip_fuzzed () =
  (* 20 programs per profile, 100 total. *)
  List.iter
    (fun (p : Gen.profile) ->
      for i = 0 to 19 do
        let rng = Vrp_util.Prng.create ((i * 7919) + 17) in
        let ast = Gen.program rng ~weights:p.Gen.weights in
        round_trip
          (Printf.sprintf "fuzzed %s #%d" p.Gen.pname i)
          (Pretty.program_to_string ast)
      done)
    Gen.profiles

(* --- Smoke campaign: a small seeded run over every profile must come
       back clean, membership-checked, and deterministic in its report. --- *)

let smoke_campaign () =
  let run () =
    Runner.run ~seed:1 ~count:5 ~determinism_every:5 ~profiles:Gen.profiles ()
  in
  let s = run () in
  if s.Runner.failures <> [] then
    Alcotest.failf "smoke campaign failed:\n%s" (Runner.render s);
  Alcotest.(check int) "programs" (5 * List.length Gen.profiles) s.Runner.programs;
  if s.Runner.membership_checked = 0 then
    Alcotest.fail "smoke campaign never armed the membership oracles";
  if s.Runner.determinism_checked = 0 then
    Alcotest.fail "smoke campaign never ran the determinism oracle";
  if s.Runner.algebra_checked = 0 then
    Alcotest.fail "smoke campaign never armed the algebra differential";
  (* The report is a pure function of the campaign coordinates. *)
  Alcotest.(check string) "report deterministic" (Runner.render s)
    (Runner.render (run ()))

(* --- Acceptance: an injected unsoundness is caught and shrunk to a
       tiny repro. --- *)

let skewed_config () =
  match Diag.Fault.parse "skew:main" with
  | Ok fault -> { Engine.default_config with Engine.fault = Some fault }
  | Error m -> Alcotest.failf "fault spec rejected: %s" m

let injected_skew_is_caught () =
  let config = skewed_config () in
  let s =
    Runner.run ~config ~minimize:true ~seed:1 ~count:2
      ~profiles:[ Option.get (Gen.profile_named "loops") ]
      ()
  in
  (match s.Runner.failures with
  | [] -> Alcotest.fail "skew:main fault was not caught by any oracle"
  | fs ->
    List.iter
      (fun (f : Runner.failure) ->
        let is_range (v : Oracle.violation) =
          v.Oracle.prop = Oracle.Range_soundness
        in
        if not (List.exists is_range f.Runner.violations) then
          Alcotest.failf "failure %d not a range-soundness violation: %s"
            f.Runner.index
            (String.concat "; "
               (List.map Oracle.violation_to_string f.Runner.violations));
        match f.Runner.minimized with
        | None -> Alcotest.failf "failure %d was not minimised" f.Runner.index
        | Some src ->
          let lines =
            List.length
              (List.filter
                 (fun l -> String.trim l <> "")
                 (String.split_on_char '\n' src))
          in
          if lines > 25 then
            Alcotest.failf "shrunk repro is %d lines (> 25):\n%s" lines src)
      fs);
  (* The same campaign without the fault is clean: the oracle fires on the
     injected skew, not on the generator's programs. *)
  let clean =
    Runner.run ~seed:1 ~count:2
      ~profiles:[ Option.get (Gen.profile_named "loops") ]
      ()
  in
  if clean.Runner.failures <> [] then
    Alcotest.failf "same campaign unexpectedly fails without the fault:\n%s"
      (Runner.render clean)

(* --- Shrinker unit behaviour. --- *)

let shrinker_reaches_fixpoint () =
  (* Minimising under an always-true predicate must terminate and reach a
     program no candidate can shrink further. *)
  let rng = Vrp_util.Prng.create 424242 in
  let p = (Option.get (Gen.profile_named "mixed")).Gen.weights in
  let ast = Gen.program rng ~weights:p in
  let still_fails _ = true in
  let small, _tries = Shrink.minimize ~still_fails ast in
  Alcotest.(check int) "fully shrunk" 0
    (List.length (List.of_seq (Shrink.candidates small)))

let shrinker_preserves_predicate () =
  (* Under a real predicate, the result still satisfies it and is no
     larger than the input. *)
  let rng = Vrp_util.Prng.create 99 in
  let p = (Option.get (Gen.profile_named "branches")).Gen.weights in
  let ast = Gen.program rng ~weights:p in
  let still_fails (c : Ast.program) =
    (* "fails" = still defines a main that compiles *)
    match Pipeline.compile_result (Pretty.program_to_string c) with
    | Ok compiled -> Ir.find_fn compiled.Pipeline.ssa "main" <> None
    | Error _ -> false
  in
  if still_fails ast then begin
    let small, _ = Shrink.minimize ~still_fails ast in
    if not (still_fails small) then
      Alcotest.fail "shrinker returned a program violating the predicate";
    if Shrink.size small > Shrink.size ast then
      Alcotest.fail "shrinker grew the program"
  end

let suite =
  ( "fuzz",
    [
      tc "corpus: at least five repros" `Quick corpus_is_nonempty;
      tc "corpus: every repro replays clean" `Slow corpus_replays_clean;
      tc "corpus: determinism repro differential" `Slow corpus_determinism_clean;
      tc "round-trip: benchmark suite" `Quick round_trip_suite;
      tc "round-trip: 100 fuzzed programs" `Slow round_trip_fuzzed;
      tc "campaign: seeded smoke run is clean" `Slow smoke_campaign;
      tc "campaign: injected skew caught and shrunk" `Slow injected_skew_is_caught;
      tc "shrink: fixpoint under true predicate" `Quick shrinker_reaches_fixpoint;
      tc "shrink: predicate preserved" `Quick shrinker_preserves_predicate;
    ] )
