(* The benchmark's work-count ledger on its small corpus
   ([perfbench/main.exe ledger --small], run by a rule in test/dune) against
   the committed golden. Counts are deterministic in the corpus, so every one
   must match exactly; [engine.alloc_words] may drift by 2%, as in
   perfbench's own selftest. A change that moves a count changes what the
   analyser does, not just how fast. *)

module Json = Vrp_server.Json

let alloc_tolerance = 0.02

let load path =
  match Json.parse (Helpers.read_file path) with
  | Ok (Json.Obj fields) -> List.sort compare fields
  | Ok _ | Error _ -> Alcotest.failf "%s: not a JSON object" path

let ledger_matches_golden () =
  let golden = load "golden/ledger-small.json" and now = load "ledger-small.out" in
  Alcotest.(check (list string)) "ledger keys" (List.map fst golden) (List.map fst now);
  let moved =
    List.filter_map
      (fun ((k, want), (_, got)) ->
        let same =
          match (k, want, got) with
          | "engine.alloc_words", Json.Float x, Json.Float y ->
            Float.abs (x -. y) <= alloc_tolerance *. x
          | _ -> want = got
        in
        if same then None
        else
          Some (Printf.sprintf "  %s: golden %s, now %s" k (Json.to_string want) (Json.to_string got)))
      (List.combine golden now)
  in
  if moved <> [] then
    Alcotest.failf
      "work-count ledger mismatch:\n%s\n\
       If the change is meant to move these counts, update \
       test/golden/ledger-small.json and give the reason in CHANGES.md."
      (String.concat "\n" moved);
  Alcotest.(check (option bool)) "ledger ok" (Some true)
    (Option.bind (List.assoc_opt "ok" now) Json.get_bool)

let suite =
  ("ledger", [ Alcotest.test_case "small corpus matches the golden" `Quick ledger_matches_golden ])
