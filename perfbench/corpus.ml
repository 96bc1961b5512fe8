(* The benchmark corpus: the 22 hand-written suite programs plus [Synth]
   programs of graded size in two statement mixes, and the one-function
   edits that the workloads submit as writes.

   The synthetic programs are one fixed seeded draw. A handful of large
   programs carry most of the analysis cost, so a corpus redrawn per run
   seed would move throughput by more than the regressions the benchmark
   must catch; the run seed draws the traffic instead (request order, which
   function each write edits). *)

module Synth = Vrp_suite.Synth
module Suite = Vrp_suite.Suite
module Prng = Vrp_util.Prng

type file = {
  name : string;
  source : string;
  units : int;  (** functions named [unit0 .. unitN-1]; 0 for suite programs *)
}

(* The calls+affine mix: every shape of the default mix plus calls into
   earlier units (deeper call graphs, more interprocedural rounds) and the
   affine index patterns only the v2 algebra discharges. *)
let calls_affine = { Synth.default_weights with Synth.calls = 1; affine = 1 }

type size = Full | Small

(* (units per program, programs per mix) for each size grade. [Small] is
   the self-test's corpus. *)
let grades = function
  | Full -> [ (12, 3); (24, 3); (48, 2); (96, 2); (160, 1) ]
  | Small -> [ (8, 1); (48, 1) ]

let corpus_seed = 1995

let make ?(size = Full) () =
  let suite =
    List.map
      (fun (b : Suite.benchmark) ->
        { name = b.Suite.name ^ ".mc"; source = b.Suite.source; units = 0 })
      (match size with
      | Full -> Suite.benchmarks
      | Small -> List.filteri (fun i _ -> i < 4) Suite.benchmarks)
  in
  let rng = Prng.create corpus_seed in
  let synth =
    List.concat_map
      (fun (units, count) ->
        List.concat_map
          (fun (mix, weights) ->
            List.init count (fun i ->
                {
                  name = Printf.sprintf "synth_%s_u%d_%d.mc" mix units i;
                  source = Synth.generate ~weights ~units ~seed:(Prng.int rng 1_000_000) ();
                  units;
                }))
          [ ("default", Synth.default_weights); ("calls", calls_affine) ])
      (grades size)
  in
  Array.of_list (suite @ synth)

let digest files =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (List.concat_map (fun f -> [ f.name; f.source ]) (Array.to_list files))))

(* Writes edit the 48-unit synthetic programs: one size class, so that
   write latency percentiles do not jump between program sizes, and small
   enough that the cold reference of every write stays cheap to compute. *)
let edit_target f = f.units = 48

(* A one-function edit: [a = a + delta;] at the top of [unitK]. Callers
   pass a [delta] unique within the run, so no write ever repeats a source
   a cache has already seen: every write really invalidates and re-analyses
   its dirty call-graph cone. *)
let edit f ~unit ~delta =
  let header = Printf.sprintf "int unit%d(int a, int b) {\n" unit in
  let hl = String.length header and n = String.length f.source in
  let rec find i =
    if i + hl > n then invalid_arg ("Corpus.edit: no " ^ header)
    else if String.sub f.source i hl = header then i + hl
    else find (i + 1)
  in
  let at = find 0 in
  {
    f with
    source =
      String.sub f.source 0 at
      ^ Printf.sprintf "  a = a + %d;\n" delta
      ^ String.sub f.source at (n - at);
  }
