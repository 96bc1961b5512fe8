(* Code layout from predicted frequencies (paper §6).

   "compilers must pay careful attention to the way they lay out their
   generated code. This usually means ... coding likely paths as
   straight-line code with branches to less likely code which is placed
   out-of-line" — and ordering optimizations "in descending order of
   execution frequency".

   This example derives block frequencies from VRP's branch probabilities,
   lays out each function greedily along its hottest edges (a Pettis–Hansen
   style trace), and validates the frequency estimates against observed
   execution counts.

   Run with:  dune exec examples/hot_paths.exe [BENCHMARK] *)

module Ir = Vrp_ir.Ir
module Frequency = Vrp_core.Frequency
module Interp = Vrp_profile.Interp

(* Greedy trace layout: start from the entry, repeatedly follow the hottest
   not-yet-placed successor; start new traces at the hottest unplaced block.
   Frequencies compare by [Frequency.rank], ties going to the first block or
   successor. *)
let layout (fn : Ir.fn) (ff : Frequency.fn_freq) : int list =
  let n = Ir.num_blocks fn in
  let hot = Array.map Frequency.rank ff.Frequency.block_freq in
  let placed = Array.make n false in
  let order = ref [] in
  let hottest_unplaced () =
    let best = ref None in
    Array.iteri
      (fun bid f ->
        if not placed.(bid) then
          match !best with
          | Some (_, bf) when bf >= f -> ()
          | _ -> best := Some (bid, f))
      hot;
    Option.map fst !best
  in
  let rec follow bid =
    placed.(bid) <- true;
    order := bid :: !order;
    let succs = Ir.successors (Ir.block fn bid).Ir.term in
    let next =
      List.fold_left
        (fun acc s ->
          if placed.(s) then acc
          else begin
            let w =
              Frequency.rank
                (Option.value ~default:0.0 (Hashtbl.find_opt ff.Frequency.edge_freq (bid, s)))
            in
            match acc with Some (_, bw) when bw >= w -> acc | _ -> Some (s, w)
          end)
        None succs
    in
    match next with Some (s, _) -> follow s | None -> ()
  in
  let rec traces () =
    match hottest_unplaced () with
    | Some bid ->
      follow bid;
      traces ()
    | None -> ()
  in
  follow Ir.entry_bid;
  traces ();
  List.rev !order

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "huffman" in
  let bench =
    match Vrp_suite.Suite.find name with
    | Some b -> b
    | None ->
      Printf.eprintf "unknown benchmark %s\n" name;
      exit 2
  in
  let compiled = Vrp_core.Pipeline.compile bench.Vrp_suite.Suite.source in
  let ssa = compiled.Vrp_core.Pipeline.ssa in
  let freqs = Frequency.of_prediction ssa (fst (Vrp_core.Pipeline.vrp_predictions ssa)) in
  let observed =
    (Interp.run ssa ~args:bench.Vrp_suite.Suite.ref_args).Interp.profile
  in
  Printf.printf "benchmark %s: predicted layout per function\n\n" name;
  List.iter
    (fun (fn : Ir.fn) ->
      match Hashtbl.find_opt freqs.Frequency.per_fn fn.Ir.fname with
      | None -> ()
      | Some ff ->
        let order = layout fn ff in
        Printf.printf "%s: original order  %s\n" fn.Ir.fname
          (String.concat " " (List.init (Ir.num_blocks fn) (Printf.sprintf "B%d")));
        Printf.printf "%s  hot-path order  %s\n" (String.make (String.length fn.Ir.fname) ' ')
          (String.concat " " (List.map (Printf.sprintf "B%d") order));
        (* fall-through quality: fraction of layout-adjacent pairs that are
           real CFG edges (higher = fewer taken branches on the hot path) *)
        let adjacent_edges order =
          let rec count = function
            | a :: (b :: _ as rest) ->
              let is_edge = List.mem b (Ir.successors (Ir.block fn a).Ir.term) in
              (if is_edge then 1 else 0) + count rest
            | _ -> 0
          in
          count order
        in
        let straight = adjacent_edges order in
        let baseline = adjacent_edges (List.init (Ir.num_blocks fn) Fun.id) in
        Printf.printf "%s  fall-through edges: %d (source order: %d)\n\n"
          (String.make (String.length fn.Ir.fname) ' ')
          straight baseline)
    ssa.Ir.fns;
  (* Validate the frequency model: rank correlation with observed counts. *)
  print_endline "frequency model vs observed branch execution counts:";
  let rows = ref [] in
  Hashtbl.iter
    (fun (fname, bid) (st : Interp.branch_stats) ->
      match Frequency.global_block_freq freqs ~fname ~bid with
      | Some predicted -> rows := (fname, bid, predicted, st.Interp.total) :: !rows
      | None -> ())
    observed.Interp.branches;
  let sorted =
    List.sort
      (fun (fa, ba, a, _) (fb, bb, b, _) ->
        compare (-.Frequency.rank a, fa, ba) (-.Frequency.rank b, fb, bb))
      !rows
  in
  List.iteri
    (fun i (fname, bid, predicted, actual) ->
      if i < 8 then
        Printf.printf "  %-12s B%-4d predicted %12.1f  observed %10d\n" fname bid predicted
          actual)
    sorted
