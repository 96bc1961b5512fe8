(** Uniform interface over all branch predictors.

    A prediction maps every conditional branch — identified by
    [(function name, block id)] — to the probability of taking its true
    edge. The evaluation harness compares these maps against observed
    behaviour. *)

module Ir = Vrp_ir.Ir

type branch_key = string * int

type prediction = (branch_key, float) Hashtbl.t

(** The conditional branches of one function, [(block id, branch)] in block
    order: the order of its {!baselines} columns. *)
let fn_branches (fn : Ir.fn) : (int * Ir.branch) list =
  Array.fold_right
    (fun (b : Ir.block) acc ->
      match b.term with Ir.Br br -> (b.bid, br) :: acc | Ir.Jump _ | Ir.Ret _ -> acc)
    fn.blocks []

(** All conditional branches of a program. *)
let branches (program : Ir.program) : (branch_key * Ir.branch) list =
  List.concat_map
    (fun (fn : Ir.fn) -> List.map (fun (bid, br) -> ((fn.fname, bid), br)) (fn_branches fn))
    program.fns

(* One heuristic's probability for each branch of [brs], read from the
   function's [Static] record. *)
let column (static : Vrp_ir.Static.t) brs
    (h : Vrp_ir.Static.t -> src:int -> Ir.branch -> float) : float array =
  Array.of_list (List.map (fun (src, br) -> h static ~src br) brs)

type baselines = { ball_larus : float array; ninety_fifty : float array }

let baselines (fn : Ir.fn) : baselines =
  match fn_branches fn with
  | [] -> { ball_larus = [||]; ninety_fifty = [||] }
  | brs ->
    let static = Vrp_ir.Static.of_fn fn in
    {
      ball_larus = column static brs Heuristics.ball_larus;
      ninety_fifty = column static brs Heuristics.ninety_fifty;
    }

(* Add one function's column to a prediction. *)
let add_column out (fn : Ir.fn) brs col =
  List.iteri (fun i (bid, _) -> Hashtbl.replace out (fn.fname, bid) col.(i)) brs

let of_fun (program : Ir.program) h : prediction =
  let out = Hashtbl.create 64 in
  List.iter
    (fun (fn : Ir.fn) ->
      match fn_branches fn with
      | [] -> ()
      | brs -> add_column out fn brs (column (Vrp_ir.Static.of_fn fn) brs h))
    program.fns;
  out

(** The 90/50 rule. *)
let ninety_fifty program : prediction = of_fun program Heuristics.ninety_fifty

(** Ball–Larus heuristics, Dempster–Shafer combined (Wu–Larus). *)
let ball_larus program : prediction = of_fun program Heuristics.ball_larus

let baseline_predictions (program : Ir.program) : prediction * prediction =
  let bl = Hashtbl.create 64 and nf = Hashtbl.create 64 in
  List.iter
    (fun (fn : Ir.fn) ->
      let brs = fn_branches fn and b = baselines fn in
      add_column bl fn brs b.ball_larus;
      add_column nf fn brs b.ninety_fifty)
    program.fns;
  (bl, nf)

(** Random predictions — the floor of the paper's figures. Deterministic in
    the branch key so every run reproduces identical numbers. *)
let random ?(seed = 0x5eed) program : prediction =
  let out = Hashtbl.create 64 in
  List.iter
    (fun ((key : branch_key), _) ->
      let fname, bid = key in
      let h = Hashtbl.hash (fname, bid, seed) in
      let rng = Vrp_util.Prng.create (h + seed) in
      Hashtbl.replace out key (Vrp_util.Prng.float rng))
    (branches program);
  out

(** Execution profiling: predict each branch behaves as it did in a training
    run. Branches never executed during training fall back to 50/50 — the
    profiler has no evidence for them (as in real feedback compilation). *)
let profiling (train : Vrp_profile.Interp.profile) program : prediction =
  let out = Hashtbl.create 64 in
  List.iter
    (fun ((key : branch_key), _) ->
      let p =
        match Vrp_profile.Interp.observed_prob train key with
        | Some p -> p
        | None -> 0.5
      in
      Hashtbl.replace out key p)
    (branches program);
  out

(** The hypothetical perfect static predictor (§5: "would mark each branch
    with the same probability as was observed in the trial runs") — for
    sanity-checking the harness. *)
let perfect (observed : Vrp_profile.Interp.profile) program : prediction =
  let out = Hashtbl.create 64 in
  List.iter
    (fun ((key : branch_key), _) ->
      match Vrp_profile.Interp.observed_prob observed key with
      | Some p -> Hashtbl.replace out key p
      | None -> Hashtbl.replace out key 0.5)
    (branches program);
  out
