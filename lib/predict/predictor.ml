(** Uniform interface over all branch predictors.

    A prediction maps every conditional branch — identified by
    [(function name, block id)] — to the probability of taking its true
    edge. The evaluation harness compares these maps against observed
    behaviour. *)

module Ir = Vrp_ir.Ir

type branch_key = string * int

type prediction = (branch_key, float) Hashtbl.t

(** All conditional branches of a program. *)
let branches (program : Ir.program) : (branch_key * Ir.branch) list =
  List.concat_map
    (fun (fn : Ir.fn) ->
      Array.to_list fn.blocks
      |> List.filter_map (fun (b : Ir.block) ->
             match b.term with
             | Ir.Br br -> Some (((fn.fname, b.bid) : branch_key), br)
             | Ir.Jump _ | Ir.Ret _ -> None))
    program.fns

let of_fun (program : Ir.program)
    (f : Vrp_ir.Static.t -> src:int -> Ir.branch -> float) : prediction =
  let out = Hashtbl.create 64 in
  List.iter
    (fun (fn : Ir.fn) ->
      let static = lazy (Vrp_ir.Static.of_fn fn) in
      Array.iter
        (fun (b : Ir.block) ->
          match b.term with
          | Ir.Br br ->
            Hashtbl.replace out (fn.fname, b.bid) (f (Lazy.force static) ~src:b.bid br)
          | Ir.Jump _ | Ir.Ret _ -> ())
        fn.blocks)
    program.fns;
  out

(** The 90/50 rule. *)
let ninety_fifty program : prediction = of_fun program Heuristics.ninety_fifty

(** Ball–Larus heuristics, Dempster–Shafer combined (Wu–Larus). *)
let ball_larus program : prediction = of_fun program Heuristics.ball_larus

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
