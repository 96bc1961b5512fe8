(** Shared test helpers. *)

module Ir = Vrp_ir.Ir
module Value = Vrp_ranges.Value
module Srange = Vrp_ranges.Srange
module Sym = Vrp_ranges.Sym
module P = Vrp_ranges.Progression

let compile src = Vrp_core.Pipeline.compile src

(** Compile and return the single function [main]. *)
let compile_main src =
  let c = compile src in
  match Ir.find_fn c.Vrp_core.Pipeline.ssa "main" with
  | Some fn -> (c, fn)
  | None -> Alcotest.fail "program has no main"

let analyze_main ?config src =
  let _, fn = compile_main src in
  Vrp_core.Engine.analyze ?config fn

(** How many [kind] diagnostics an engine run emitted. *)
let count_diags (res : Vrp_core.Engine.t) kind =
  List.length
    (List.filter (fun (d : Vrp_diag.Diag.diag) -> d.Vrp_diag.Diag.kind = kind)
       res.Vrp_core.Engine.diags)

(** Value of the highest SSA version of source variable [base] in [res]
    (its final value at the end of straight-line code). *)
let last_version (res : Vrp_core.Engine.t) (base : string) : Value.t =
  let best = ref None in
  Ir.iter_blocks res.Vrp_core.Engine.fn (fun b ->
      List.iter
        (fun instr ->
          match Ir.instr_def instr with
          | Some v when String.equal v.Vrp_ir.Var.base base -> (
            match !best with
            | Some (prev : Vrp_ir.Var.t) when prev.Vrp_ir.Var.version >= v.Vrp_ir.Var.version
              ->
              ()
            | _ -> best := Some v)
          | _ -> ())
        b.Ir.instrs);
  match !best with
  | Some v -> res.Vrp_core.Engine.values.(v.Vrp_ir.Var.id)
  | None -> Alcotest.failf "no variable with base %s" base

(** Membership of a concrete integer in a value (⊥/⊤/symbolic count as
    containing — the test cares about unsound exclusion only). *)
let contains_int (v : Value.t) (x : int) : bool =
  match v with
  | Value.Top | Value.Bottom -> true
  | Value.Ranges rs ->
    List.exists
      (fun (r : Srange.t) ->
        match Srange.prog r with
        | Some pr when Srange.is_numeric r -> P.mem x pr
        | _ -> true (* symbolic: cannot decide, assume containing *))
      rs

let branch_probability (res : Vrp_core.Engine.t) bid =
  match Vrp_core.Engine.branch_prob res bid with
  | Some p -> p
  | None -> Alcotest.failf "no probability for branch in B%d" bid

(** The probability of the branch whose condition mentions source variable
    [base] (first match in block order). *)
let prob_of_branch_on (res : Vrp_core.Engine.t) (base : string) : float =
  let found = ref None in
  Ir.iter_blocks res.Vrp_core.Engine.fn (fun b ->
      if !found = None then
        match b.Ir.term with
        | Ir.Br br ->
          let mentions =
            List.exists
              (fun (v : Vrp_ir.Var.t) -> String.equal v.Vrp_ir.Var.base base)
              (Ir.term_uses b.Ir.term)
          in
          ignore br;
          if mentions then
            found := Vrp_core.Engine.branch_prob res b.Ir.bid
        | Ir.Jump _ | Ir.Ret _ -> ());
  match !found with
  | Some p -> p
  | None -> Alcotest.failf "no branch on %s" base

let float_eq ?(eps = 1e-6) a b = Float.abs (a -. b) < eps

let check_prob ?(eps = 1e-6) what expected actual =
  if not (float_eq ~eps expected actual) then
    Alcotest.failf "%s: expected %.6f, got %.6f" what expected actual

let run_main ?(args = [ 100; 1 ]) src =
  let c = compile src in
  Vrp_profile.Interp.run c.Vrp_core.Pipeline.ssa ~args

let ret_int (r : Vrp_profile.Interp.result) =
  match r.Vrp_profile.Interp.ret with
  | Vrp_profile.Interp.Vint n -> n
  | Vrp_profile.Interp.Vfloat _ -> Alcotest.fail "expected int return"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The parallel width the determinism tests compare against jobs = 1. CI
   additionally runs the whole suite with VRP_TEST_JOBS=4. *)
let test_jobs =
  match Sys.getenv_opt "VRP_TEST_JOBS" with
  | Some s -> ( try max 2 (int_of_string s) with _ -> 3)
  | None -> 3

(** Interprocedural analysis with every wave run on a pool of [jobs]
    domains. *)
let analyze_on_pool ?analyze_fn ~jobs program =
  Vrp_sched.Pool.with_pool ~jobs (fun pool ->
      Vrp_core.Interproc.analyze ?analyze_fn
        ~run_tasks:(Vrp_sched.Wavefront.runner pool) program)

(* QCheck plumbing *)
let qtest ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)
