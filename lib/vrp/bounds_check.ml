(** Array-bounds-check elimination (paper §6).

    "For languages which require (or compilers which implement) dynamic
    array bounds checking, many array bounds checks can be shown to be
    redundant by value range propagation."

    MiniC semantics require a bounds check on every [Load]/[Store]; this
    pass proves checks redundant when the index variable's range (with
    symbolic bases resolved) lies within [0, size). *)

module Ir = Vrp_ir.Ir
module Var = Vrp_ir.Var
module Value = Vrp_ranges.Value
module Srange = Vrp_ranges.Srange
module Sym = Vrp_ranges.Sym

type check = {
  block : int;
  instr_index : int;
      (** position of the access in [block]'s instruction list; with
          [block] it identifies the access site exactly (an instruction
          holds at most one access), which is how the fuzzing oracle maps
          runtime accesses back to checks *)
  array : string;
  index : Ir.operand;
  is_store : bool;
  provably_safe : bool;
  lower_safe : bool;  (** index ≥ 0 proven *)
  upper_safe : bool;  (** index < size proven *)
}

type report = { checks : check list; total : int; eliminated : int }

(* Certainly-in-[lo_bound, hi_bound]? Needs every range's numeric bounds. *)
let within (v : Value.t) ~(size : int) : bool * bool =
  match v with
  | Value.Top | Value.Bottom -> (false, false)
  | Value.Ranges rs ->
    let lower =
      List.for_all
        (fun (r : Srange.t) ->
          match r.Srange.lo.Sym.base with None -> r.Srange.lo.Sym.off >= 0 | Some _ -> false)
        rs
    in
    let upper =
      List.for_all
        (fun (r : Srange.t) ->
          match r.Srange.hi.Sym.base with
          | None -> r.Srange.hi.Sym.off < size
          | Some _ -> false)
        rs
    in
    (lower, upper)

(** Analyse every array access of [res]'s function against the array tables
    of [program]. With [algebra] (default), accesses the numeric ranges
    cannot prove safe get a second chance against the symbolic-algebra-v2
    prover: assertion facts, SSA-def equations, and the converged ranges
    together discharge affine index patterns ([a\[2*i+1\]], [a\[n-i-1\]])
    whose values widen to ⊥ under [var + const] bounds alone. *)
let analyze ?(algebra = true) (program : Ir.program) (res : Engine.t) : report =
  let fn = res.Engine.fn in
  let lookup (v : Var.t) = res.Engine.values.(v.Var.id) in
  let index_value (op : Ir.operand) : Value.t =
    match op with
    | Ir.Cint n -> Value.const_int n
    | Ir.Cfloat _ -> Value.bottom
    | Ir.Ovar v -> Value.subst (lookup v) ~lookup
  in
  (* The algebraic context is only sound on converged results: partial
     (fuel-exhausted) ranges are transient claims. Built lazily:
     most functions prove all their checks numerically. *)
  let converged = not res.Engine.fuel_exhausted in
  let alg = ref None in
  let alg_ctx () =
    match !alg with
    | Some ctx -> ctx
    | None ->
      let ctx = Alg.make (Vrp_ir.Static.of_fn fn) in
      Alg.add_range_facts ctx ~values:res.Engine.values;
      alg := Some ctx;
      ctx
  in
  let checks = ref [] in
  Ir.iter_blocks fn (fun b ->
      if res.Engine.visited.(b.Ir.bid) then
        List.iteri
          (fun i instr ->
            let record array index is_store =
              match Ir.find_array program fn array with
              | None -> ()
              | Some info ->
                let lower_safe, upper_safe =
                  within (index_value index) ~size:info.Ir.size
                in
                let lower_safe, upper_safe =
                  if (lower_safe && upper_safe) || not (algebra && converged)
                  then (lower_safe, upper_safe)
                  else begin
                    let alower, aupper =
                      Alg.prove_index_bounds (alg_ctx ()) ~bid:b.Ir.bid
                        ~size:info.Ir.size index
                    in
                    (lower_safe || alower, upper_safe || aupper)
                  end
                in
                checks :=
                  {
                    block = b.Ir.bid;
                    instr_index = i;
                    array;
                    index;
                    is_store;
                    provably_safe = lower_safe && upper_safe;
                    lower_safe;
                    upper_safe;
                  }
                  :: !checks
            in
            match instr with
            | Ir.Def (_, Ir.Load (array, index)) -> record array index false
            | Ir.Store (array, index, _) -> record array index true
            | Ir.Def _ -> ())
          b.Ir.instrs);
  let checks = List.rev !checks in
  let eliminated = List.length (List.filter (fun c -> c.provably_safe) checks) in
  { checks; total = List.length checks; eliminated }
