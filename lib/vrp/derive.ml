(** Loop-carried expression derivation (paper §3.6).

    A loop-carried φ-function is one with a back-edge predecessor. Executing
    the loop during propagation would make the analysis as slow as the
    program, so the derivation step matches the φ's SSA chain against the
    induction template

    {v new value = old value ± {set of possible increments}
       assert (new value between specific bounds) v}

    and, on a match, produces the φ's whole value range directly: initial
    value, stride = gcd of the increments, and final value derived from the
    loop's termination assertion (including the first {e failing} value,
    which is what the header φ sees — Figure 4 gives [x1 = 1[0:10:1]] for a
    [< 10] loop). Bounds may be numeric, loop-invariant variables (symbolic
    ranges) or variables with known numeric ranges; in the latter case the
    derivation records the dependency so the engine re-derives when the
    bound's range changes. Back edges, loop bodies and definition sites
    come from the function's {!Vrp_ir.Static} record. *)

module Ast = Vrp_lang.Ast
module Ir = Vrp_ir.Ir
module Var = Vrp_ir.Var
module Loops = Vrp_ir.Loops
module Static = Vrp_ir.Static
module Sym = Vrp_ranges.Sym
module Value = Vrp_ranges.Value
module Srange = Vrp_ranges.Srange
module Progression = Vrp_ranges.Progression

type outcome = {
  value : Value.t;
  depends : Var.t list;
      (** variables whose value the derivation consulted; the engine
          re-derives when any of them changes *)
  even_distribution : bool;
      (** additive inductions visit their range uniformly; geometric ones do
          not ("uneven distributions must be represented by multiple
          ranges", §3.4) — branches on uneven φs should fall back to
          heuristics rather than trust the even-distribution assumption *)
}

(* A backward trace from the latch operand to the φ:
   latch value = φ + inc, subject to the [constraints] collected from
   assertions along the way, where a constraint (rel, bound, at_inc) means
   (φ + at_inc) rel bound held. [scale] supports the multiplicative template
   (paper §3.6: "adding more templates ... reduces the need for brute force
   propagation"): latch value = φ * scale + inc; only pure scalings
   (inc = 0, scale > 1) are derived geometrically. *)
type path = { inc : int; scale : int; constraints : (Ast.relop * Ir.operand * int) list }

exception No_match

let max_trace_depth = 64

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* A usable loop bound: symbolic or numeric, plus dependencies. *)
type bound = { bsym : Sym.t; bdeps : Var.t list }

(* The latch paths of a φ, once traced. *)
type traced = Untraced | Paths of path list | Unmatched

(** Per-function memo, built once per engine run and reused across
    derivation attempts (keeping each attempt O(chain length), which the
    linearity figures rely on): φ var id -> its latch paths. They depend
    on SSA definitions only, never on values, so one trace serves every
    attempt. *)
type ctx = traced array

let make_ctx (static : Static.t) : ctx =
  Array.make (Array.length static.Static.def_block) Untraced

(* Trace [u] back to [phi_var]; returns all paths. *)
let trace_paths static ~(phi_var : Var.t) (start : Ir.operand) : path list =
  let rec go op depth (seen : int list) : path list =
    if depth > max_trace_depth then raise No_match;
    match op with
    | Ir.Cint _ | Ir.Cfloat _ -> raise No_match
    | Ir.Ovar u ->
      if Var.equal u phi_var then [ { inc = 0; scale = 1; constraints = [] } ]
      else if List.mem u.Var.id seen then raise No_match
      else begin
        let seen = u.Var.id :: seen in
        match Static.def static u with
        | None -> raise No_match
        | Some rhs -> (
          match rhs with
          | Ir.Op (Ir.Ovar w) -> go (Ir.Ovar w) (depth + 1) seen
          | Ir.Assertion { parent; arel; abound } ->
            go (Ir.Ovar parent) (depth + 1) seen
            |> List.map (fun p ->
                   (* only record the constraint when it applies to the φ
                      itself (unscaled) or at a pure additive offset *)
                   if p.scale = 1 then
                     { p with constraints = (arel, abound, p.inc) :: p.constraints }
                   else p)
          | Ir.Binop (Ast.Add, Ir.Ovar w, Ir.Cint c)
          | Ir.Binop (Ast.Add, Ir.Cint c, Ir.Ovar w) ->
            go (Ir.Ovar w) (depth + 1) seen
            |> List.map (fun p -> { p with inc = p.inc + c })
          | Ir.Binop (Ast.Sub, Ir.Ovar w, Ir.Cint c) ->
            go (Ir.Ovar w) (depth + 1) seen
            |> List.map (fun p -> { p with inc = p.inc - c })
          | Ir.Binop (Ast.Mul, Ir.Ovar w, Ir.Cint c)
          | Ir.Binop (Ast.Mul, Ir.Cint c, Ir.Ovar w) when c > 1 ->
            go (Ir.Ovar w) (depth + 1) seen
            |> List.map (fun p -> { p with scale = p.scale * c; inc = p.inc * c })
          | Ir.Binop (Ast.Shl, Ir.Ovar w, Ir.Cint c) when c >= 1 && c <= 30 ->
            go (Ir.Ovar w) (depth + 1) seen
            |> List.map (fun p -> { p with scale = p.scale lsl c; inc = p.inc lsl c })
          | Ir.Phi args -> List.concat_map (fun (_, arg) -> go arg (depth + 1) seen) args
          | Ir.Op _ | Ir.Binop _ | Ir.Unop _ | Ir.Cmp _ | Ir.Load _ | Ir.Call _ ->
            raise No_match)
      end
  in
  go start 0 []

(** Attempt to derive the value range of the loop-carried φ [phi_var] with
    arguments [args] in block [phi_bid].

    [values] supplies current variable values; [symbolic] enables symbolic
    bounds. Returns [None] when the chain does not match the template. *)
let attempt ~(static : Static.t) ~(ctx : ctx) ~(values : Var.t -> Value.t)
    ~(symbolic : bool) ~(phi_bid : int) ~(phi_var : Var.t)
    ~(args : (int * Ir.operand) list) : outcome option =
  let back, entry =
    List.partition (fun (pred, _) -> Static.is_back_edge static ~src:pred ~dst:phi_bid) args
  in
  if back = [] || entry = [] then None
  else begin
    try
      (* Initial value: all entry arguments must agree on one singleton. *)
      let init_syms =
        List.map
          (fun (_, op) ->
            match op with
            | Ir.Cint n -> Sym.num n
            | Ir.Cfloat _ -> raise No_match
            | Ir.Ovar v -> (
              match values v with
              | Value.Ranges [ r ] when Srange.is_singleton r -> r.Srange.lo
              | Value.Bottom when symbolic -> Sym.of_var v
              | Value.Top -> raise No_match
              | Value.Ranges _ | Value.Bottom -> raise No_match))
          entry
      in
      let init =
        match init_syms with
        | [] -> raise No_match
        | s :: rest ->
          if List.for_all (Sym.equal s) rest then s else raise No_match
      in
      (* Increment paths from every latch. *)
      let paths =
        let id = phi_var.Var.id in
        match ctx.(id) with
        | Paths paths -> paths
        | Unmatched -> raise No_match
        | Untraced -> (
          match List.concat_map (fun (_, op) -> trace_paths static ~phi_var op) back with
          | paths ->
            ctx.(id) <- Paths paths;
            paths
          | exception No_match ->
            ctx.(id) <- Unmatched;
            raise No_match)
      in
      let pure_additive = List.for_all (fun p -> p.scale = 1) paths in
      let pure_multiplicative =
        List.for_all (fun p -> p.scale > 1 && p.inc = 0) paths
      in
      if not (pure_additive || pure_multiplicative) then raise No_match;
      let incs = List.map (fun p -> p.inc) paths in
      if pure_additive && List.exists (fun i -> i = 0) incs then raise No_match;
      let up =
        pure_multiplicative || List.for_all (fun i -> i > 0) incs
      in
      let down = pure_additive && List.for_all (fun i -> i < 0) incs in
      if not (up || down) then raise No_match;
      let g = List.fold_left (fun acc i -> gcd acc i) 0 incs in
      let g = abs g in
      let max_mag = List.fold_left (fun acc i -> max acc (abs i)) 0 incs in
      let max_scale =
        List.fold_left (fun acc p -> max acc p.scale) 1 paths
      in
      (* Loop-invariance: the bound's definition must lie outside the loop. *)
      let loop_body =
        match Loops.innermost static.Static.loops phi_bid with
        | Some l -> l.Loops.body
        | None -> raise No_match
      in
      let invariant (v : Var.t) =
        let bid = static.Static.def_block.(v.Var.id) in
        bid < 0 (* parameter *) || not (Loops.IntSet.mem bid loop_body)
      in
      (* Loop-variant bound variables are often just in-loop assertion
         copies of an invariant ancestor (the branch assertion renames both
         operands); chase the copy/assertion chain out of the loop. *)
      let rec invariant_ancestor (w : Var.t) depth (seen : int list) : Var.t =
        if depth > max_trace_depth || invariant w || List.mem w.Var.id seen then w
        else begin
          let seen = w.Var.id :: seen in
          match Static.def static w with
          | Some (Ir.Assertion { parent; _ }) -> invariant_ancestor parent (depth + 1) seen
          | Some (Ir.Op (Ir.Ovar u)) -> invariant_ancestor u (depth + 1) seen
          | Some (Ir.Phi args) -> (
            (* a header φ whose arguments all chase to one ancestor; chains
               that cycle back to the φ itself are self-references and are
               ignored *)
            let ancestors =
              List.filter_map
                (fun (_, arg) ->
                  match arg with
                  | Ir.Ovar u ->
                    let a = invariant_ancestor u (depth + 1) seen in
                    if List.mem a.Var.id seen then None else Some a
                  | Ir.Cint _ | Ir.Cfloat _ -> Some w)
                args
            in
            match ancestors with
            | a :: rest when List.for_all (Var.equal a) rest && invariant a -> a
            | _ -> w)
          | _ -> w
        end
      in
      let invariant_ancestor w depth = invariant_ancestor w depth [] in
      (* Resolve a constraint's bound operand to a Sym plus dependencies. *)
      let resolve_bound (op : Ir.operand) : bound option =
        match op with
        | Ir.Cint n -> Some { bsym = Sym.num n; bdeps = [] }
        | Ir.Cfloat _ -> None
        | Ir.Ovar w -> (
          (* An exactly-known bound is invariant by value and gives a
             countable derived range; any other bound must stay symbolic —
             the counter's range is correlated with the bound, so
             substituting a numeric hull would poison the loop branch's
             probability. *)
          match values w with
          | Value.Ranges [ r ] when Srange.is_numeric r && Srange.is_singleton r ->
            Some { bsym = Sym.num r.Srange.lo.Sym.off; bdeps = [ w ] }
          | Value.Top -> None
          | Value.Ranges _ | Value.Bottom ->
            if not symbolic then None
            else begin
              let w' = invariant_ancestor w 0 in
              if invariant w' then Some { bsym = Sym.of_var w'; bdeps = [ w; w' ] }
              else None
            end)
      in
      (* Find a termination constraint in the right direction. Only
         constraints present on EVERY latch path qualify: a path-specific
         assertion (e.g. the else-arm's [x <= 7]) bounds only that path, not
         the φ's next value. *)
      let common_constraints =
        match paths with
        | [] -> []
        | first :: rest ->
          List.filter
            (fun c -> List.for_all (fun p -> List.mem c p.constraints) rest)
            first.constraints
      in
      let candidates =
        List.filter_map
          (fun (rel, bop, at_inc) ->
            let usable =
              (* Ne termination tests (while (x != U)) behave like inclusive
                 bounds in the travel direction: the φ's last value is U. *)
              if up then rel = Ast.Lt || rel = Ast.Le || rel = Ast.Ne
              else rel = Ast.Gt || rel = Ast.Ge || rel = Ast.Ne
            in
            if not usable then None
            else
                Option.bind (resolve_bound bop) (fun b ->
                  (* constraint was on (φ + at_inc): shift the bound *)
                  let adjusted = Sym.add_const b.bsym (-at_inc) in
                  if pure_multiplicative then begin
                    (* geometric: first failing value f = v_prev * s with
                       v_prev within the bound, so f <= bound * max_scale
                       (minus one for strict bounds) *)
                    match adjusted.Sym.base with
                    | None ->
                      let u = adjusted.Sym.off in
                      let final =
                        if rel = Ast.Le then u * max_scale else (u * max_scale) - 1
                      in
                      if abs final > Sym.limit then None
                      else Some (Sym.num final, b.bdeps)
                    | Some _ -> None (* bound * variable is not representable *)
                  end
                  else if rel = Ast.Ne then begin
                    (* An Ne test behaves like an inclusive bound only when
                       the progression actually lands on it: init ≡ bound
                       (mod g) with comparable bases. A mis-phased Ne — an
                       inner [if (x == c)] whose c the counter steps over,
                       or a [while (x != U)] that never hits U — excludes
                       one point but bounds nothing. *)
                    if
                      Sym.same_base adjusted init
                      && (adjusted.Sym.off - init.Sym.off) mod g = 0
                    then Some (adjusted, b.bdeps)
                    else None
                  end
                  else begin
                    (* additive: overshoot at most the max increment
                       (inclusive bounds add one step) *)
                    let slack =
                      match rel with
                      | Ast.Le | Ast.Ge -> max_mag
                      | _ -> max_mag - 1
                    in
                    let final =
                      if up then Sym.add_const adjusted slack
                      else Sym.add_const adjusted (-slack)
                    in
                    Some (final, b.bdeps)
                  end))
          common_constraints
      in
      match candidates with
      | [] -> None
      | _ :: _ ->
        (* Use the tightest mutually-comparable bound. *)
        let final, deps =
          List.fold_left
            (fun (best, deps) (cand, cdeps) ->
              match (if up then Sym.min_sym best cand else Sym.max_sym best cand) with
              | Some tighter ->
                (tighter, if Sym.equal tighter best then deps else cdeps)
              | None -> (best, deps))
            (let f, d = List.hd candidates in
             (f, d))
            (List.tl candidates)
        in
        (* Geometric derivation needs a positive numeric start; its values
           k, k*s, k*s², ... are all multiples of k, so stride = k is the
           tightest sound alignment for the hull. *)
        let g =
          if pure_multiplicative then begin
            match init.Sym.base with
            | None when init.Sym.off >= 1 -> init.Sym.off
            | _ -> raise No_match
          end
          else g
        in
        (* Anchor the progression's phase at the initial value: the φ's
           values are init ± k·g, and membership is decided relative to the
           range's lo, so the far endpoint must be congruent to init mod g.
           Anchoring at the raw overshoot bound would phase-shift every
           element (a countdown from 9 by 3 under [> 0] would claim
           {-2,1,4,7} and exclude the actual {0,3,6,9}). Down-loops align
           the loose lower end up; up-loops align the loose upper end down
           (a strict tightening, since real values are init + k·g). *)
        let final =
          if g > 1 && Sym.same_base final init then begin
            if down then
              let shift = (((init.Sym.off - final.Sym.off) mod g) + g) mod g in
              Sym.add_const final shift
            else
              let shift = (((final.Sym.off - init.Sym.off) mod g) + g) mod g in
              Sym.add_const final (-shift)
          end
          else final
        in
        let lo = if up then init else final and hi = if up then final else init in
        let value =
          match Sym.cmp lo hi with
          | Some c when c > 0 ->
            (* statically zero-trip loop: the φ only ever sees the initial
               value *)
            Value.of_ranges [ Srange.singleton ~p:1.0 init ]
          | Some _ -> (
            match Srange.make ~p:1.0 ~lo ~hi ~stride:g with
            | Some r -> Value.of_ranges [ r ]
            | None -> raise No_match)
          | None -> (
            (* Mixed bounds (numeric init, symbolic bound): keep the
               zero-trip initial value as its own range so the union is
               sound even when the loop never runs. *)
            let first = if up then Sym.add_const init g else Sym.add_const init (-g) in
            let body =
              Srange.make ~p:0.9 ~lo:(if up then first else hi)
                ~hi:(if up then hi else first) ~stride:g
            in
            match body with
            | Some r -> Value.of_ranges [ Srange.singleton ~p:0.1 init; r ]
            | None -> Value.of_ranges [ Srange.singleton ~p:1.0 init ])
        in
        let entry_deps =
          List.filter_map (fun (_, op) -> Ir.operand_var op) entry
        in
        Some
          {
            value;
            depends = List.sort_uniq Var.compare (deps @ entry_deps);
            even_distribution = pure_additive;
          }
    with No_match -> None
  end
