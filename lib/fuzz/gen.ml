(** Grammar fuzzer: random well-typed, terminating MiniC programs.

    Design constraints, all by construction rather than by filtering:

    - {b well-typed}: names are globally fresh (no shadowing), every
      variable is declared before use, integer-only operators never see
      floats, calls match the callee's arity;
    - {b terminating}: [for] loops have literal bounds with positive
      literal strides, [while] loops count a dedicated variable down by a
      literal each iteration, loop counters are excluded from the pool of
      assignable variables, and calls only target functions generated
      earlier (the call graph is a DAG);
    - {b mostly trap-free}: denominators are shaped to be non-zero
      ([x % 7 + 9]), shift amounts are small literals and most array
      indices are reduced modulo the array size — but each also has a rare
      raw variant, so out-of-bounds and division traps still occur and
      exercise the trap paths of the oracles;
    - {b analysis-friendly magnitudes}: literals are small and products of
      two variables are damped with [% 65536], so claimed ranges stay far
      below the engine's symbolic magnitude limit and native-int overflow
      cannot make a claimed range silently wrong (overflowing computations
      widen to ⊥ long before the wrap, and ⊥ claims nothing). *)

module Ast = Vrp_lang.Ast
module Prng = Vrp_util.Prng
module Synth = Vrp_suite.Synth

type profile = { pname : string; weights : Synth.weights }

let profiles =
  [
    {
      pname = "mixed";
      weights =
        { Synth.counted_loops = 1; nested_arrays = 1; data_loops = 1; branchy = 1; calls = 1; affine = 0 };
    };
    {
      pname = "loops";
      weights =
        { Synth.counted_loops = 4; nested_arrays = 1; data_loops = 3; branchy = 1; calls = 1; affine = 0 };
    };
    {
      pname = "branches";
      weights =
        { Synth.counted_loops = 1; nested_arrays = 1; data_loops = 1; branchy = 5; calls = 1; affine = 0 };
    };
    {
      pname = "arrays";
      weights =
        { Synth.counted_loops = 1; nested_arrays = 5; data_loops = 1; branchy = 1; calls = 1; affine = 0 };
    };
    {
      pname = "calls";
      weights =
        { Synth.counted_loops = 1; nested_arrays = 1; data_loops = 1; branchy = 1; calls = 5; affine = 0 };
    };
    (* Branch-shape diversity: heavy on conditionals, with enough loops and
       array traffic that loop-position and range-sensitive branch shapes
       all turn up. *)
    {
      pname = "features";
      weights =
        { Synth.counted_loops = 3; nested_arrays = 3; data_loops = 2; branchy = 5; calls = 1; affine = 0 };
    };
    (* Affine index patterns ([2*i+1], [size-1-i], guarded [x+c]) whose
       guards recompute the tested expression at the use site — discharged
       by the sum-of-products algebra, never by v1 [var + const] bounds. *)
    {
      pname = "affine";
      weights =
        { Synth.counted_loops = 1; nested_arrays = 1; data_loops = 1; branchy = 1; calls = 1; affine = 6 };
    };
  ]

let profile_named name = List.find_opt (fun p -> String.equal p.pname name) profiles

let main_args = [ [ 0; 0 ]; [ 3; 1 ]; [ 11; 7 ]; [ 64; 13 ] ]

(* --- Generation context --- *)

type ctx = {
  rng : Prng.t;
  w : Synth.weights;
  mutable fresh : int;
  mutable ints : string list;  (** readable int scalars in scope *)
  mutable assignable : string list;  (** subset of [ints] random assigns may target *)
  mutable floats : string list;
  mutable arrays : (string * int) list;  (** name, size *)
  callees : (string * int) list;  (** earlier functions: name, arity *)
  mutable depth : int;  (** control-structure nesting *)
  mutable loop : [ `None | `For | `While ];
      (** innermost enclosing loop kind: [break] needs a loop, and
          [continue] is only safe in [for] loops (in a [while] body it
          would skip the countdown decrement and spin forever) *)
  mutable budget : int;  (** statements left for this function *)
}

let fresh ctx prefix =
  let n = ctx.fresh in
  ctx.fresh <- n + 1;
  Printf.sprintf "%s%d" prefix n

let stmt sdesc = { Ast.sline = 0; Ast.sdesc }

let pick_list ctx xs = List.nth xs (Prng.int ctx.rng (List.length xs))

(* Weighted choice over (weight, thunk) pairs; weights <= 0 drop out. *)
let weighted ctx choices =
  let choices = List.filter (fun (w, _) -> w > 0) choices in
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  let r = Prng.int ctx.rng total in
  let rec go acc = function
    | [ (_, f) ] -> f
    | (w, f) :: rest -> if r < acc + w then f else go (acc + w) rest
    | [] -> assert false
  in
  (go 0 choices) ()

(* --- Expressions --- *)

let literal ctx =
  (* small, occasionally into the hundreds *)
  if Prng.int ctx.rng 8 = 0 then Ast.Int (Prng.int ctx.rng 1000)
  else Ast.Int (Prng.int ctx.rng 65)

(* An atom: literal, variable, or (rarely) a safe array load. Atoms are the
   only operands multiplication and shifts see (see the header). *)
let rec atom ctx =
  let vars = ctx.ints in
  weighted ctx
    [
      (3, fun () -> literal ctx);
      ((if vars = [] then 0 else 4), fun () -> Ast.Var (pick_list ctx vars));
      ((if ctx.arrays = [] then 0 else 1), fun () -> array_load ctx);
    ]

and safe_index ctx size =
  (* mostly provably in-bounds, sometimes merely dynamically fine, rarely raw *)
  weighted ctx
    [
      (4, fun () -> Ast.Int (Prng.int ctx.rng size));
      ( 3,
        fun () ->
          (* ((e % size) + size) % size: total and in-bounds *)
          let e = atom ctx in
          Ast.Binop
            ( Ast.Mod,
              Ast.Binop (Ast.Add, Ast.Binop (Ast.Mod, e, Ast.Int size), Ast.Int size),
              Ast.Int size ) );
      ( (if ctx.ints = [] then 0 else 2),
        fun () -> Ast.Binop (Ast.Mod, Ast.Var (pick_list ctx ctx.ints), Ast.Int size) );
      (1, fun () -> atom ctx);
    ]

and array_load ctx =
  let name, size = pick_list ctx ctx.arrays in
  Ast.Index (name, safe_index ctx size)

(* A non-zero denominator: [x % 7 + 9] lands in [3, 15]. *)
let denominator ctx =
  weighted ctx
    [
      (5, fun () -> Ast.Int (2 + Prng.int ctx.rng 15));
      ( 3,
        fun () ->
          Ast.Binop (Ast.Add, Ast.Binop (Ast.Mod, atom ctx, Ast.Int 7), Ast.Int 9) );
      (1, fun () -> atom ctx (* may trap *));
    ]

let rec int_expr ctx d =
  if d <= 0 then atom ctx
  else
    weighted ctx
      [
        (3, fun () -> atom ctx);
        ( 4,
          fun () ->
            let op = pick_list ctx [ Ast.Add; Ast.Add; Ast.Sub; Ast.Band; Ast.Bor; Ast.Bxor ] in
            Ast.Binop (op, int_expr ctx (d - 1), int_expr ctx (d - 1)) );
        ( 2,
          fun () ->
            (* literal * atom, or damped atom * atom *)
            if Prng.int ctx.rng 2 = 0 then
              Ast.Binop (Ast.Mul, Ast.Int (2 + Prng.int ctx.rng 11), atom ctx)
            else
              Ast.Binop (Ast.Mod, Ast.Binop (Ast.Mul, atom ctx, atom ctx), Ast.Int 65536) );
        ( 2,
          fun () ->
            let op = if Prng.int ctx.rng 2 = 0 then Ast.Div else Ast.Mod in
            Ast.Binop (op, int_expr ctx (d - 1), denominator ctx) );
        ( 1,
          fun () ->
            let op = if Prng.int ctx.rng 2 = 0 then Ast.Shl else Ast.Shr in
            Ast.Binop (op, atom ctx, Ast.Int (Prng.int ctx.rng 5)) );
        (1, fun () -> Ast.Unop (Ast.Neg, atom ctx));
        (1, fun () -> Ast.Rel (relop ctx, int_expr ctx (d - 1), int_expr ctx (d - 1)));
        ( (if ctx.callees = [] then 0 else 2),
          fun () ->
            let name, arity = pick_list ctx ctx.callees in
            Ast.Call (name, List.init arity (fun _ -> int_expr ctx (d - 1))) );
      ]

and relop ctx = pick_list ctx [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ]

let float_expr ctx =
  let float_lit () =
    (* dyadic literals: exactly representable, round-trip clean *)
    Ast.Float (float_of_int (Prng.int ctx.rng 64) +. (0.25 *. float_of_int (Prng.int ctx.rng 4)))
  in
  weighted ctx
    [
      (3, fun () -> float_lit ());
      ((if ctx.floats = [] then 0 else 3), fun () -> Ast.Var (pick_list ctx ctx.floats));
      ( 2,
        fun () ->
          let op = pick_list ctx [ Ast.Add; Ast.Sub; Ast.Mul ] in
          let arg () =
            if ctx.floats <> [] && Prng.int ctx.rng 2 = 0 then Ast.Var (pick_list ctx ctx.floats)
            else float_lit ()
          in
          Ast.Binop (op, arg (), arg ()) );
      (1, fun () -> atom ctx (* int, promoted *));
    ]

(* Conditions lean on comparisons of tracked variables against literals —
   the shapes VRP actually predicts. *)
let condition ctx =
  let simple () =
    match ctx.ints with
    | [] -> Ast.Rel (relop ctx, int_expr ctx 1, literal ctx)
    | vars -> Ast.Rel (relop ctx, Ast.Var (pick_list ctx vars), literal ctx)
  in
  weighted ctx
    [
      (5, fun () -> simple ());
      (2, fun () -> Ast.Rel (relop ctx, int_expr ctx 2, int_expr ctx 1));
      ( 1,
        fun () ->
          if Prng.int ctx.rng 2 = 0 then Ast.And (simple (), simple ())
          else Ast.Or (simple (), simple ()) );
      ( (if ctx.floats = [] then 0 else 1),
        fun () -> Ast.Rel (relop ctx, Ast.Var (pick_list ctx ctx.floats), float_expr ctx) );
    ]

(* --- Statements --- *)

let rec gen_stmt ctx : Ast.stmt list =
  ctx.budget <- ctx.budget - 1;
  let w = ctx.w in
  let nested = ctx.depth >= 3 in
  weighted ctx
    [
      (3, fun () -> [ decl ctx ]);
      ((if ctx.assignable = [] then 0 else 3), fun () -> [ assign ctx ]);
      ((if nested then 0 else 1 + (2 * w.Synth.branchy)), fun () -> [ if_stmt ctx ]);
      ((if nested then 0 else 2 * w.Synth.counted_loops), fun () -> [ for_stmt ctx ]);
      ((if nested then 0 else w.Synth.data_loops), fun () -> while_stmt ctx);
      ((if ctx.arrays = [] then 0 else 1 + (2 * w.Synth.nested_arrays)), fun () -> [ store ctx ]);
      ((if ctx.callees = [] then 0 else 2 * w.Synth.calls), fun () -> [ call_stmt ctx ]);
      ((if ctx.depth = 0 then 0 else 1), fun () -> [ escape ctx ]);
      (* appended last so profiles with [affine = 0] keep their historical
         RNG stream byte for byte *)
      ((if nested then 0 else 2 * w.Synth.affine), fun () -> affine_stmt ctx);
    ]

and decl ctx =
  if Prng.int ctx.rng 6 = 0 then begin
    let name = fresh ctx "f" in
    let s = stmt (Ast.Sdecl (Ast.Tfloat, name, Ast.Iscalar (Some (float_expr ctx)))) in
    ctx.floats <- name :: ctx.floats;
    s
  end
  else begin
    let name = fresh ctx "v" in
    let init = if Prng.int ctx.rng 8 = 0 then None else Some (int_expr ctx 2) in
    let s = stmt (Ast.Sdecl (Ast.Tint, name, Ast.Iscalar init)) in
    ctx.ints <- name :: ctx.ints;
    ctx.assignable <- name :: ctx.assignable;
    s
  end

and assign ctx =
  let name = pick_list ctx ctx.assignable in
  stmt (Ast.Sassign (Ast.Lvar name, int_expr ctx 2))

and store ctx =
  let name, size = pick_list ctx ctx.arrays in
  stmt (Ast.Sassign (Ast.Lindex (name, safe_index ctx size), int_expr ctx 2))

and call_stmt ctx =
  let name, arity = pick_list ctx ctx.callees in
  let call = Ast.Call (name, List.init arity (fun _ -> int_expr ctx 1)) in
  if Prng.int ctx.rng 3 = 0 || ctx.assignable = [] then stmt (Ast.Sexpr call)
  else stmt (Ast.Sassign (Ast.Lvar (pick_list ctx ctx.assignable), call))

and if_stmt ctx =
  let cond = condition ctx in
  let then_blk = sub_block ctx in
  let else_blk = if Prng.int ctx.rng 2 = 0 then Some (sub_block ctx) else None in
  stmt (Ast.Sif (cond, then_blk, else_blk))

and for_stmt ctx =
  let i = fresh ctx "i" in
  let lo = Prng.int ctx.rng 9 in
  let hi = lo + 1 + Prng.int ctx.rng 24 in
  let step = 1 + Prng.int ctx.rng 3 in
  let saved_ints = ctx.ints and saved_loop = ctx.loop in
  ctx.ints <- i :: ctx.ints (* readable, never assignable *);
  ctx.loop <- `For;
  let body = sub_block ctx in
  ctx.ints <- saved_ints;
  ctx.loop <- saved_loop;
  stmt
    (Ast.Sfor
       ( Some (stmt (Ast.Sdecl (Ast.Tint, i, Ast.Iscalar (Some (Ast.Int lo))))),
         Some (Ast.Rel (Ast.Lt, Ast.Var i, Ast.Int hi)),
         Some (stmt (Ast.Sassign (Ast.Lvar i, Ast.Binop (Ast.Add, Ast.Var i, Ast.Int step)))),
         body ))

and while_stmt ctx =
  (* int t = e % K; while (t > 0) { ...; t = t - d; } — at most K-1 trips *)
  let t = fresh ctx "t" in
  let k = 8 + Prng.int ctx.rng 41 in
  let d = 1 + Prng.int ctx.rng 3 in
  let init =
    stmt (Ast.Sdecl (Ast.Tint, t, Ast.Iscalar (Some (Ast.Binop (Ast.Mod, int_expr ctx 2, Ast.Int k)))))
  in
  let saved_ints = ctx.ints and saved_loop = ctx.loop in
  ctx.ints <- t :: ctx.ints (* readable, never assignable *);
  ctx.loop <- `While;
  let body = sub_block ctx in
  ctx.ints <- saved_ints;
  ctx.loop <- saved_loop;
  let dec = stmt (Ast.Sassign (Ast.Lvar t, Ast.Binop (Ast.Sub, Ast.Var t, Ast.Int d))) in
  [ init; stmt (Ast.Swhile (Ast.Rel (Ast.Gt, Ast.Var t, Ast.Int 0), body @ [ dec ])) ]

and escape ctx =
  (* guarded break/continue/early-return so following statements stay live *)
  let cond = condition ctx in
  let inner =
    weighted ctx
      [
        ((if ctx.loop = `None then 0 else 2), fun () -> stmt Ast.Sbreak);
        ((if ctx.loop = `For then 1 else 0), fun () -> stmt Ast.Scontinue);
        (1, fun () -> stmt (Ast.Sreturn (Some (int_expr ctx 1))));
      ]
  in
  stmt (Ast.Sif (cond, [ inner ], None))

(* Affine index patterns whose guards recompute the tested expression at
   the use site: lowering gives the guard and the access {e distinct}
   temporaries, so v1 [var + const] bounds cannot connect them — only the
   sum-of-products algebra can. Loops keep [for_stmt]'s termination
   discipline (literal bounds, positive literal stride, counter never
   assignable). *)
and affine_stmt ctx : Ast.stmt list =
  weighted ctx
    [
      ((if ctx.arrays = [] then 0 else 3), fun () -> affine_odd_loop ctx);
      ((if ctx.arrays = [] then 0 else 2), fun () -> affine_reverse_loop ctx);
      ((if ctx.ints = [] then 0 else 2), fun () -> affine_guard_chain ctx);
      ( (if ctx.ints = [] || ctx.arrays = [] then 0 else 2),
        fun () -> affine_offset_store ctx );
      (1, fun () -> [ decl ctx ]);
    ]

and affine_odd_loop ctx =
  (* for (i = 0; i < size; i++) if (2*i+1 < size) a[2*i+1] = e;
     The stride-2 image [2*i+1] reaches up to [2*size-1], so the numeric
     interval never proves the upper bound — the guard does, but only once
     the algebra equates the guard temp and the index temp. *)
  let name, size = pick_list ctx ctx.arrays in
  let i = fresh ctx "i" in
  let idx () =
    Ast.Binop (Ast.Add, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Var i), Ast.Int 1)
  in
  let saved_ints = ctx.ints and saved_loop = ctx.loop in
  ctx.ints <- i :: ctx.ints (* readable, never assignable *);
  ctx.loop <- `For;
  let rhs = int_expr ctx 1 in
  ctx.ints <- saved_ints;
  ctx.loop <- saved_loop;
  let body =
    [
      stmt
        (Ast.Sif
           ( Ast.Rel (Ast.Lt, idx (), Ast.Int size),
             [ stmt (Ast.Sassign (Ast.Lindex (name, idx ()), rhs)) ],
             None ));
    ]
  in
  [
    stmt
      (Ast.Sfor
         ( Some (stmt (Ast.Sdecl (Ast.Tint, i, Ast.Iscalar (Some (Ast.Int 0))))),
           Some (Ast.Rel (Ast.Lt, Ast.Var i, Ast.Int size)),
           Some (stmt (Ast.Sassign (Ast.Lvar i, Ast.Binop (Ast.Add, Ast.Var i, Ast.Int 1)))),
           body ));
  ]

and affine_reverse_loop ctx =
  (* for (i = 0; i < size + slack; i++) if (size-1-i >= 0) a[size-1-i] = e;
     the overshooting bound drives [size-1-i] negative, so only the
     recomputed-expression guard proves the lower bound. *)
  let name, size = pick_list ctx ctx.arrays in
  let i = fresh ctx "i" in
  let slack = 1 + Prng.int ctx.rng 8 in
  let idx () = Ast.Binop (Ast.Sub, Ast.Int (size - 1), Ast.Var i) in
  let saved_ints = ctx.ints and saved_loop = ctx.loop in
  ctx.ints <- i :: ctx.ints (* readable, never assignable *);
  ctx.loop <- `For;
  let rhs = int_expr ctx 1 in
  ctx.ints <- saved_ints;
  ctx.loop <- saved_loop;
  let body =
    [
      stmt
        (Ast.Sif
           ( Ast.Rel (Ast.Ge, idx (), Ast.Int 0),
             [ stmt (Ast.Sassign (Ast.Lindex (name, idx ()), rhs)) ],
             None ));
    ]
  in
  [
    stmt
      (Ast.Sfor
         ( Some (stmt (Ast.Sdecl (Ast.Tint, i, Ast.Iscalar (Some (Ast.Int 0))))),
           Some (Ast.Rel (Ast.Lt, Ast.Var i, Ast.Int (size + slack))),
           Some (stmt (Ast.Sassign (Ast.Lvar i, Ast.Binop (Ast.Add, Ast.Var i, Ast.Int 1)))),
           body ));
  ]

and affine_guard_chain ctx =
  (* if (2*x+1 < K) if (2*x < K) { ... } — the inner branch is provably
     one-way, but only through the polynomial implication. *)
  let x = pick_list ctx ctx.ints in
  let k = 4 + Prng.int ctx.rng 60 in
  let e coeff c =
    Ast.Binop (Ast.Add, Ast.Binop (Ast.Mul, Ast.Int coeff, Ast.Var x), Ast.Int c)
  in
  let inner_body =
    match ctx.assignable with
    | [] -> [ stmt (Ast.Sreturn (Some (int_expr ctx 1))) ]
    | vs -> [ stmt (Ast.Sassign (Ast.Lvar (pick_list ctx vs), int_expr ctx 1)) ]
  in
  [
    stmt
      (Ast.Sif
         ( Ast.Rel (Ast.Lt, e 2 1, Ast.Int k),
           [ stmt (Ast.Sif (Ast.Rel (Ast.Lt, e 2 0, Ast.Int k), inner_body, None)) ],
           None ));
  ]

and affine_offset_store ctx =
  (* if (x+c < size) if (x+c >= 0) a[x+c] = e; — both bounds come from
     guards on a recomputed expression. *)
  let name, size = pick_list ctx ctx.arrays in
  let x = pick_list ctx ctx.ints in
  let c = Prng.int ctx.rng 5 in
  let idx () = Ast.Binop (Ast.Add, Ast.Var x, Ast.Int c) in
  [
    stmt
      (Ast.Sif
         ( Ast.Rel (Ast.Lt, idx (), Ast.Int size),
           [
             stmt
               (Ast.Sif
                  ( Ast.Rel (Ast.Ge, idx (), Ast.Int 0),
                    [ stmt (Ast.Sassign (Ast.Lindex (name, idx ()), int_expr ctx 1)) ],
                    None ));
           ],
           None ));
  ]

and sub_block ctx : Ast.block =
  ctx.depth <- ctx.depth + 1;
  let saved_ints = ctx.ints
  and saved_assignable = ctx.assignable
  and saved_floats = ctx.floats in
  let n = 1 + Prng.int ctx.rng 3 in
  let stmts = ref [] in
  for _ = 1 to n do
    if ctx.budget > 0 then stmts := gen_stmt ctx :: !stmts
  done;
  ctx.depth <- ctx.depth - 1;
  ctx.ints <- saved_ints;
  ctx.assignable <- saved_assignable;
  ctx.floats <- saved_floats;
  List.concat (List.rev !stmts)

(* --- Functions and programs --- *)

let gen_body ctx ~budget : Ast.block =
  ctx.budget <- budget;
  let stmts = ref [] in
  while ctx.budget > 0 do
    stmts := gen_stmt ctx :: !stmts
  done;
  let ret = stmt (Ast.Sreturn (Some (int_expr ctx 2))) in
  List.concat (List.rev !stmts) @ [ ret ]

let gen_fn rng ~w ~globals ~callees ~fname ~params ~budget : Ast.func =
  let ctx =
    {
      rng;
      w;
      fresh = 0;
      ints = params;
      assignable = params;
      floats = [];
      arrays = globals;
      callees;
      depth = 0;
      loop = `None;
      budget = 0;
    }
  in
  (* occasional function-local array *)
  let local_array =
    if Prng.int rng 3 = 0 then begin
      let name = "loc" in
      let size = 4 + Prng.int rng 29 in
      ctx.arrays <- (name, size) :: ctx.arrays;
      [ stmt (Ast.Sdecl (Ast.Tint, name, Ast.Iarray size)) ]
    end
    else []
  in
  let body = local_array @ gen_body ctx ~budget in
  {
    Ast.fty = Ast.Tint;
    fname;
    params = List.map (fun p -> { Ast.pty = Ast.Tint; pname = p }) params;
    body;
    fline = 0;
  }

let program rng ~(weights : Synth.weights) : Ast.program =
  let globals = ref [] in
  let garrays = ref [] in
  let n_arrays = 1 + Prng.int rng 2 in
  for i = 0 to n_arrays - 1 do
    let size = 8 + Prng.int rng 57 in
    let name = Printf.sprintf "g%d" i in
    globals :=
      { Ast.gty = Ast.Tint; gname = name; gsize = Some size; gline = 0 } :: !globals;
    garrays := (name, size) :: !garrays
  done;
  let nhelpers = Prng.int rng 4 in
  let funcs = ref [] in
  let callees = ref [] in
  for i = 0 to nhelpers - 1 do
    let fname = Printf.sprintf "h%d" i in
    let arity = 1 + Prng.int rng 3 in
    let params = List.init arity (fun j -> Printf.sprintf "p%d" j) in
    let budget = 4 + Prng.int rng 8 in
    let fn = gen_fn rng ~w:weights ~globals:!garrays ~callees:!callees ~fname ~params ~budget in
    funcs := fn :: !funcs;
    callees := (fname, arity) :: !callees
  done;
  let main =
    gen_fn rng ~w:weights ~globals:!garrays ~callees:!callees ~fname:"main"
      ~params:[ "n"; "s" ]
      ~budget:(6 + Prng.int rng 10)
  in
  { Ast.globals = List.rev !globals; funcs = List.rev !funcs @ [ main ] }

(* --- Random lattice values --- *)

module Srange = Vrp_ranges.Srange
module Progression = Vrp_ranges.Progression
module Value = Vrp_ranges.Value

let value rng =
  match Prng.int rng 10 with
  | 0 -> Value.top
  | 1 -> Value.bottom
  | _ ->
    let n = 1 + Prng.int rng 3 in
    let ranges =
      List.init n (fun _ ->
          let lo = -60 + Prng.int rng 121 in
          let len = Prng.int rng 41 in
          let stride = 1 + Prng.int rng 4 in
          Srange.numeric ~p:(1.0 /. float_of_int n) (Progression.make lo (lo + len) stride))
    in
    Value.normalize ranges
