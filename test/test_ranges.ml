(** Range-domain tests: exact progression mathematics, the §3.5 worked
    example, and QCheck soundness properties — membership must be preserved
    by every operation, probability mass conserved, comparison probabilities
    exact against brute force on small ranges. *)

module P = Vrp_ranges.Progression
module Sym = Vrp_ranges.Sym
module Srange = Vrp_ranges.Srange
module Value = Vrp_ranges.Value
module Ast = Vrp_lang.Ast

let tc = Alcotest.test_case

(* --- generators --- *)

let gen_prog : P.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* lo = int_range (-50) 50 in
  let* len = int_range 0 40 in
  let* stride = int_range 1 7 in
  return (P.make lo (lo + len) stride)

let elements (pr : P.t) =
  List.init (P.count pr) (fun i -> pr.P.lo + (i * pr.P.stride))

let gen_value : Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 3 in
  let* progs = list_size (return n) gen_prog in
  let k = List.length progs in
  return
    (Value.of_ranges
       (List.map (fun pr -> Srange.numeric ~p:(1.0 /. float_of_int k) pr) progs))

(* all concrete members of a numeric value *)
let members (v : Value.t) : int list =
  match v with
  | Value.Ranges rs ->
    List.concat_map
      (fun (r : Srange.t) ->
        match Srange.prog r with Some pr -> elements pr | None -> [])
      rs
  | Value.Top | Value.Bottom -> []

let print_value v = Value.to_string v

(* --- exact progression tests --- *)

let prog_count () =
  Alcotest.(check int) "count [0:10:2]" 6 (P.count (P.make 0 10 2));
  Alcotest.(check int) "count singleton" 1 (P.count (P.singleton 5));
  Alcotest.(check int) "count clamps hi" 3 (P.count (P.make 0 7 3))

let prog_mem () =
  let pr = P.make 3 21 3 in
  Alcotest.(check bool) "9 in [3:21:3]" true (P.mem 9 pr);
  Alcotest.(check bool) "10 not in [3:21:3]" false (P.mem 10 pr);
  Alcotest.(check bool) "24 out of bounds" false (P.mem 24 pr)

let prog_count_below () =
  let pr = P.make 0 20 5 in
  Alcotest.(check int) "below 0" 0 (P.count_below pr 0);
  Alcotest.(check int) "below 6" 2 (P.count_below pr 6);
  Alcotest.(check int) "below 100" 5 (P.count_below pr 100)

let prog_common () =
  (* CRT intersection: multiples of 3 and of 4 in [0,100] -> multiples of 12 *)
  Alcotest.(check int) "3-step meets 4-step" 9
    (P.count_common (P.make 0 99 3) (P.make 0 100 4));
  Alcotest.(check int) "disjoint parity" 0 (P.count_common (P.make 0 20 2) (P.make 1 21 2));
  Alcotest.(check int) "offset congruence" 4
    (P.count_common (P.make 1 100 6) (P.make 7 43 12))

let paper_section_3_5_example () =
  (* { 0.7[32:256:1], 0.3[3:21:3] } + { 0.6[16:100:4], 0.4[8:8:0] } *)
  let a =
    Value.of_ranges
      [ Srange.numeric ~p:0.7 (P.make 32 256 1); Srange.numeric ~p:0.3 (P.make 3 21 3) ]
  in
  let b =
    Value.of_ranges
      [ Srange.numeric ~p:0.6 (P.make 16 100 4); Srange.numeric ~p:0.4 (P.make 8 8 0) ]
  in
  Vrp_ranges.Config.with_max_ranges 8 (fun () ->
      match Value.binop Ast.Add a b with
      | Value.Ranges rs ->
        let strs = List.map Srange.to_string rs in
        List.iter
          (fun expected ->
            if not (List.mem expected strs) then
              Alcotest.failf "missing %s in { %s }" expected (String.concat ", " strs))
          [ "0.42[48:356:1]"; "0.28[40:264:1]"; "0.18[19:121:1]"; "0.12[11:29:3]" ]
      | v -> Alcotest.failf "unexpected %s" (print_value v))

let figure4_probabilities () =
  let x = Value.of_ranges [ Srange.numeric ~p:1.0 (P.make 0 10 1) ] in
  (match Value.cmp_prob Ast.Lt x (Value.const_int 10) with
  | Some p -> Helpers.check_prob "P(x<10)" (10.0 /. 11.0) p
  | None -> Alcotest.fail "must be computable");
  let y =
    Value.of_ranges
      [ Srange.numeric ~p:0.8 (P.make 0 7 1); Srange.numeric ~p:0.2 (P.singleton 1) ]
  in
  match Value.cmp_prob Ast.Eq y (Value.const_int 1) with
  | Some p -> Helpers.check_prob "P(y=1)" 0.3 p
  | None -> Alcotest.fail "must be computable"

let narrowing_basics () =
  let x = Value.of_ranges [ Srange.numeric ~p:1.0 (P.make 0 10 1) ] in
  Alcotest.(check string) "narrow <10" "{ 1[0:9:1] }"
    (print_value (Value.assert_narrow x Ast.Lt (Value.const_int 10)));
  Alcotest.(check string) "narrow >7" "{ 1[8:10:1] }"
    (print_value (Value.assert_narrow x Ast.Gt (Value.const_int 7)));
  Alcotest.(check string) "narrow ==3" "{ 1[3:3:0] }"
    (print_value (Value.assert_narrow x Ast.Eq (Value.const_int 3)));
  (* stride-aware: [0:12:3] with >= 4 starts at 6 *)
  let s = Value.of_ranges [ Srange.numeric ~p:1.0 (P.make 0 12 3) ] in
  Alcotest.(check string) "stride-aligned lower trim" "{ 1[6:12:3] }"
    (print_value (Value.assert_narrow s Ast.Ge (Value.const_int 4)))

let narrowing_keeps_contradictions () =
  (* Narrowing to an empty set returns the input unchanged (dead path). *)
  let x = Value.const_int 5 in
  Alcotest.(check string) "contradictory assert is a no-op" "{ 1[5:5:0] }"
    (print_value (Value.assert_narrow x Ast.Gt (Value.const_int 10)))

let symbolic_copy_and_narrow () =
  let v : Vrp_ir.Var.t = { Vrp_ir.Var.id = 0; base = "n"; version = 1; ty = Ast.Tint } in
  let c = Value.copy_of_var v in
  Alcotest.(check string) "copy" "{ 1[n.1:n.1:0] }" (print_value c);
  Alcotest.(check (option bool)) "as_copy" (Some true)
    (Option.map (Vrp_ir.Var.equal v) (Value.as_copy c));
  (* Numeric narrowing replaces the incomparable bound. *)
  let narrowed = Value.assert_narrow c Ast.Ge (Value.const_int 8) in
  Alcotest.(check string) "lo replaced" "{ 1[8:n.1:1] }" (print_value narrowed);
  let narrowed2 = Value.assert_narrow narrowed Ast.Le (Value.const_int 100) in
  Alcotest.(check string) "both sides numeric now" "{ 1[8:100:1] }" (print_value narrowed2)

let symbolic_one_sided_certainty () =
  let v : Vrp_ir.Var.t = { Vrp_ir.Var.id = 0; base = "n"; version = 1; ty = Ast.Tint } in
  let r = Option.get (Srange.make ~p:1.0 ~lo:(Sym.num 1) ~hi:(Sym.of_var v) ~stride:1) in
  let mixed = Value.of_ranges [ r ] in
  (* [1:n] > 0 is certain; [1:n] > 5 is unknown. *)
  (match Value.cmp_prob Ast.Gt mixed (Value.const_int 0) with
  | Some p -> Helpers.check_prob "certainly positive" 1.0 p
  | None -> Alcotest.fail "one-sided certainty must resolve");
  (match Value.cmp_prob Ast.Gt mixed (Value.const_int 5) with
  | None -> ()
  | Some p -> Alcotest.failf "must be unknown, got %f" p);
  (* same-base comparison: [1:n] <= [n:n] is certain *)
  let copy = Value.copy_of_var v in
  match Value.cmp_prob Ast.Le mixed copy with
  | Some p -> Helpers.check_prob "le than own bound" 1.0 p
  | None -> Alcotest.fail "same-base comparison must resolve"

let subst_resolves_bases () =
  let v : Vrp_ir.Var.t = { Vrp_ir.Var.id = 0; base = "n"; version = 1; ty = Ast.Tint } in
  let r = Option.get (Srange.make ~p:1.0 ~lo:(Sym.num 0) ~hi:(Sym.of_var v) ~stride:1) in
  let mixed = Value.of_ranges [ r ] in
  let lookup _ = Value.const_int 10 in
  Alcotest.(check string) "subst singleton" "{ 1[0:10:1] }"
    (print_value (Value.subst ~only_singleton:true mixed ~lookup));
  let lookup_wide _ = Value.of_ranges [ Srange.numeric ~p:1.0 (P.make 5 20 1) ] in
  (* hull substitution takes the loosest bound *)
  Alcotest.(check string) "subst hull" "{ 1[0:20:1] }"
    (print_value (Value.subst mixed ~lookup:lookup_wide));
  (* singleton-only substitution refuses a non-singleton base *)
  Alcotest.(check string) "subst only-singleton refuses" "{ 1[0:n.1:1] }"
    (print_value (Value.subst ~only_singleton:true mixed ~lookup:lookup_wide))

let compaction_respects_budget () =
  let rs = List.init 10 (fun i -> Srange.numeric ~p:0.1 (P.singleton (i * 10))) in
  match Value.union_weighted [ (1.0, Value.of_ranges rs) ] with
  | Value.Ranges out ->
    Alcotest.(check bool) "within budget" true
      (List.length out <= !Vrp_ranges.Config.max_ranges);
    (* all original members must still be covered *)
    List.iteri
      (fun i _ ->
        if not (Helpers.contains_int (Value.Ranges out) (i * 10)) then
          Alcotest.failf "lost member %d" (i * 10))
      rs
  | v -> Alcotest.failf "unexpected %s" (print_value v)

let union_weighted_masses () =
  let a = Value.const_int 1 and b = Value.const_int 2 in
  match Value.union_weighted [ (0.25, a); (0.75, b) ] with
  | Value.Ranges [ r1; r2 ] ->
    Helpers.check_prob "mass 1" 0.25 r1.Srange.p;
    Helpers.check_prob "mass 2" 0.75 r2.Srange.p
  | v -> Alcotest.failf "unexpected %s" (print_value v)

let union_with_bottom_is_bottom () =
  Alcotest.(check bool) "bottom absorbs" true
    (Value.is_bottom (Value.union_weighted [ (0.5, Value.const_int 1); (0.5, Value.bottom) ]))

let cmp_value_materialises () =
  let x = Value.of_ranges [ Srange.numeric ~p:1.0 (P.make 0 9 1) ] in
  match Value.cmp_value Ast.Lt x (Value.const_int 5) with
  | Value.Ranges [ zero; one ] ->
    Helpers.check_prob "P(0)" 0.5 zero.Srange.p;
    Helpers.check_prob "P(1)" 0.5 one.Srange.p
  | v -> Alcotest.failf "unexpected %s" (print_value v)

(* --- QCheck properties --- *)

let brute_prob rel xs ys =
  let holds =
    List.fold_left
      (fun acc x ->
        acc
        + List.length
            (List.filter
               (fun y ->
                 match rel with
                 | Ast.Eq -> x = y
                 | Ast.Ne -> x <> y
                 | Ast.Lt -> x < y
                 | Ast.Le -> x <= y
                 | Ast.Gt -> x > y
                 | Ast.Ge -> x >= y)
               ys))
      0 xs
  in
  float_of_int holds /. float_of_int (List.length xs * List.length ys)

let gen_rel =
  QCheck2.Gen.oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ]

let prop_prob_rel_exact =
  Helpers.qtest ~count:500 "prob_rel matches brute force"
    QCheck2.Gen.(triple gen_rel gen_prog gen_prog)
    (fun (rel, a, b) ->
      let got = P.prob_rel rel a b in
      let want = brute_prob rel (elements a) (elements b) in
      Float.abs (got -. want) < 1e-9)

let gen_binop =
  QCheck2.Gen.oneofl
    [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Band; Ast.Bor; Ast.Bxor; Ast.Shl; Ast.Shr ]

let apply_concrete op x y =
  match op with
  | Ast.Add -> Some (x + y)
  | Ast.Sub -> Some (x - y)
  | Ast.Mul -> Some (x * y)
  | Ast.Div -> if y = 0 then None else Some (x / y)
  | Ast.Mod -> if y = 0 then None else Some (x mod y)
  | Ast.Band -> Some (x land y)
  | Ast.Bor -> Some (x lor y)
  | Ast.Bxor -> Some (x lxor y)
  | Ast.Shl -> if y < 0 || y > 40 then None else Some (x lsl y)
  | Ast.Shr -> if y < 0 || y > 40 then None else Some (x asr y)

let prop_binop_sound =
  Helpers.qtest ~count:800 "binop result contains all concrete results"
    QCheck2.Gen.(triple gen_binop gen_value gen_value)
    (fun (op, a, b) ->
      let result = Value.binop op a b in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              match apply_concrete op x y with
              | None -> true (* concrete trap; any result is fine *)
              | Some z -> Helpers.contains_int result z)
            (members b))
        (members a))

let prop_mass_normalised =
  Helpers.qtest ~count:500 "binop preserves unit mass"
    QCheck2.Gen.(triple gen_binop gen_value gen_value)
    (fun (op, a, b) ->
      match Value.binop op a b with
      | Value.Ranges _ as v -> Float.abs (Value.mass v -. 1.0) < 1e-6
      | Value.Top | Value.Bottom -> true)

let prop_narrow_sound =
  Helpers.qtest ~count:800 "assert_narrow keeps every satisfying member"
    QCheck2.Gen.(triple gen_rel gen_value gen_prog)
    (fun (rel, a, bound) ->
      let bv = Value.of_ranges [ Srange.numeric ~p:1.0 bound ] in
      let narrowed = Value.assert_narrow a rel bv in
      let bs = elements bound in
      List.for_all
        (fun x ->
          let satisfiable =
            List.exists
              (fun y ->
                match rel with
                | Ast.Eq -> x = y
                | Ast.Ne -> x <> y
                | Ast.Lt -> x < y
                | Ast.Le -> x <= y
                | Ast.Gt -> x > y
                | Ast.Ge -> x >= y)
              bs
          in
          (not satisfiable) || Helpers.contains_int narrowed x)
        (members a))

let prop_cmp_prob_range =
  Helpers.qtest ~count:500 "cmp_prob stays in [0,1] and complements"
    QCheck2.Gen.(triple gen_rel gen_value gen_value)
    (fun (rel, a, b) ->
      match (Value.cmp_prob rel a b, Value.cmp_prob (Ast.relop_negate rel) a b) with
      | Some p, Some q -> p >= 0.0 && p <= 1.0 && Float.abs (p +. q -. 1.0) < 1e-6
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let prop_union_contains_parts =
  Helpers.qtest ~count:500 "union contains both operands' members"
    QCheck2.Gen.(pair gen_value gen_value)
    (fun (a, b) ->
      let u = Value.union_weighted [ (0.5, a); (0.5, b) ] in
      List.for_all (Helpers.contains_int u) (members a)
      && List.for_all (Helpers.contains_int u) (members b))

let prop_unop_sound =
  Helpers.qtest ~count:400 "unop soundness"
    QCheck2.Gen.(pair (oneofl [ Vrp_ir.Ir.Neg; Vrp_ir.Ir.Bnot ]) gen_value)
    (fun (op, a) ->
      let result = Value.unop op a in
      List.for_all
        (fun x ->
          let z = match op with Vrp_ir.Ir.Neg -> -x | Vrp_ir.Ir.Bnot -> lnot x in
          Helpers.contains_int result z)
        (members a))

(* Continuous approximation quality: for large progressions prob_lt switches
   to the closed form; its error against brute force must stay small. *)
let prop_prob_lt_approximation =
  Helpers.qtest ~count:100 "prob_lt continuous approximation is accurate"
    QCheck2.Gen.(pair (int_range (-2000) 2000) (int_range (-2000) 2000))
    (fun (lo1, lo2) ->
      (* ranges wide enough to force the approximation path *)
      let a = P.make lo1 (lo1 + 9000) 1 in
      let b = P.make lo2 (lo2 + 8000) 1 in
      let exact =
        (* brute force via counting formula rather than enumeration *)
        let total = ref 0.0 in
        let v = ref b.P.lo in
        for _ = 1 to P.count b do
          total := !total +. float_of_int (P.count_below a !v);
          v := !v + b.P.stride
        done;
        !total /. (float_of_int (P.count a) *. float_of_int (P.count b))
      in
      Float.abs (P.prob_lt a b -. exact) < 0.01)

let prop_normalize_idempotent =
  Helpers.qtest ~count:300 "normalize is idempotent"
    QCheck2.Gen.(pair gen_value gen_value)
    (fun (a, b) ->
      match Value.union_weighted [ (0.3, a); (0.7, b) ] with
      | Value.Ranges rs as v -> Value.equal v (Value.normalize rs)
      | Value.Top | Value.Bottom -> true)

(* --- Compaction oracle ---

   [Value.normalize] keeps a pairwise cost matrix across merge steps. The
   quadratic rescan it replaced stays here, verbatim, as the reference: on
   every input and range budget the two must agree exactly. *)

module Config = Vrp_ranges.Config

let reference_hull (a : Srange.t) (b : Srange.t) : Srange.t option =
  match (Sym.min_sym a.lo b.lo, Sym.max_sym a.hi b.hi) with
  | Some lo, Some hi ->
    let stride =
      if Sym.same_base a.lo b.lo then
        P.gcd_stride (P.gcd_stride a.stride b.stride) (abs (a.lo.Sym.off - b.lo.Sym.off))
      else 1
    in
    let stride = if Sym.equal lo hi then 0 else max stride 1 in
    Srange.make ~p:(a.p +. b.p) ~lo ~hi ~stride
  | (None | Some _), _ -> None

let reference_merge_cost (a : Srange.t) (b : Srange.t) (merged : Srange.t) =
  match (Srange.count merged, Srange.count a, Srange.count b) with
  | Some cm, Some ca, Some cb -> float_of_int (cm - ca - cb)
  | _ -> infinity

let reference_normalize (rs : Srange.t list) : Value.t =
  let rs = List.filter (fun (r : Srange.t) -> r.Srange.p > 0.0) rs in
  if rs = [] then Value.Bottom
  else if List.exists Srange.too_big rs then Value.Bottom
  else begin
    let rs = List.sort Srange.compare_sr rs in
    let rec coalesce = function
      | a :: b :: rest when Srange.same_shape a b ->
        coalesce ({ a with Srange.p = a.Srange.p +. b.Srange.p } :: rest)
      | a :: rest -> a :: coalesce rest
      | [] -> []
    in
    let rs = ref (coalesce rs) in
    let budget = !Config.max_ranges in
    let exception Give_up in
    (try
       while List.length !rs > budget do
         let arr = Array.of_list !rs in
         let best = ref None in
         Array.iteri
           (fun i a ->
             Array.iteri
               (fun j b ->
                 if i < j then
                   match reference_hull a b with
                   | None -> ()
                   | Some merged ->
                     let cost = reference_merge_cost a b merged in
                     (match !best with
                     | Some (_, _, _, c) when c <= cost -> ()
                     | _ -> best := Some (i, j, merged, cost)))
               arr)
           arr;
         match !best with
         | None -> raise Give_up
         | Some (i, j, merged, _) ->
           let rest = Array.to_list arr |> List.filteri (fun k _ -> k <> i && k <> j) in
           rs := List.sort Srange.compare_sr (merged :: rest)
       done;
       let total = List.fold_left (fun acc (r : Srange.t) -> acc +. r.Srange.p) 0.0 !rs in
       if total < Config.eps then Value.Bottom
       else if List.exists Srange.too_big !rs then Value.Bottom
       else
         Value.Ranges
           (List.map (fun (r : Srange.t) -> { r with Srange.p = r.Srange.p /. total }) !rs)
     with Give_up -> Value.Bottom)
  end

let oracle_var id base : Vrp_ir.Var.t = { Vrp_ir.Var.id; base; version = 1; ty = Ast.Tint }
let var_a = oracle_var 0 "a"
let var_b = oracle_var 1 "b"

(* Numeric, same-base, mixed-base and (rarely) too-big ranges. A quarter
   are raw records that [Srange.make] never normalised, and so are the
   inverted ones ([hi < lo]), which it refuses. *)
let gen_compaction_range : Srange.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* kind =
    frequency
      [ (40, return `Numeric); (30, return `Same); (20, return `Mixed); (1, return `Too_big) ]
  in
  let* base = oneofl [ var_a; var_b ] in
  let* other = oneofl [ None; Some var_a; Some var_b ] in
  let* lo = int_range (-30) 30 in
  let* len = int_range (-5) 30 in
  let* stride = int_range 0 6 in
  let* p = oneof [ oneofl [ 0.0; 1e-12; 0.1; 0.25; 0.5; 1.0 ]; float_range 0.0 1.0 ] in
  let* raw = frequency [ (1, return true); (3, return false) ] in
  let lo_s, hi_s =
    match kind with
    | `Numeric -> (Sym.num lo, Sym.num (lo + len))
    | `Same -> (Sym.of_var ~off:lo base, Sym.of_var ~off:(lo + len) base)
    | `Mixed -> ({ Sym.base = other; off = lo }, Sym.of_var ~off:(lo + len) base)
    | `Too_big -> (Sym.num lo, Sym.of_var ~off:(Sym.limit + len + 1) base)
  in
  let made = Srange.make ~p ~lo:lo_s ~hi:hi_s ~stride in
  return
    (match made with
    | Some r when not raw -> r
    | Some _ | None -> { Srange.p; lo = lo_s; hi = hi_s; stride })

let prop_compaction_matches_rescan =
  Helpers.qtest ~count:1000 "compaction matches the quadratic rescan (R = 1, 2, 4, 8)"
    QCheck2.Gen.(list_size (int_range 0 20) gen_compaction_range)
    (fun rs ->
      List.for_all
        (fun r ->
          Config.with_max_ranges r (fun () -> Value.normalize rs = reference_normalize rs))
        [ 1; 2; 4; 8 ])

let check_compaction name ~budget rs expected =
  Config.with_max_ranges budget (fun () ->
      let got = Value.normalize rs in
      Alcotest.(check bool)
        (name ^ ": matches the rescan") true
        (got = reference_normalize rs);
      Alcotest.(check string) name expected (print_value got))

let compaction_fixed_cases () =
  let num ~p lo hi stride = Srange.numeric ~p (P.make lo hi stride) in
  (* tied costs: every pair of singletons costs 0, so the first pair keeps
     winning *)
  check_compaction "all pairs tie" ~budget:2
    (List.init 5 (fun i -> num ~p:0.2 (i * 10) (i * 10) 0))
    "{ 0.8[0:30:10], 0.2[40:40:0] }";
  (* (0,1), (1,2) and (2,3) tie at cost 1: the lexicographically first wins *)
  check_compaction "adjacent pairs tie" ~budget:3
    [ num ~p:0.25 0 1 1; num ~p:0.25 3 4 1; num ~p:0.25 6 7 1; num ~p:0.25 9 10 1 ]
    "{ 0.5[0:4:1], 0.25[6:7:1], 0.25[9:10:1] }";
  (* only ∞-cost (mixed) pairs are mergeable, and [0:a] merges with
     nothing: the first mergeable pair wins *)
  let mixed ~p lo (v : Vrp_ir.Var.t) off =
    Option.get (Srange.make ~p ~lo:(Sym.num lo) ~hi:(Sym.of_var ~off v) ~stride:1)
  in
  check_compaction "first mergeable pair at infinite cost" ~budget:3
    [ mixed ~p:0.25 0 var_a 0; mixed ~p:0.25 1 var_b 1; mixed ~p:0.25 3 var_b 2;
      mixed ~p:0.25 5 var_b 4 ]
    "{ 0.25[0:a.1:1], 0.5[1:b.1+2:1], 0.25[5:b.1+4:1] }";
  (* [0:a+3:2] and the raw [0:a+5:0] hull to the shape of the survivor
     [0:a+5:2]: the merged range goes before it, as a stable sort puts it *)
  check_compaction "merged range before an equal survivor" ~budget:2
    [ { (mixed ~p:0.1 0 var_a 3) with Srange.stride = 2 };
      { Srange.p = 0.1; lo = Sym.num 0; hi = Sym.of_var ~off:5 var_a; stride = 0 };
      { (mixed ~p:0.8 0 var_a 5) with Srange.stride = 2 } ]
    "{ 0.2[0:a.1+5:2], 0.8[0:a.1+5:2] }";
  (* no pair is mergeable: ⊥ *)
  check_compaction "nothing mergeable" ~budget:1
    [ Srange.singleton ~p:0.5 (Sym.of_var var_a); Srange.singleton ~p:0.5 (Sym.of_var var_b) ]
    "_|_"

let prop_narrow_never_gains_mass =
  Helpers.qtest ~count:400 "narrowing keeps unit mass"
    QCheck2.Gen.(triple gen_rel gen_value gen_prog)
    (fun (rel, a, bound) ->
      let bv = Value.of_ranges [ Srange.numeric ~p:1.0 bound ] in
      match Value.assert_narrow a rel bv with
      | Value.Ranges _ as v -> Float.abs (Value.mass v -. 1.0) < 1e-6
      | Value.Top | Value.Bottom -> true)

let prop_cmp_value_consistent_with_cmp_prob =
  Helpers.qtest ~count:300 "cmp_value mass matches cmp_prob"
    QCheck2.Gen.(triple gen_rel gen_value gen_value)
    (fun (rel, a, b) ->
      match (Value.cmp_prob rel a b, Value.cmp_value rel a b) with
      | Some p, Value.Ranges rs ->
        let mass_at_one =
          List.fold_left
            (fun acc (r : Srange.t) ->
              if r.Srange.lo.Sym.off = 1 then acc +. r.Srange.p else acc)
            0.0 rs
        in
        Float.abs (mass_at_one -. p) < 1e-6
      | None, (Value.Bottom | Value.Top) -> true
      | None, _ -> false
      | Some _, (Value.Top | Value.Bottom) -> false)

let ne_narrowing_with_strides () =
  (* [0:12:3] minus the endpoint 12 -> [0:9:3]; minus interior 6 keeps the
     shape but rescales mass *)
  let s = Value.of_ranges [ Srange.numeric ~p:1.0 (P.make 0 12 3) ] in
  Alcotest.(check string) "endpoint removed" "{ 1[0:9:3] }"
    (print_value (Value.assert_narrow s Ast.Ne (Value.const_int 12)));
  match Value.assert_narrow s Ast.Ne (Value.const_int 6) with
  | Value.Ranges [ r ] ->
    Alcotest.(check bool) "same shape" true
      (Srange.same_shape r (Srange.numeric ~p:1.0 (P.make 0 12 3)))
  | v -> Alcotest.failf "unexpected %s" (print_value v)

let mul_singleton_strides () =
  (* [0:10:2] * 3 keeps a stride of 6 *)
  let a = Value.of_ranges [ Srange.numeric ~p:1.0 (P.make 0 10 2) ] in
  Alcotest.(check string) "scaled stride" "{ 1[0:30:6] }"
    (print_value (Value.binop Ast.Mul a (Value.const_int 3)));
  Alcotest.(check string) "shift left" "{ 1[0:40:8] }"
    (print_value (Value.binop Ast.Shl a (Value.const_int 2)))

let mod_stride_residue () =
  (* [4:20:4] mod 8 = {4, 0, 4, 0, 4} -> residue class 0 mod 4 within [0,7] *)
  let a = Value.of_ranges [ Srange.numeric ~p:1.0 (P.make 4 20 4) ] in
  Alcotest.(check string) "residues" "{ 1[0:4:4] }"
    (print_value (Value.binop Ast.Mod a (Value.const_int 8)))

let prop_sym_algebra =
  Helpers.qtest ~count:300 "sym add/sub on numerics"
    QCheck2.Gen.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (a, b) ->
      let sa = Sym.num a and sb = Sym.num b in
      Sym.add sa sb = Some (Sym.num (a + b))
      && Sym.sub sa sb = Some (Sym.num (a - b))
      && Sym.cmp sa sb = Some (Int.compare a b))

(* --- Lattice laws, driven by the fuzzer's value generator ---

   Equality is member-set equality: two values are "the same" when they
   contain exactly the same integers, whatever their internal range lists
   look like. Probes cover the fuzz generator's whole numeric span. *)

let gen_fuzz_value : Value.t QCheck2.Gen.t =
  QCheck2.Gen.map
    (fun seed -> Vrp_fuzz.Gen.value (Vrp_util.Prng.create seed))
    QCheck2.Gen.(int_range 0 1_000_000)

let probes = List.init 601 (fun i -> i - 300)
let vmem = Vrp_fuzz.Oracle.value_contains
let same_members a b = List.for_all (fun n -> vmem a n = vmem b n) probes
let subset_members a b = List.for_all (fun n -> (not (vmem a n)) || vmem b n) probes

let prop_join_commutative =
  Helpers.qtest ~count:300 "lattice: join commutative (member sets)"
    QCheck2.Gen.(pair gen_fuzz_value gen_fuzz_value)
    (fun (a, b) -> same_members (Value.join a b) (Value.join b a))

let prop_join_idempotent =
  Helpers.qtest ~count:300 "lattice: join idempotent (member sets)"
    gen_fuzz_value
    (fun a -> same_members (Value.join a a) a)

let prop_join_associative_sound =
  (* Compaction to the range budget may hull differently per grouping, so
     the two groupings need not be member-identical — but both must contain
     every member of every operand, and each grouping's members must come
     from somewhere: check mutual soundness of the two groupings. *)
  Helpers.qtest ~count:300 "lattice: join associative (mutual soundness)"
    QCheck2.Gen.(triple gen_fuzz_value gen_fuzz_value gen_fuzz_value)
    (fun (a, b, c) ->
      let l = Value.join (Value.join a b) c in
      let r = Value.join a (Value.join b c) in
      List.for_all
        (fun v -> subset_members v l && subset_members v r)
        [ a; b; c ])

let prop_absorption =
  (* Only the soundness direction: compaction inside meet/join may hull
     several progressions together (e.g. [-25:-1:1] and [-24:6:2] into
     [-25:6:1]), so the absorbed value can gain members — but it must
     never lose one of x's. *)
  Helpers.qtest ~count:300 "lattice: absorption keeps every member of x"
    QCheck2.Gen.(pair gen_fuzz_value gen_fuzz_value)
    (fun (a, b) -> subset_members a (Value.meet a (Value.join a b)))

let prop_meet_is_intersection =
  Helpers.qtest ~count:300 "lattice: meet over-approximates intersection"
    QCheck2.Gen.(pair gen_fuzz_value gen_fuzz_value)
    (fun (a, b) ->
      let m = Value.meet a b in
      List.for_all (fun n -> (not (vmem a n && vmem b n)) || vmem m n) probes)

let prop_widen_sound =
  Helpers.qtest ~count:300 "lattice: widen contains next"
    QCheck2.Gen.(pair gen_fuzz_value gen_fuzz_value)
    (fun (prev, b) ->
      let next = Value.join prev b in
      subset_members next (Value.widen ~prev ~next))

let prop_widen_terminates =
  (* Every widened chain strictly descends through at most
     ⊤ → several ranges → one stride-1 hull → lo capped → hi capped → ⊥,
     so from an arbitrary start it changes at most 5 times. *)
  Helpers.qtest ~count:200 "lattice: widening chain changes at most 5 times"
    QCheck2.Gen.(pair gen_fuzz_value (list_size (return 12) gen_fuzz_value))
    (fun (a, bs) ->
      let changes = ref 0 in
      let w = ref a in
      List.iter
        (fun b ->
          let w' = Value.widen ~prev:!w ~next:(Value.join !w b) in
          if not (Value.equal !w w') then incr changes;
          w := w')
        bs;
      !changes <= 5)

(* --- Symbolic algebra v2: Sop / Alg_env laws ---

   Structural equality of Sop terms is semantic equality (normal form), so
   the ring laws are checked structurally; every decided comparison and
   every prover verdict is additionally driven through [Sop.eval] under
   random concrete environments (substitution soundness). *)

module Sop = Vrp_ranges.Sop
module Alg_env = Vrp_ranges.Alg_env

let sop_var i =
  { Vrp_ir.Var.id = i + 1; base = Printf.sprintf "x%d" i; version = 1; ty = Ast.Tint }

let sop_vars = Array.init 4 sop_var

let gen_sop : Sop.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map Sop.const (int_range (-30) 30);
        map (fun i -> Sop.of_var sop_vars.(i)) (int_range 0 (Array.length sop_vars - 1));
      ]
  in
  let rec build n =
    if n = 0 then leaf
    else
      let sub = build (n - 1) in
      oneof
        [
          leaf;
          map2 Sop.add sub sub;
          map2 Sop.sub sub sub;
          map2 Sop.scale (int_range (-5) 5) sub;
          map2
            (fun a b -> match Sop.mul a b with Some p -> p | None -> Sop.add a b)
            sub sub;
        ]
  in
  build 3

let gen_env : (Vrp_ir.Var.t -> int) QCheck2.Gen.t =
  QCheck2.Gen.map
    (fun xs ->
      let arr = Array.of_list xs in
      fun (v : Vrp_ir.Var.t) -> arr.(v.Vrp_ir.Var.id mod Array.length arr))
    QCheck2.Gen.(list_size (return 8) (int_range (-9) 9))

let prop_sop_normal_form =
  Helpers.qtest ~count:500 "sop: normalisation idempotent" gen_sop (fun t ->
      Sop.equal (Sop.add t Sop.zero) t
      && Sop.equal (Sop.scale 1 t) t
      && Sop.equal (Sop.sub t t) Sop.zero
      && Sop.equal (Sop.neg (Sop.neg t)) t)

let prop_sop_add_laws =
  Helpers.qtest ~count:500 "sop: add commutative and associative"
    QCheck2.Gen.(triple gen_sop gen_sop gen_sop)
    (fun (a, b, c) ->
      Sop.equal (Sop.add a b) (Sop.add b a)
      && Sop.equal (Sop.add (Sop.add a b) c) (Sop.add a (Sop.add b c)))

let prop_sop_mul_laws =
  Helpers.qtest ~count:500 "sop: mul commutative, associative, distributive"
    QCheck2.Gen.(triple gen_sop gen_sop gen_sop)
    (fun (a, b, c) ->
      let comm =
        match (Sop.mul a b, Sop.mul b a) with
        | Some p, Some q -> Sop.equal p q
        | None, None -> true
        | _ -> false
      in
      let assoc =
        match (Sop.mul a b, Sop.mul b c) with
        | Some ab, Some bc -> (
          match (Sop.mul ab c, Sop.mul a bc) with
          | Some l, Some r -> Sop.equal l r
          | _ -> true (* the caps may cut either association *))
        | _ -> true
      in
      let distrib =
        match (Sop.mul a (Sop.add b c), Sop.mul a b, Sop.mul a c) with
        | Some l, Some ab, Some ac -> Sop.equal l (Sop.add ab ac)
        | _ -> true
      in
      comm && assoc && distrib)

let prop_sop_cmp_laws =
  Helpers.qtest ~count:500 "sop: cmp antisymmetric and transitive"
    QCheck2.Gen.(triple gen_sop gen_sop gen_sop)
    (fun (a, b, c) ->
      let anti =
        match (Sop.cmp a b, Sop.cmp b a) with
        | Some x, Some y -> y = -x
        | None, None -> true
        | _ -> false
      in
      let trans =
        match (Sop.cmp a b, Sop.cmp b c) with
        | Some x, Some y when x <= 0 && y <= 0 -> (
          match Sop.cmp a c with Some z -> z <= 0 | None -> false)
        | _ -> true
      in
      anti && trans)

let prop_sop_eval_homomorphism =
  Helpers.qtest ~count:500 "sop: eval is a ring homomorphism"
    QCheck2.Gen.(triple gen_env gen_sop gen_sop)
    (fun (env, a, b) ->
      Sop.eval ~env (Sop.add a b) = Sop.eval ~env a + Sop.eval ~env b
      && Sop.eval ~env (Sop.sub a b) = Sop.eval ~env a - Sop.eval ~env b
      && Sop.eval ~env (Sop.neg a) = -Sop.eval ~env a
      &&
      match Sop.mul a b with
      | Some p -> Sop.eval ~env p = Sop.eval ~env a * Sop.eval ~env b
      | None -> true)

let prop_sop_cmp_sound =
  Helpers.qtest ~count:500 "sop: decided cmp agrees with every environment"
    QCheck2.Gen.(triple gen_env gen_sop gen_sop)
    (fun (env, a, b) ->
      match Sop.cmp a b with
      | None -> true
      | Some c -> Int.compare (Sop.eval ~env a) (Sop.eval ~env b) = c)

(* Fact sets consistent by construction: each candidate polynomial is
   oriented to be >= 0 under a ground-truth environment, so the set is
   satisfiable and every prover verdict must hold in that model. *)
let oriented env p = if Sop.eval ~env p >= 0 then p else Sop.neg p

let env_of env polys =
  List.fold_left
    (fun acc p -> Alg_env.add_nonneg acc (oriented env p))
    Alg_env.empty polys

let eval_rel rel x y =
  match rel with
  | Ast.Eq -> x = y
  | Ast.Ne -> x <> y
  | Ast.Lt -> x < y
  | Ast.Le -> x <= y
  | Ast.Gt -> x > y
  | Ast.Ge -> x >= y

let gen_sop_query =
  QCheck2.Gen.(
    oneof
      [
        pair gen_sop gen_sop;
        map2 (fun p k -> (p, Sop.add p (Sop.const k))) gen_sop (int_range (-4) 4);
      ])

let prop_alg_env_sound =
  Helpers.qtest ~count:400 "alg_env: decided queries hold in the model"
    QCheck2.Gen.(quad gen_env (list_size (int_range 0 8) gen_sop) gen_rel gen_sop_query)
    (fun (env, polys, rel, (a, b)) ->
      let aenv = Alg_env.refine (env_of env polys) in
      let holds = eval_rel rel (Sop.eval ~env a) (Sop.eval ~env b) in
      match Alg_env.decide aenv rel a b with
      | Some true -> holds
      | Some false -> not holds
      | None -> true)

let prop_alg_env_monotone =
  Helpers.qtest ~count:400 "alg_env: adding facts never un-decides"
    QCheck2.Gen.(
      pair
        (quad gen_env (list_size (int_range 0 6) gen_sop) gen_rel gen_sop_query)
        (list_size (int_range 0 4) gen_sop))
    (fun ((env, polys, rel, (a, b)), more) ->
      let base = env_of env polys in
      let bigger = Alg_env.refine (env_of env (polys @ more)) in
      match Alg_env.decide base rel a b with
      | None -> true
      | Some r -> Alg_env.decide bigger rel a b = Some r)

let sop_normal_form_examples () =
  let vx = sop_vars.(0) and vy = sop_vars.(1) in
  let x = Sop.of_var vx and y = Sop.of_var vy in
  (* (x+2)(y+3) = xy + 3x + 2y + 6 *)
  (match Sop.mul (Sop.add x (Sop.const 2)) (Sop.add y (Sop.const 3)) with
  | None -> Alcotest.fail "product must stay inside the caps"
  | Some p ->
    Alcotest.(check int) "coeff x" 3 (Sop.coeff_of p [ vx ]);
    Alcotest.(check int) "coeff y" 2 (Sop.coeff_of p [ vy ]);
    Alcotest.(check int) "coeff xy" 1 (Sop.coeff_of p [ vx; vy ]);
    Alcotest.(check int) "const" 6 (Sop.const_part p);
    Alcotest.(check (option int)) "cmp against p+1" (Some (-1))
      (Sop.cmp p (Sop.add p Sop.one)));
  let x2 = Option.get (Sop.mul x x) in
  Alcotest.(check bool) "degree cap refuses x^4" true (Sop.mul x2 x2 = None)

let alg_env_proves_chains () =
  let sx = Sop.of_var sop_vars.(0) and sy = Sop.of_var sop_vars.(1) in
  (* x < y, y <= 11 *)
  let env = Alg_env.add_lt Alg_env.empty sx sy in
  let env = Alg_env.add_le env sy (Sop.const 11) in
  let env = Alg_env.refine env in
  Alcotest.(check (option bool)) "x < 11" (Some true)
    (Alg_env.decide env Ast.Lt sx (Sop.const 11));
  Alcotest.(check (option bool)) "2x+1 <= 21" (Some true)
    (Alg_env.decide env Ast.Le (Sop.add (Sop.scale 2 sx) Sop.one) (Sop.const 21));
  Alcotest.(check (option bool)) "x > 11 refuted" (Some false)
    (Alg_env.decide env Ast.Gt sx (Sop.const 11));
  Alcotest.(check (option bool)) "y < x refuted" (Some false)
    (Alg_env.decide env Ast.Lt sy sx);
  Alcotest.(check (option bool)) "x = 3 undecided" None
    (Alg_env.decide env Ast.Eq sx (Sop.const 3))

let sym_cmp_capped_at_limit () =
  (* The satellite pin for the sym.mli doc contract: same-base comparisons
     decide exactly up to [Sym.limit] and refuse beyond it. *)
  let v = sop_var 6 in
  let at off = Sym.of_var ~off v in
  Alcotest.(check (option int)) "at the limit" (Some 1)
    (Sym.cmp (at Sym.limit) (at (Sym.limit - 1)));
  Alcotest.(check (option int)) "beyond the limit" None
    (Sym.cmp (at (Sym.limit + 1)) (at 0));
  Alcotest.(check (option int)) "numeric beyond the limit" None
    (Sym.cmp (Sym.num (Sym.limit + 1)) (Sym.num 0));
  Alcotest.(check (option int)) "numeric at the limit" (Some 1)
    (Sym.cmp (Sym.num Sym.limit) (Sym.num (-1)))

let suite =
  ( "ranges",
    [
      tc "progression: count" `Quick prog_count;
      tc "progression: mem" `Quick prog_mem;
      tc "progression: count_below" `Quick prog_count_below;
      tc "progression: CRT intersection" `Quick prog_common;
      tc "paper 3.5 addition example" `Quick paper_section_3_5_example;
      tc "figure 4 probabilities" `Quick figure4_probabilities;
      tc "narrowing basics" `Quick narrowing_basics;
      tc "narrowing contradictions" `Quick narrowing_keeps_contradictions;
      tc "symbolic copy and narrowing" `Quick symbolic_copy_and_narrow;
      tc "symbolic one-sided certainty" `Quick symbolic_one_sided_certainty;
      tc "substitution" `Quick subst_resolves_bases;
      tc "compaction respects budget" `Quick compaction_respects_budget;
      tc "union masses" `Quick union_weighted_masses;
      tc "union with bottom" `Quick union_with_bottom_is_bottom;
      tc "cmp materialisation" `Quick cmp_value_materialises;
      tc "ne narrowing with strides" `Quick ne_narrowing_with_strides;
      tc "mul/shl singleton strides" `Quick mul_singleton_strides;
      tc "mod stride residues" `Quick mod_stride_residue;
      prop_prob_rel_exact;
      prop_prob_lt_approximation;
      prop_normalize_idempotent;
      prop_compaction_matches_rescan;
      tc "compaction: ties, infinite costs, give-up" `Quick compaction_fixed_cases;
      prop_narrow_never_gains_mass;
      prop_cmp_value_consistent_with_cmp_prob;
      prop_binop_sound;
      prop_mass_normalised;
      prop_narrow_sound;
      prop_cmp_prob_range;
      prop_union_contains_parts;
      prop_unop_sound;
      prop_sym_algebra;
      prop_join_commutative;
      prop_join_idempotent;
      prop_join_associative_sound;
      prop_absorption;
      prop_meet_is_intersection;
      prop_widen_sound;
      prop_widen_terminates;
      tc "sop normal-form examples" `Quick sop_normal_form_examples;
      tc "alg_env elimination chains" `Quick alg_env_proves_chains;
      tc "sym cmp capped at limit" `Quick sym_cmp_capped_at_limit;
      prop_sop_normal_form;
      prop_sop_add_laws;
      prop_sop_mul_laws;
      prop_sop_cmp_laws;
      prop_sop_eval_homomorphism;
      prop_sop_cmp_sound;
      prop_alg_env_sound;
      prop_alg_env_monotone;
    ] )
