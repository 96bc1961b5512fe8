(* Algebraic fact environment: non-negative Sop facts plus a bounded
   linear-combination prover. See alg_env.mli. *)

type fact = {
  poly : Sop.t;  (* known: poly >= 0 *)
  scopes : int list;  (* block ids the fact depends on; [] = unconditional *)
}

type t = {
  rev_direct : fact list;  (* newest first *)
  ndirect : int;
  derived : fact list;  (* refine results, insertion order, capped *)
  paired : int;  (* the direct prefix whose pairs a refine has combined *)
}

let empty = { rev_direct = []; ndirect = 0; derived = []; paired = 0 }

let direct env = List.rev env.rev_direct

let coeff_cap = 1 lsl 20
let fact_cap = 128
let derived_cap = 64
let max_depth = 6

(* The prover only touches polynomials whose coefficients are small enough
   that every linear combination it can form stays far from native-int
   overflow: |coeff| <= 2^20 here, scaling factors are coefficient quotients
   (so also <= 2^20), and each of the <= 6 elimination steps at most
   multiplies magnitudes by a cap-bounded factor — comfortably inside 63-bit
   ints given the Sop.too_big re-check at every step. *)
let tame (p : Sop.t) =
  abs (Sop.const_part p) <= Sym.limit
  && List.for_all (fun (_, c) -> abs c <= coeff_cap) (Sop.terms p)

(* Constant polynomials are useless to the prover (no monomial to eliminate
   against), and duplicate facts — common, because the front end inserts
   symmetric assertions on both operands of a guard — only burn [fact_cap].
   Skipping them is still monotone: nothing previously held is removed. *)
let add_fact env f =
  if
    Sop.is_const f.poly
    || env.ndirect >= fact_cap
    || List.exists
         (fun g -> Sop.equal g.poly f.poly && g.scopes = f.scopes)
         env.rev_direct
  then env
  else { env with rev_direct = f :: env.rev_direct; ndirect = env.ndirect + 1 }

let scoped = function None -> [] | Some b -> [ b ]
let add_nonneg ?scope env s = add_fact env { poly = s; scopes = scoped scope }
let add_le ?scope env s t = add_nonneg ?scope env (Sop.sub t s)
let add_lt ?scope env s t = add_nonneg ?scope env (Sop.sub (Sop.sub t s) Sop.one)

let add_eq ?scope env s t =
  let env = add_le ?scope env s t in
  add_le ?scope env t s

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let admitted admit f =
  match admit with
  | None -> f.scopes = []
  | Some ok -> List.for_all ok f.scopes

(* Prove goal >= 0 by repeatedly eliminating the leading monomial against an
   admitted fact carrying a same-sign coefficient on that monomial. With
   g = gcd(|c|,|cf|), lam = |cf|/g > 0 and k = |c|/g > 0, the combination
   lam*goal - k*fact cancels the monomial exactly, and
   lam*goal - k*fact >= 0  together with  fact >= 0  entails  goal >= 0.

   [prover] captures the admitted-fact set once and returns a reusable
   goal predicate, so a caller with several goals over the same admission
   (e.g. [decide]) shares two structures that make the backtracking search
   affordable in the engine's hot path:

   - a leading-monomial index, so each elimination step consults only the
     facts that mention the monomial instead of scanning all of them;
   - a failure memo. The search result for a subgoal depends only on its
     remaining depth budget, and failure with a larger budget implies
     failure with any smaller one — so a subgoal that failed at recorded
     depth [d] can be skipped at any depth >= [d] without losing proofs.
     The memo is exact, not a heuristic. *)
let prover ?admit env =
  let facts =
    List.filter (fun f -> admitted admit f && tame f.poly)
      (direct env @ env.derived)
  in
  let index = Hashtbl.create 64 in
  List.iter
    (fun f -> List.iter (fun (m, _) -> Hashtbl.add index m f) (Sop.terms f.poly))
    facts;
  let failed : (Sop.t, int) Hashtbl.t = Hashtbl.create 64 in
  let rec prove depth goal =
    if Sop.too_big goal || not (tame goal) then false
    else
      match Sop.leading goal with
      | None -> (match Sop.const_value goal with Some c -> c >= 0 | None -> false)
      | Some (m, c) ->
        depth < max_depth
        && (match Hashtbl.find_opt failed goal with
           | Some d when d <= depth -> false
           | _ ->
             let ok =
               List.exists
                 (fun f ->
                   let cf = Sop.coeff_of f.poly m in
                   if cf = 0 || (cf > 0) <> (c > 0) then false
                   else
                     let g = gcd c cf in
                     let lam = abs cf / g and k = abs c / g in
                     prove (depth + 1)
                       (Sop.sub (Sop.scale lam goal) (Sop.scale k f.poly)))
                 (Hashtbl.find_all index m)
             in
             if not ok then Hashtbl.replace failed goal depth;
             ok)
  in
  prove 0

let prove_nonneg ?admit env goal = prover ?admit env goal

(* Bounded pairwise closure. Crucially monotone: direct facts are never
   evicted, existing derived facts are kept, and pair enumeration follows
   insertion order, so adding a direct fact only appends new combinations
   after the previously derived prefix.

   Only pairs that share a monomial can combine, so each fact meets its
   partners through a monomial -> fact-index table, in the (i, j) order of
   a full enumeration. A pair of the prefix an earlier refine of this
   environment already paired adds nothing (its results are all in
   [seen]), so only pairs with a newer fact are combined, and none once
   [derived_cap] is reached. *)
let refine env =
  let n = env.ndirect in
  let count = ref (List.length env.derived) in
  if n = env.paired || !count >= derived_cap then { env with paired = n }
  else begin
    let direct = Array.of_list (direct env) in
    let derived = ref (List.rev env.derived) in
    (* Hash-set dedup: [Sop.t] normal form makes structural equality
       semantic equality, so polymorphic hashing agrees with [Sop.equal]. *)
    let seen = Hashtbl.create 64 in
    Array.iter (fun f -> Hashtbl.replace seen (f.poly, f.scopes) ()) direct;
    List.iter (fun f -> Hashtbl.replace seen (f.poly, f.scopes) ()) !derived;
    let add_derived poly scopes =
      if !count < derived_cap && not (Hashtbl.mem seen (poly, scopes)) then begin
        Hashtbl.replace seen (poly, scopes) ();
        derived := { poly; scopes } :: !derived;
        incr count
      end
    in
    let combine f1 f2 =
      (* For each monomial where the two facts carry opposite-sign
         coefficients, the positive combination lam2*f1 + lam1*f2 >= 0
         eliminates it. *)
      List.iter
        (fun (m, c1) ->
          let c2 = Sop.coeff_of f2.poly m in
          if c2 <> 0 && (c1 > 0) <> (c2 > 0) then begin
            let g = gcd c1 c2 in
            let combined =
              Sop.add
                (Sop.scale (abs c2 / g) f1.poly)
                (Sop.scale (abs c1 / g) f2.poly)
            in
            if (not (Sop.too_big combined)) && not (Sop.is_const combined)
            then
              add_derived combined
                (List.sort_uniq Int.compare (f1.scopes @ f2.scopes))
          end)
        (Sop.terms f1.poly)
    in
    (* monomial -> indices of the tame facts carrying it, ascending *)
    let index = Hashtbl.create 64 in
    for j = n - 1 downto 0 do
      if tame direct.(j).poly then
        List.iter
          (fun (m, _) ->
            Hashtbl.replace index m (j :: Option.value ~default:[] (Hashtbl.find_opt index m)))
          (Sop.terms direct.(j).poly)
    done;
    let i = ref 0 in
    while !i < n && !count < derived_cap do
      let f1 = direct.(!i) in
      if tame f1.poly then begin
        let lo = max (!i + 1) env.paired in
        List.concat_map
          (fun (m, _) -> List.filter (fun j -> j >= lo) (Hashtbl.find index m))
          (Sop.terms f1.poly)
        |> List.sort_uniq Int.compare
        |> List.iter (fun j -> if !count < derived_cap then combine f1 direct.(j))
      end;
      incr i
    done;
    { env with derived = List.rev !derived; paired = n }
  end

let decide ?admit env (rel : Vrp_lang.Ast.relop) a b =
  let d = Sop.sub b a in
  (* One shared prover: the four direction sub-proofs reuse the fact index
     and the failure memo. *)
  let prove = prover ?admit env in
  let lt () = prove (Sop.sub d Sop.one) (* a < b *)
  and le () = prove d (* a <= b *)
  and gt () = prove (Sop.sub (Sop.neg d) Sop.one) (* a > b *)
  and ge () = prove (Sop.neg d) (* a >= b *) in
  match rel with
  | Vrp_lang.Ast.Lt -> if lt () then Some true else if ge () then Some false else None
  | Vrp_lang.Ast.Le -> if le () then Some true else if gt () then Some false else None
  | Vrp_lang.Ast.Gt -> if gt () then Some true else if le () then Some false else None
  | Vrp_lang.Ast.Ge -> if ge () then Some true else if lt () then Some false else None
  | Vrp_lang.Ast.Eq ->
    if le () && ge () then Some true
    else if lt () || gt () then Some false
    else None
  | Vrp_lang.Ast.Ne ->
    if lt () || gt () then Some true
    else if le () && ge () then Some false
    else None

let to_string env =
  let fact f =
    let s = Printf.sprintf "%s >= 0" (Sop.to_string f.poly) in
    match f.scopes with
    | [] -> s
    | bs -> Printf.sprintf "%s @[%s]" s (String.concat "," (List.map string_of_int bs))
  in
  String.concat "; " (List.map fact (direct env @ env.derived))
