(* Sum-of-products terms in canonical normal form. See sop.mli. *)

module Var = Vrp_ir.Var

(* A monomial is a sorted list of variables (a variable appears once per
   power, so [x; x; y] is x²y). Monomials are ordered by degree first so
   [leading] prefers the structurally simplest monomial to eliminate. *)
type monomial = Var.t list

let monomial_compare (a : monomial) (b : monomial) =
  let la = List.length a and lb = List.length b in
  if la <> lb then Int.compare la lb else List.compare Var.compare a b

type t = {
  terms : (monomial * int) list;  (* sorted by monomial_compare, coeffs <> 0 *)
  const : int;
}

let max_degree = 3
let max_terms = 12

let zero = { terms = []; const = 0 }
let one = { terms = []; const = 1 }
let const c = { terms = []; const = c }
let of_var v = { terms = [ ([ v ], 1) ]; const = 0 }

let const_value t = match t.terms with [] -> Some t.const | _ -> None
let const_part t = t.const
let is_const t = t.terms = []

(* Merge two sorted term lists, summing coefficients and dropping zeros. *)
let merge_terms ta tb =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (ma, ca) :: ra, (mb, cb) :: rb -> (
      match monomial_compare ma mb with
      | 0 ->
        let c = ca + cb in
        if c = 0 then go ra rb else (ma, c) :: go ra rb
      | n when n < 0 -> (ma, ca) :: go ra b
      | _ -> (mb, cb) :: go a rb)
  in
  go ta tb

let add a b = { terms = merge_terms a.terms b.terms; const = a.const + b.const }

let neg a =
  { terms = List.map (fun (m, c) -> (m, -c)) a.terms; const = -a.const }

let sub a b = add a (neg b)

let scale k a =
  if k = 0 then zero
  else { terms = List.map (fun (m, c) -> (m, k * c)) a.terms; const = k * a.const }

let too_big t =
  abs t.const > Sym.limit || List.exists (fun (_, c) -> abs c > Sym.limit) t.terms

(* Overflow-checked coefficient product: a wrapped coefficient would make
   the prover silently unsound, so bail instead. *)
let checked_mul a b =
  if a = 0 || b = 0 then Some 0
  else
    let p = a * b in
    if p / b = a && abs p <= Sym.limit then Some p else None

let mul a b =
  let merge_monomial (ma : monomial) (mb : monomial) =
    List.sort Var.compare (ma @ mb)
  in
  (* A zero coefficient must never enter a term list: [merge_terms] only
     drops zeros produced by summation at equal keys, so an explicit [0*m]
     entry would survive normalisation and break structural equality. *)
  let term1 m c = if c = 0 then zero else { terms = [ (m, c) ]; const = 0 } in
  let exception Overflow in
  try
    let product = ref zero in
    List.iter
      (fun (ma, ca) ->
        List.iter
          (fun (mb, cb) ->
            match checked_mul ca cb with
            | None -> raise Overflow
            | Some c -> product := add !product (term1 (merge_monomial ma mb) c))
          b.terms)
      a.terms;
    let cross cst terms =
      List.fold_left
        (fun acc (m, c) ->
          match checked_mul cst c with
          | None -> raise Overflow
          | Some c' -> add acc (term1 m c'))
        zero terms
    in
    let a0b = cross a.const b.terms in
    let b0a = cross b.const a.terms in
    let c0 =
      match checked_mul a.const b.const with
      | None -> raise Overflow
      | Some c -> c
    in
    let result = add (add !product (add a0b b0a)) (const c0) in
    let degree_ok =
      List.for_all (fun (m, _) -> List.length m <= max_degree) result.terms
    in
    if degree_ok && List.length result.terms <= max_terms && not (too_big result)
    then Some result
    else None
  with Overflow -> None

let cmp a b =
  let d = sub a b in
  match d.terms with [] -> Some (Int.compare d.const 0) | _ -> None

let compare a b =
  let c = List.compare (fun (ma, ca) (mb, cb) ->
      let c = monomial_compare ma mb in
      if c <> 0 then c else Int.compare ca cb)
      a.terms b.terms
  in
  if c <> 0 then c else Int.compare a.const b.const

let equal a b = compare a b = 0

let eval ~env t =
  List.fold_left
    (fun acc (m, c) -> acc + (c * List.fold_left (fun p v -> p * env v) 1 m))
    t.const t.terms

let vars t =
  List.concat_map fst t.terms |> List.sort_uniq Var.compare

let terms t = t.terms
let leading t = match t.terms with [] -> None | (m, c) :: _ -> Some (m, c)

let coeff_of t m =
  match List.find_opt (fun (m', _) -> monomial_compare m m' = 0) t.terms with
  | Some (_, c) -> c
  | None -> 0

let to_string t =
  let mono (m, c) =
    let vs = String.concat "*" (List.map Var.to_string m) in
    if c = 1 then vs else Printf.sprintf "%d*%s" c vs
  in
  match t.terms with
  | [] -> string_of_int t.const
  | ts ->
    let body = String.concat " + " (List.map mono ts) in
    if t.const = 0 then body else Printf.sprintf "%s + %d" body t.const
