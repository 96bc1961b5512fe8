(** Symbolic bounds: [SSA variable + constant] (paper §3.4).

    "each number in a range definition [may] be defined as:
    {e SSA Variable operator Constant}. For numeric values the variable
    component is NULL, and for purely symbolic values the constant component
    is +0." Allowing a single variable plus an offset keeps range operations
    and comparisons simple while capturing the common symbolic cases (loop
    bounds like [n - 1], copies, [x + 2]). *)

module Var = Vrp_ir.Var

type t = { base : Var.t option; off : int }

let num n = { base = None; off = n }
let of_var ?(off = 0) v = { base = Some v; off }

let is_numeric s = s.base = None

let equal a b =
  a.off = b.off
  &&
  match (a.base, b.base) with
  | None, None -> true
  | Some va, Some vb -> Var.equal va vb
  | None, Some _ | Some _, None -> false

let same_base a b =
  match (a.base, b.base) with
  | None, None -> true
  | Some va, Some vb -> Var.equal va vb
  | None, Some _ | Some _, None -> false

let add_const s n = { s with off = s.off + n }

let to_string s =
  match s.base with
  | None -> string_of_int s.off
  | Some v ->
    if s.off = 0 then Var.to_string v
    else if s.off > 0 then Printf.sprintf "%s+%d" (Var.to_string v) s.off
    else Printf.sprintf "%s%d" (Var.to_string v) s.off

(** Offsets beyond this magnitude are treated as unrepresentable; the caller
    widens to ⊥. Keeps all internal arithmetic far from [max_int]. *)
let limit = 1 lsl 40

let too_big s = abs s.off > limit

(* --- Partial arithmetic (None = not representable as [var + const]) --- *)

let add a b =
  match (a.base, b.base) with
  | None, None -> Some { base = None; off = a.off + b.off }
  | Some _, None -> Some { a with off = a.off + b.off }
  | None, Some _ -> Some { b with off = a.off + b.off }
  | Some _, Some _ -> None

let sub a b =
  match (a.base, b.base) with
  | None, None -> Some { base = None; off = a.off - b.off }
  | Some _, None -> Some { a with off = a.off - b.off }
  | Some va, Some vb when Var.equal va vb -> Some { base = None; off = a.off - b.off }
  | (None | Some _), Some _ -> None

(* --- Partial comparison (None = undecidable without the base's value) --- *)

(* Offsets beyond [limit] belong to bounds the caller is about to widen to ⊥;
   refusing to order them keeps every decided comparison inside the window
   where the rest of the range arithmetic is exact. *)
let comparable a b = same_base a b && (not (too_big a)) && not (too_big b)

let cmp a b : int option = if comparable a b then Some (Int.compare a.off b.off) else None

let le a b = match cmp a b with Some c -> Some (c <= 0) | None -> None
let lt a b = match cmp a b with Some c -> Some (c < 0) | None -> None
let ge a b = match cmp a b with Some c -> Some (c >= 0) | None -> None
let gt a b = match cmp a b with Some c -> Some (c > 0) | None -> None

let min_sym a b = Option.map (fun c -> if c <= 0 then a else b) (cmp a b)
let max_sym a b = Option.map (fun c -> if c >= 0 then a else b) (cmp a b)
