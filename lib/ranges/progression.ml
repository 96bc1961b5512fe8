(** Exact primitives on finite arithmetic progressions.

    A progression [(lo, hi, stride)] denotes [{lo, lo+stride, ..., hi}], with
    [stride = 0] iff [lo = hi]. These are the numeric skeletons of the
    paper's ranges; all probability computations reduce to counting over
    them. Everything here is exact integer mathematics except the
    probability of an order comparison between two very large progressions,
    which falls back to a continuous-uniform closed form (error
    O(1/min(n_a, n_b))). *)

type t = { lo : int; hi : int; stride : int }

(** Normalising constructor: clamps [hi] down onto the progression. *)
let make lo hi stride =
  if hi < lo then invalid_arg "Progression.make: hi < lo"
  else if lo = hi || stride = 0 then { lo; hi = lo; stride = 0 }
  else begin
    let hi = lo + ((hi - lo) / stride * stride) in
    if lo = hi then { lo; hi = lo; stride = 0 } else { lo; hi; stride }
  end

let singleton n = { lo = n; hi = n; stride = 0 }

let count t = if t.stride = 0 then 1 else ((t.hi - t.lo) / t.stride) + 1

let is_singleton t = t.stride = 0

let mem x t =
  x >= t.lo && x <= t.hi && (t.stride = 0 || (x - t.lo) mod t.stride = 0)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(** gcd treating 0 as identity, so strides combine correctly. *)
let gcd_stride a b = if a = 0 then abs b else if b = 0 then abs a else gcd a b

(** Number of elements of [t] strictly below [x]. *)
let count_below t x =
  if x <= t.lo then 0
  else if x > t.hi then count t
  else if t.stride = 0 then if t.lo < x then 1 else 0
  else ((x - 1 - t.lo) / t.stride) + 1

(** Number of elements of [t] ≤ [x]. *)
let count_at_most t x = count_below t (x + 1)

(* Extended gcd: returns (g, x, y) with a*x + b*y = g. *)
let rec egcd a b = if b = 0 then (a, 1, 0) else begin
    let g, x, y = egcd b (a mod b) in
    (g, y, x - (a / b * y))
  end

(** Number of common elements of two progressions (CRT intersection). *)
let count_common a b =
  Counters.tick ();
  if a.hi < b.lo || b.hi < a.lo then 0
  else if is_singleton a then if mem a.lo b then 1 else 0
  else if is_singleton b then if mem b.lo a then 1 else 0
  else begin
    (* Solve lo_a + i*s_a = lo_b + j*s_b over the overlap window. *)
    let g, u, _v = egcd a.stride b.stride in
    let diff = b.lo - a.lo in
    if diff mod g <> 0 then 0
    else begin
      let lcm = a.stride / g * b.stride in
      (* One common point: x = a.lo + a.stride * (u * diff / g), then reduce
         modulo lcm into the overlap window. *)
      let t0 = diff / g * u in
      let step_count = lcm / a.stride in
      (* value = a.lo + a.stride * (t0 mod step_count), normalised positive *)
      let tmod = ((t0 mod step_count) + step_count) mod step_count in
      let x0 = a.lo + (a.stride * tmod) in
      let win_lo = max a.lo b.lo and win_hi = min a.hi b.hi in
      if win_hi < win_lo then 0
      else begin
        (* First common value >= win_lo. *)
        let first =
          if x0 >= win_lo then x0 - ((x0 - win_lo) / lcm * lcm)
          else x0 + ((win_lo - x0 + lcm - 1) / lcm * lcm)
        in
        (* [first] is the smallest value >= win_lo congruent to x0 mod lcm. *)
        let first = if first < win_lo then first + lcm else first in
        if first > win_hi then 0 else ((win_hi - first) / lcm) + 1
      end
    end
  end

(** The intersection progression itself (same CRT walk as {!count_common},
    keeping the witnesses): common elements form a progression with stride
    lcm of the two strides. *)
let inter a b =
  Counters.tick ();
  if a.hi < b.lo || b.hi < a.lo then None
  else if is_singleton a then if mem a.lo b then Some a else None
  else if is_singleton b then if mem b.lo a then Some b else None
  else begin
    let g, u, _v = egcd a.stride b.stride in
    let diff = b.lo - a.lo in
    if diff mod g <> 0 then None
    else begin
      let lcm = a.stride / g * b.stride in
      let t0 = diff / g * u in
      let step_count = lcm / a.stride in
      let tmod = ((t0 mod step_count) + step_count) mod step_count in
      let x0 = a.lo + (a.stride * tmod) in
      let win_lo = max a.lo b.lo and win_hi = min a.hi b.hi in
      if win_hi < win_lo then None
      else begin
        let first =
          if x0 >= win_lo then x0 - ((x0 - win_lo) / lcm * lcm)
          else x0 + ((win_lo - x0 + lcm - 1) / lcm * lcm)
        in
        let first = if first < win_lo then first + lcm else first in
        if first > win_hi then None else Some (make first win_hi lcm)
      end
    end
  end

(** Exact P(u = v) for independent uniform draws u ∈ a, v ∈ b. *)
let prob_eq a b =
  let common = count_common a b in
  float_of_int common /. (float_of_int (count a) *. float_of_int (count b))

(* Continuous approximation of P(U < V), U ~ Uniform[a1,b1], V ~ Uniform[a2,b2].
   P = (1/L2) * integral over v in [a2,b2] of F_U(v), F_U(v) = clamp((v-a1)/L1). *)
let prob_lt_continuous a b =
  let a1 = float_of_int a.lo and b1 = float_of_int a.hi in
  let a2 = float_of_int b.lo and b2 = float_of_int b.hi in
  let l1 = b1 -. a1 and l2 = b2 -. a2 in
  if l2 <= 0.0 then (if a2 >= b1 then 1.0 else if a2 <= a1 then 0.0 else (a2 -. a1) /. l1)
  else begin
    (* Integral of F_U over [a2,b2], split at a1 and b1. *)
    let seg_lo = Float.max a2 a1 and seg_hi = Float.min b2 b1 in
    let linear_part =
      if seg_hi > seg_lo && l1 > 0.0 then
        ((seg_hi -. a1) ** 2.0 -. (seg_lo -. a1) ** 2.0) /. (2.0 *. l1)
      else 0.0
    in
    let ones_part = Float.max 0.0 (b2 -. Float.max a2 b1) in
    let step_part =
      (* degenerate U (l1 = 0): F_U is a step at a1 *)
      if l1 > 0.0 then 0.0 else Float.max 0.0 (Float.min b2 b1 -. Float.max a2 a1)
    in
    Vrp_util.Stats.clamp ~lo:0.0 ~hi:1.0 ((linear_part +. ones_part +. step_part) /. l2)
  end

(** Exactness cap: iterate the smaller progression when it has at most this
    many elements; otherwise use the continuous approximation. *)
let exact_cap = 4096

(** P(u < v) for independent uniform draws. *)
let prob_lt a b =
  Counters.tick ();
  if a.hi < b.lo then 1.0
  else if b.hi <= a.lo then 0.0
  else begin
    let na = count a and nb = count b in
    if min na nb <= exact_cap then begin
      let total = ref 0 in
      if nb <= na then begin
        (* sum over v of |{u in a : u < v}| *)
        let v = ref b.lo in
        for _ = 1 to nb do
          total := !total + count_below a !v;
          v := !v + b.stride
        done
      end
      else begin
        (* sum over u of |{v in b : v > u}| *)
        let u = ref a.lo in
        for _ = 1 to na do
          total := !total + (count b - count_at_most b !u);
          u := !u + a.stride
        done
      end;
      float_of_int !total /. (float_of_int na *. float_of_int nb)
    end
    else prob_lt_continuous a b
  end

(** P(u rel v) for all six comparison operators. *)
let prob_rel (rel : Vrp_lang.Ast.relop) a b =
  let open Vrp_lang.Ast in
  match rel with
  | Eq -> prob_eq a b
  | Ne -> 1.0 -. prob_eq a b
  | Lt -> prob_lt a b
  | Le -> Vrp_util.Stats.clamp ~lo:0.0 ~hi:1.0 (prob_lt a b +. prob_eq a b)
  | Gt -> Vrp_util.Stats.clamp ~lo:0.0 ~hi:1.0 (1.0 -. prob_lt a b -. prob_eq a b)
  | Ge -> 1.0 -. prob_lt a b

