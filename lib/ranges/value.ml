(** The value-range lattice and its operation algebra (paper §3.4–§3.5).

    A lattice value is ⊤ (undetermined), ⊥ (statically unpredictable), or a
    set of at most {!Config.max_ranges} weighted ranges whose probabilities
    sum to 1. The algebra implements:

    - evaluation of every IR operator over range sets (the extension of
      constant propagation's expression evaluation);
    - weighted merging for φ-functions, with compaction back to the range
      budget (the paper's give-up point);
    - probabilistic comparison, from which branch probabilities are read;
    - narrowing by branch assertions;
    - substitution of symbolic bases by their numeric values.

    Soundness contract (checked by property tests): if concrete inputs are
    members of the input range sets then the concrete result is a member of
    the result range set — probabilities are the heuristic layer, membership
    is not. Whenever a result is not exactly representable the operation
    widens (larger bounds, finer stride) or returns ⊥; it never drops
    possible values. *)

module Var = Vrp_ir.Var
module P = Progression

type t = Top | Ranges of Srange.t list | Bottom

let top = Top
let bottom = Bottom

let const_int n = Ranges [ Srange.numeric ~p:1.0 (P.singleton n) ]

(** The pure-copy value: a symbolic singleton [1[v:v:0]] (paper §6: a
    variable whose range is a single symbolic range of another variable is a
    copy of it). *)
let copy_of_var v = Ranges [ Srange.singleton ~p:1.0 (Sym.of_var v) ]

let of_ranges rs = Ranges rs

let is_bottom = function Bottom -> true | Top | Ranges _ -> false
let is_top = function Top -> true | Bottom | Ranges _ -> false

(** Total probability mass (~1 after normalisation). *)
let mass = function
  | Top | Bottom -> 0.0
  | Ranges rs -> List.fold_left (fun acc (r : Srange.t) -> acc +. r.p) 0.0 rs

let as_constant = function
  | Ranges [ r ] when Srange.is_numeric r && Srange.is_singleton r -> Some r.lo.Sym.off
  | Top | Bottom | Ranges _ -> None

let as_copy = function
  | Ranges [ r ] when Srange.is_singleton r && r.lo.Sym.off = 0 -> r.lo.Sym.base
  | Top | Bottom | Ranges _ -> None

let equal a b =
  match (a, b) with
  | Top, Top | Bottom, Bottom -> true
  | Ranges ra, Ranges rb ->
    List.length ra = List.length rb
    && List.for_all2
         (fun (x : Srange.t) (y : Srange.t) ->
           Srange.same_shape x y && Float.abs (x.p -. y.p) < Config.eps)
         ra rb
  | (Top | Bottom | Ranges _), _ -> false

(* --- Normalisation and compaction --- *)

(* Widened hull of two ranges; None when the endpoints are not comparable. *)
let hull (a : Srange.t) (b : Srange.t) : Srange.t option =
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

(* Member count of a range, or -1 when uncountable. *)
let count_or_neg (r : Srange.t) = match Srange.count r with Some c -> c | None -> -1

(* Cost of merging [a] and [b] — the spurious values [hull a b] admits —
   computed without building the hull. [ca]/[cb] are the inputs'
   {!count_or_neg}. [nan] where [hull] is [None] (unmergeable); ∞ when the
   hull or an input is uncountable, which makes such a merge a last
   resort. *)
let hull_cost (a : Srange.t) ~ca (b : Srange.t) ~cb : float =
  if not (Sym.comparable a.lo b.lo && Sym.comparable a.hi b.hi) then Float.nan
  else begin
    let lo = if a.lo.Sym.off <= b.lo.Sym.off then a.lo else b.lo in
    let hi = if a.hi.Sym.off >= b.hi.Sym.off then a.hi else b.hi in
    if not (Sym.same_base lo hi) then infinity (* a mixed hull is never countable *)
    else if hi.Sym.off < lo.Sym.off then Float.nan (* [Srange.make] finds it empty *)
    else if ca < 0 || cb < 0 then infinity
    else begin
      let cm =
        if lo.Sym.off = hi.Sym.off then 1
        else begin
          let stride =
            P.gcd_stride (P.gcd_stride a.stride b.stride) (abs (a.lo.Sym.off - b.lo.Sym.off))
          in
          ((hi.Sym.off - lo.Sym.off) / max stride 1) + 1
        end
      in
      float_of_int (cm - ca - cb)
    end
  end

(* Merge the cheapest mergeable pair of [rs] (sorted by [Srange.compare_sr])
   until [budget] ranges remain; [None] when no pair is mergeable. A pair's
   cost never changes while both survive, so the cost matrix is kept across
   steps and only the merged range's row is recomputed. Two rules decide
   each step, as a full rescan and re-sort would: the lexicographically
   first (i, j) with the lowest cost wins, a first mergeable pair even at ∞;
   and the merged range goes where a stable sort puts it, before any
   survivor that compares equal to it. *)
let compact budget (rs : Srange.t array) : Srange.t list option =
  let n = Array.length rs in
  let counts = Array.map count_or_neg rs in
  let cost = Array.make (n * n) Float.nan in
  let set_cost s t =
    let c = hull_cost rs.(s) ~ca:counts.(s) rs.(t) ~cb:counts.(t) in
    cost.((s * n) + t) <- c;
    cost.((t * n) + s) <- c
  in
  for s = 0 to n - 1 do
    for t = s + 1 to n - 1 do
      set_cost s t
    done
  done;
  (* [order.(0 .. m-1)]: the slots of the [m] ranges left, in sorted order *)
  let order = Array.init n Fun.id in
  let rec step m =
    if m <= budget then Some (List.init m (fun k -> rs.(order.(k))))
    else begin
      let bi = ref (-1) and bj = ref (-1) and best = ref infinity in
      for i = 0 to m - 1 do
        let row = order.(i) * n in
        for j = i + 1 to m - 1 do
          let c = cost.(row + order.(j)) in
          if (not (Float.is_nan c)) && (!bi < 0 || c < !best) then begin
            bi := i;
            bj := j;
            best := c
          end
        done
      done;
      if !bi < 0 then None
      else begin
        let si = order.(!bi) in
        (match hull rs.(si) rs.(order.(!bj)) with
        | Some merged ->
          rs.(si) <- merged;
          counts.(si) <- count_or_neg merged
        | None -> assert false (* [hull_cost] is not [nan] exactly when [hull] is [Some] *));
        let survivors = ref 0 in
        for k = 0 to m - 1 do
          if k <> !bi && k <> !bj then begin
            order.(!survivors) <- order.(k);
            incr survivors
          end
        done;
        let pos = ref 0 in
        while !pos < !survivors && Srange.compare_sr rs.(si) rs.(order.(!pos)) > 0 do
          incr pos
        done;
        Array.blit order !pos order (!pos + 1) (!survivors - !pos);
        order.(!pos) <- si;
        for k = 0 to !survivors do
          if k <> !pos then set_cost si order.(k)
        done;
        step (!survivors + 1)
      end
    end
  in
  step n

(** Normalise a weighted range list: drop empty mass, coalesce identical
    shapes, rescale mass to 1, and compact down to the range budget by
    repeatedly merging the cheapest mergeable pair. ⊥ when compaction is
    impossible (too many unrelated symbolic shapes) or bounds overflow the
    representable magnitude — the paper's give-up point. *)
let normalize (rs : Srange.t list) : t =
  (* Zero-mass entries are gone; tiny-but-positive masses must be KEPT —
     dropping them would silently remove possible values (unsound) and can
     freeze a loop-carried φ at a false fixpoint. They disappear soundly by
     being hulled into neighbours during compaction. *)
  let rs = List.filter (fun (r : Srange.t) -> r.Srange.p > 0.0) rs in
  if rs = [] then Bottom
  else if List.exists Srange.too_big rs then Bottom
  else begin
    let rs = List.sort Srange.compare_sr rs in
    let rec coalesce = function
      | a :: b :: rest when Srange.same_shape a b ->
        coalesce ({ a with Srange.p = a.Srange.p +. b.Srange.p } :: rest)
      | a :: rest -> a :: coalesce rest
      | [] -> []
    in
    let rs = coalesce rs in
    let budget = !Config.max_ranges in
    let compacted =
      if List.compare_length_with rs budget <= 0 then Some rs
      else compact budget (Array.of_list rs)
    in
    match compacted with
    | None -> Bottom
    | Some rs ->
      let total = List.fold_left (fun acc (r : Srange.t) -> acc +. r.Srange.p) 0.0 rs in
      if total < Config.eps then Bottom
      else if List.exists Srange.too_big rs then Bottom
      else
        Ranges (List.map (fun (r : Srange.t) -> { r with Srange.p = r.Srange.p /. total }) rs)
  end

(* --- Pairwise arithmetic --- *)

(* Each pair operation yields [Some range] or [None] = not representable. *)

let pair_add (a : Srange.t) (b : Srange.t) : Srange.t option =
  Counters.tick ();
  match (Sym.add a.lo b.lo, Sym.add a.hi b.hi) with
  | Some lo, Some hi ->
    let stride = P.gcd_stride a.stride b.stride in
    Srange.make ~p:(a.p *. b.p) ~lo ~hi ~stride
  | (None | Some _), _ -> None

let pair_sub (a : Srange.t) (b : Srange.t) : Srange.t option =
  Counters.tick ();
  match (Sym.sub a.lo b.hi, Sym.sub a.hi b.lo) with
  | Some lo, Some hi ->
    let stride = P.gcd_stride a.stride b.stride in
    Srange.make ~p:(a.p *. b.p) ~lo ~hi ~stride
  | (None | Some _), _ -> None

(* Fully-numeric view of a range, when available. *)
let as_numeric (r : Srange.t) : P.t option =
  match Srange.kind r with Srange.Numeric -> Srange.prog r | _ -> None

let num_range ~p (lo : int) (hi : int) (stride : int) : Srange.t option =
  if abs lo > Sym.limit || abs hi > Sym.limit then None
  else Srange.make ~p ~lo:(Sym.num lo) ~hi:(Sym.num hi) ~stride

let pair_mul (a : Srange.t) (b : Srange.t) : Srange.t option =
  Counters.tick ();
  match (as_numeric a, as_numeric b) with
  | Some pa, Some pb ->
    let c1 = pa.P.lo * pb.P.lo
    and c2 = pa.P.lo * pb.P.hi
    and c3 = pa.P.hi * pb.P.lo
    and c4 = pa.P.hi * pb.P.hi in
    let lo = min (min c1 c2) (min c3 c4) and hi = max (max c1 c2) (max c3 c4) in
    (* every product ≡ lo_a*lo_b modulo g *)
    let g =
      P.gcd_stride
        (P.gcd_stride (pa.P.stride * pb.P.lo) (pb.P.stride * pa.P.lo))
        (pa.P.stride * pb.P.stride)
    in
    num_range ~p:(a.p *. b.p) lo hi (abs g)
  | _ ->
    (* symbolic × 1 and × 0 are still representable *)
    let singleton_value (r : Srange.t) =
      match as_numeric r with
      | Some pr when P.is_singleton pr -> Some pr.P.lo
      | _ -> None
    in
    (match (singleton_value a, singleton_value b) with
    | _, Some 1 -> Some { a with Srange.p = a.p *. b.p }
    | Some 1, _ -> Some { b with Srange.p = a.p *. b.p }
    | _, Some 0 | Some 0, _ ->
      Some (Srange.numeric ~p:(a.p *. b.p) (P.singleton 0))
    | _ -> None)

let pair_div (a : Srange.t) (b : Srange.t) : Srange.t option =
  Counters.tick ();
  match (as_numeric a, as_numeric b) with
  | Some pa, Some pb ->
    (* The corner rule needs a same-sign divisor interval; a straddling
       divisor (even one whose progression skips 0) admits ±1 and makes the
       corners non-extremal. *)
    if pb.P.lo <= 0 && pb.P.hi >= 0 then None
    else begin
      let q1 = pa.P.lo / pb.P.lo
      and q2 = pa.P.lo / pb.P.hi
      and q3 = pa.P.hi / pb.P.lo
      and q4 = pa.P.hi / pb.P.hi in
      let lo = min (min q1 q2) (min q3 q4) and hi = max (max q1 q2) (max q3 q4) in
      num_range ~p:(a.p *. b.p) lo hi 1
    end
  | _ -> (
    match as_numeric b with
    | Some pb when P.is_singleton pb && pb.P.lo = 1 -> Some { a with Srange.p = a.p *. b.p }
    | _ -> None)

let pair_mod (a : Srange.t) (b : Srange.t) : Srange.t option =
  Counters.tick ();
  match (as_numeric a, as_numeric b) with
  | Some pa, Some pb ->
    if pb.P.lo <= 0 then None
    else if P.is_singleton pa && P.is_singleton pb then
      (* exact: OCaml's mod matches C's truncating remainder *)
      num_range ~p:(a.p *. b.p) (pa.P.lo mod pb.P.lo) (pa.P.lo mod pb.P.lo) 0
    else if pa.P.lo >= 0 then begin
      if P.is_singleton pb then begin
        let c = pb.P.lo in
        if pa.P.hi < c then Some { a with Srange.p = a.p *. b.p } (* identity *)
        else begin
          let g = P.gcd_stride pa.P.stride c in
          (* results ≡ lo_a (mod g), within [0, min(c-1, hi_a)] *)
          let residue = pa.P.lo mod g in
          let bound = min (c - 1) pa.P.hi in
          if residue > bound then num_range ~p:(a.p *. b.p) residue residue 0
          else num_range ~p:(a.p *. b.p) residue bound (max g 1)
        end
      end
      else begin
        let bound = min (pb.P.hi - 1) pa.P.hi in
        num_range ~p:(a.p *. b.p) 0 (max bound 0) 1
      end
    end
    else begin
      (* negative dividends: C-style remainder keeps the dividend's sign *)
      let m = pb.P.hi - 1 in
      num_range ~p:(a.p *. b.p) (max (-m) pa.P.lo) (min m (max pa.P.hi m)) 1
    end
  | _ -> None

let next_pow2_minus1 n =
  let rec go acc = if acc >= n then acc else go ((acc * 2) + 1) in
  go 0

let pair_bitop (op : Vrp_lang.Ast.binop) (a : Srange.t) (b : Srange.t) : Srange.t option =
  Counters.tick ();
  match (as_numeric a, as_numeric b) with
  | Some pa, Some pb ->
    let p = a.p *. b.p in
    if P.is_singleton pa && P.is_singleton pb then begin
      let x = pa.P.lo and y = pb.P.lo in
      let v =
        match op with
        | Vrp_lang.Ast.Band -> x land y
        | Vrp_lang.Ast.Bor -> x lor y
        | Vrp_lang.Ast.Bxor -> x lxor y
        | _ -> assert false
      in
      num_range ~p v v 0
    end
    else if pa.P.lo >= 0 && pb.P.lo >= 0 then begin
      match op with
      | Vrp_lang.Ast.Band -> num_range ~p 0 (min pa.P.hi pb.P.hi) 1
      | Vrp_lang.Ast.Bor ->
        num_range ~p (max pa.P.lo pb.P.lo) (next_pow2_minus1 (max pa.P.hi pb.P.hi)) 1
      | Vrp_lang.Ast.Bxor -> num_range ~p 0 (next_pow2_minus1 (max pa.P.hi pb.P.hi)) 1
      | _ -> assert false
    end
    else None
  | _ -> None

let pair_shift (op : Vrp_lang.Ast.binop) (a : Srange.t) (b : Srange.t) : Srange.t option =
  Counters.tick ();
  match (as_numeric a, as_numeric b) with
  | Some pa, Some pb when P.is_singleton pb ->
    let k = pb.P.lo in
    if k < 0 || k > 40 then None
    else begin
      let p = a.p *. b.p in
      match op with
      | Vrp_lang.Ast.Shl -> num_range ~p (pa.P.lo lsl k) (pa.P.hi lsl k) (pa.P.stride lsl k)
      | Vrp_lang.Ast.Shr -> num_range ~p (pa.P.lo asr k) (pa.P.hi asr k) 1
      | _ -> assert false
    end
  | _ -> None

let pair_op (op : Vrp_lang.Ast.binop) a b : Srange.t option =
  match op with
  | Vrp_lang.Ast.Add -> pair_add a b
  | Vrp_lang.Ast.Sub -> pair_sub a b
  | Vrp_lang.Ast.Mul -> pair_mul a b
  | Vrp_lang.Ast.Div -> pair_div a b
  | Vrp_lang.Ast.Mod -> pair_mod a b
  | Vrp_lang.Ast.Band | Vrp_lang.Ast.Bor | Vrp_lang.Ast.Bxor -> pair_bitop op a b
  | Vrp_lang.Ast.Shl | Vrp_lang.Ast.Shr -> pair_shift op a b

(** Evaluate a binary operator over two lattice values. *)
let binop (op : Vrp_lang.Ast.binop) (a : t) (b : t) : t =
  match (a, b) with
  | Bottom, _ | _, Bottom -> Bottom
  | Top, _ | _, Top -> Top
  | Ranges ra, Ranges rb ->
    let exception Unrepresentable in
    (try
       let results =
         List.concat_map
           (fun x ->
             List.map
               (fun y ->
                 match pair_op op x y with
                 | Some r -> r
                 | None -> raise Unrepresentable)
               rb)
           ra
       in
       normalize results
     with Unrepresentable -> Bottom)

let unop (op : Vrp_ir.Ir.unop) (a : t) : t =
  match a with
  | Bottom -> Bottom
  | Top -> Top
  | Ranges ra ->
    let exception Unrepresentable in
    (try
       let results =
         List.map
           (fun (r : Srange.t) ->
             Counters.tick ();
             match as_numeric r with
             | None -> raise Unrepresentable
             | Some p ->
               let lo, hi =
                 match op with
                 | Vrp_ir.Ir.Neg -> (-p.P.hi, -p.P.lo)
                 | Vrp_ir.Ir.Bnot -> (-1 - p.P.hi, -1 - p.P.lo)
               in
               (match num_range ~p:r.Srange.p lo hi p.P.stride with
               | Some r -> r
               | None -> raise Unrepresentable))
           ra
       in
       normalize results
     with Unrepresentable -> Bottom)

(* --- Comparison --- *)

(* One-sided certainty for a pair of ranges: Some 1.0 / Some 0.0 when the
   predicate is decided by comparable bounds alone. *)
let pair_certain rel (x : Srange.t) (y : Srange.t) : float option =
  let open Vrp_lang.Ast in
  let sure_true =
    match rel with
    | Lt -> Sym.lt x.hi y.lo
    | Le -> Sym.le x.hi y.lo
    | Gt -> Sym.gt x.lo y.hi
    | Ge -> Sym.ge x.lo y.hi
    | Eq ->
      if
        Srange.is_singleton x && Srange.is_singleton y && Sym.equal x.lo y.lo
      then Some true
      else None
    | Ne -> (
      match (Sym.lt x.hi y.lo, Sym.gt x.lo y.hi) with
      | Some true, _ | _, Some true -> Some true
      | _ -> None)
  in
  match sure_true with
  | Some true -> Some 1.0
  | Some false | None -> (
    let negated = relop_negate rel in
    let sure_false =
      match negated with
      | Lt -> Sym.lt x.hi y.lo
      | Le -> Sym.le x.hi y.lo
      | Gt -> Sym.gt x.lo y.hi
      | Ge -> Sym.ge x.lo y.hi
      | Eq ->
        if Srange.is_singleton x && Srange.is_singleton y && Sym.equal x.lo y.lo then
          Some true
        else None
      | Ne -> (
        match (Sym.lt x.hi y.lo, Sym.gt x.lo y.hi) with
        | Some true, _ | _, Some true -> Some true
        | _ -> None)
    in
    match sure_false with Some true -> Some 0.0 | Some false | None -> None)

(* Probability that [x rel y] holds for one pair of ranges, or None if the
   pair is incomparable. *)
let pair_cmp_prob rel (x : Srange.t) (y : Srange.t) : float option =
  Counters.tick ();
  match pair_certain rel x y with
  | Some p -> Some p
  | None -> (
    (* Exact counting requires both ranges countable over a common frame:
       both numeric, or both offsets of the same base. *)
    match (Srange.kind x, Srange.kind y, Srange.prog x, Srange.prog y) with
    | Srange.Numeric, Srange.Numeric, Some px, Some py -> Some (P.prob_rel rel px py)
    | Srange.Same_base vx, Srange.Same_base vy, Some px, Some py when Var.equal vx vy ->
      Some (P.prob_rel rel px py)
    | _ -> None)

(** Probability that [a rel b] holds; [None] when the ranges are not
    comparable and the caller must fall back to heuristics. *)
let cmp_prob (rel : Vrp_lang.Ast.relop) (a : t) (b : t) : float option =
  match (a, b) with
  | (Top | Bottom), _ | _, (Top | Bottom) -> None
  | Ranges ra, Ranges rb ->
    let exception Incomparable in
    (try
       let total_mass = mass a *. mass b in
       if total_mass < Config.eps then None
       else begin
         let acc = ref 0.0 in
         List.iter
           (fun (x : Srange.t) ->
             List.iter
               (fun (y : Srange.t) ->
                 match pair_cmp_prob rel x y with
                 | Some p -> acc := !acc +. (x.p *. y.p *. p)
                 | None -> raise Incomparable)
               rb)
           ra;
         Some (Vrp_util.Stats.clamp ~lo:0.0 ~hi:1.0 (!acc /. total_mass))
       end
     with Incomparable -> None)

(** 0/1 value of a materialised comparison [x = (a rel b)]. *)
let cmp_value rel a b : t =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | (Bottom | Ranges _), _ -> (
    match cmp_prob rel a b with
    | None -> Bottom
    | Some p ->
      if p < Config.eps then const_int 0
      else if p > 1.0 -. Config.eps then const_int 1
      else
        Ranges
          [ Srange.numeric ~p:(1.0 -. p) (P.singleton 0); Srange.numeric ~p (P.singleton 1) ])

(* --- Narrowing by assertions --- *)

(* Replace [r]'s upper bound by [limit] if that provably tightens or is the
   only representable intersection; probability scaled by the kept fraction
   when countable. None = provably empty. *)
let narrow_hi (r : Srange.t) (limit : Sym.t) : Srange.t option =
  let before = Srange.count r in
  let apply hi =
    match Srange.make ~p:r.Srange.p ~lo:r.lo ~hi ~stride:r.stride with
    | None -> None
    | Some nr -> (
      match (before, Srange.count nr) with
      | Some n0, Some nk when n0 > 0 ->
        let frac = float_of_int nk /. float_of_int n0 in
        if frac < Config.eps then None
        else Some { nr with Srange.p = nr.Srange.p *. frac }
      | _ -> Some nr)
  in
  match Sym.ge limit r.hi with
  | Some true -> Some r (* already within bound *)
  | Some false -> apply limit
  | None ->
    (* Bounds not comparable: both r.hi and limit are sound upper bounds.
       Prefer the numeric one — it can decide future comparisons and makes
       ranges countable once the other side narrows too. *)
    if Sym.is_numeric limit then
      Srange.make ~p:r.Srange.p ~lo:r.lo ~hi:limit ~stride:r.stride
    else Some r

let narrow_lo (r : Srange.t) (limit : Sym.t) : Srange.t option =
  let before = Srange.count r in
  let apply lo =
    (* keep stride alignment relative to the original lo when countable *)
    let lo =
      if Sym.same_base lo r.lo && r.stride > 0 && lo.Sym.off > r.lo.Sym.off then begin
        let delta = lo.Sym.off - r.lo.Sym.off in
        let aligned = r.lo.Sym.off + ((delta + r.stride - 1) / r.stride * r.stride) in
        { lo with Sym.off = aligned }
      end
      else lo
    in
    match Srange.make ~p:r.Srange.p ~lo ~hi:r.hi ~stride:r.stride with
    | None -> None
    | Some nr -> (
      match (before, Srange.count nr) with
      | Some n0, Some nk when n0 > 0 ->
        let frac = float_of_int nk /. float_of_int n0 in
        if frac < Config.eps then None
        else Some { nr with Srange.p = nr.Srange.p *. frac }
      | _ -> Some nr)
  in
  (* Oracle-aware for the same reason as [narrow_hi]. *)
  match Sym.le limit r.lo with
  | Some true -> Some r
  | Some false -> apply limit
  | None ->
    if Sym.is_numeric limit then
      Srange.make ~p:r.Srange.p ~lo:limit ~hi:r.hi ~stride:r.stride
    else Some r

(* Narrow one range of [a] by [rel] against the loosest bounds of [b]. Each
   side of the bound is optional: only the side the predicate needs must be
   available. *)
let narrow_range rel (r : Srange.t) ~(blo : Sym.t option) ~(bhi : Sym.t option) :
    Srange.t option =
  Counters.tick ();
  let open Vrp_lang.Ast in
  match (rel, blo, bhi) with
  | Lt, _, Some bhi -> narrow_hi r (Sym.add_const bhi (-1))
  | Le, _, Some bhi -> narrow_hi r bhi
  | Gt, Some blo, _ -> narrow_lo r (Sym.add_const blo 1)
  | Ge, Some blo, _ -> narrow_lo r blo
  | Eq, Some blo, Some bhi -> Option.bind (narrow_hi r bhi) (fun r -> narrow_lo r blo)
  | Eq, None, Some bhi -> narrow_hi r bhi
  | Eq, Some blo, None -> narrow_lo r blo
  | (Lt | Le | Gt | Ge | Eq), _, _ -> Some r
  | Ne, Some blo, Some bhi ->
    if Sym.equal blo bhi then begin
      let c = blo in
      match (Sym.cmp c r.lo, Sym.cmp c r.hi, Srange.prog r) with
      | Some 0, Some 0, _ -> None (* singleton equal to the excluded point *)
      | Some cl, _, _ when cl < 0 -> Some r (* below the range *)
      | _, Some ch, _ when ch > 0 -> Some r (* above the range *)
      | Some 0, _, Some _ ->
        (* excluded point is exactly lo: step past it *)
        Option.bind
          (Srange.make ~p:r.Srange.p
             ~lo:(Sym.add_const r.lo (max r.stride 1))
             ~hi:r.hi ~stride:r.stride)
          (fun nr ->
            match (Srange.count r, Srange.count nr) with
            | Some n0, Some nk ->
              Some { nr with Srange.p = nr.Srange.p *. (float_of_int nk /. float_of_int n0) }
            | _ -> Some nr)
      | _, Some 0, Some _ ->
        Option.bind
          (Srange.make ~p:r.Srange.p ~lo:r.lo
             ~hi:(Sym.add_const r.hi (-(max r.stride 1)))
             ~stride:r.stride)
          (fun nr ->
            match (Srange.count r, Srange.count nr) with
            | Some n0, Some nk ->
              Some { nr with Srange.p = nr.Srange.p *. (float_of_int nk /. float_of_int n0) }
            | _ -> Some nr)
      | _ -> (
        (* interior point: shape unchanged, scale mass when countable *)
        match Srange.count r with
        | Some n0 when n0 > 1 && Srange.countable r ->
          Some { r with Srange.p = r.Srange.p *. (float_of_int (n0 - 1) /. float_of_int n0) }
        | _ -> Some r)
    end
    else Some r
  | Ne, _, _ -> Some r

(** [assert_narrow a rel b] refines [a] to the sub-ranges satisfying
    [a rel b]. Sound: uses the loosest bound of [b]; returns [a] unchanged
    when no information can be extracted or narrowing would empty the
    value. *)
let assert_narrow (a : t) (rel : Vrp_lang.Ast.relop) (b : t) : t =
  match (a, b) with
  | (Top | Bottom), _ | _, (Top | Bottom) -> a
  | Ranges ra, Ranges rb ->
    (* Loosest bound per side over b's ranges; a side is only available when
       b's bounds on that side are mutually comparable. *)
    let fold_bound f acc_sym =
      List.fold_left
        (fun acc (r : Srange.t) ->
          match acc with
          | None -> None
          | Some s -> f s (acc_sym r))
        (Some (acc_sym (List.hd rb)))
        (List.tl rb)
    in
    let blo = fold_bound Sym.min_sym (fun (r : Srange.t) -> r.lo) in
    let bhi = fold_bound Sym.max_sym (fun (r : Srange.t) -> r.hi) in
    let narrowed = List.filter_map (fun r -> narrow_range rel r ~blo ~bhi) ra in
    (match normalize narrowed with Bottom -> a | v -> v)

(* --- Merging at φ-functions --- *)

(** Weighted merge: [union_weighted [(w1, v1); ...]] forms the distribution
    that is [vi] with probability [wi] (weights are normalised internally).
    Any ⊥ contribution with non-zero weight makes the result ⊥; ⊤
    contributions are ignored (not-yet-known paths). *)
let union_weighted (parts : (float * t) list) : t =
  (* Weights are unnormalised frequency masses, and a deep chain of loops
     decays the mass below any fixed cutoff (five sequential loops suffice
     for [Config.eps]). A live contribution must never be dropped on weight
     alone: its members would vanish from the merge, and with every part
     dropped the φ would sit at optimistic ⊤ — both unsound. The merge is
     scale-invariant ([normalize] rescales mass to 1), so when any live
     weight sits at or below the cutoff, divide all weights by the largest
     one instead of filtering; otherwise keep the exact arithmetic path. *)
  let parts = List.filter (fun (w, _) -> w > 0.0) parts in
  let parts =
    if List.exists (fun (w, _) -> w <= Config.eps) parts then
      let wmax = List.fold_left (fun m (w, _) -> Float.max m w) 0.0 parts in
      List.map (fun (w, v) -> (w /. wmax, v)) parts
    else parts
  in
  if parts = [] then Top
  else if List.exists (fun (_, v) -> is_bottom v) parts then Bottom
  else begin
    let parts = List.filter (fun (_, v) -> not (is_top v)) parts in
    if parts = [] then Top
    else begin
      let ranges =
        List.concat_map
          (fun (w, v) ->
            match v with
            | Ranges rs -> List.map (fun (r : Srange.t) -> { r with Srange.p = r.p *. w }) rs
            | Top | Bottom -> [])
          parts
      in
      normalize ranges
    end
  end

(* --- Substitution --- *)

(* Substitute one bound: if it has a base whose value is a numeric range,
   return the loosest numeric replacement (lo-side uses the base's min,
   hi-side its max) plus the base's stride for alignment widening.
   [only_singleton] restricts substitution to exactly-known bases: a
   non-singleton base is *correlated* with ranges derived from it (a loop
   counter's range depends on its own bound), so treating the substituted
   range and the base as independent uniform draws — which probability
   queries do — would be wrong. Branch prediction therefore substitutes
   singletons only; soundness-based clients (bounds checks, aliasing) take
   the full hull. *)
let subst_bound ~(lookup : Var.t -> t) ~(only_singleton : bool) (s : Sym.t) ~(is_lo : bool)
    : (Sym.t * int) option =
  match s.Sym.base with
  | None -> Some (s, 0)
  | Some v -> (
    match lookup v with
    | Ranges [ r ]
      when only_singleton && Srange.is_numeric r && Srange.is_singleton r ->
      Some (Sym.num (r.Srange.lo.Sym.off + s.Sym.off), 0)
    | _ when only_singleton -> None
    | Ranges rs
      when List.for_all
             (fun (r : Srange.t) ->
               (if is_lo then r.lo else r.hi).Sym.base = None)
             rs ->
      (* the relevant side of every range is numeric: a one-sided hull is
         available even if the other side is symbolic *)
      let ext =
        List.fold_left
          (fun acc (r : Srange.t) ->
            let edge = if is_lo then r.lo.Sym.off else r.hi.Sym.off in
            match acc with
            | None -> Some edge
            | Some e -> Some (if is_lo then min e edge else max e edge))
          None rs
      in
      let stride =
        List.fold_left (fun acc (r : Srange.t) -> P.gcd_stride acc r.Srange.stride) 0 rs
      in
      Option.map (fun e -> (Sym.num (e + s.Sym.off), stride)) ext
    | _ -> None)

(** Resolve symbolic bounds against current variable values: every bound
    whose base has a known numeric value is replaced by its numeric hull.
    Used before branch-probability queries so that e.g. [[0 : n : 1]]
    becomes countable once [n]'s range is known. *)
let subst ?(only_singleton = false) (a : t) ~(lookup : Var.t -> t) : t =
  match a with
  | Top | Bottom -> a
  | Ranges ra ->
    let changed = ref false in
    let rs =
      List.map
        (fun (r : Srange.t) ->
          match
            ( subst_bound ~lookup ~only_singleton r.lo ~is_lo:true,
              subst_bound ~lookup ~only_singleton r.hi ~is_lo:false )
          with
          | Some (lo, slo), Some (hi, shi)
            when not (Sym.equal lo r.lo && Sym.equal hi r.hi) -> (
            changed := true;
            let stride = P.gcd_stride r.stride (P.gcd_stride slo shi) in
            match Srange.make ~p:r.Srange.p ~lo ~hi ~stride with
            | Some nr -> nr
            | None ->
              (* substitution proved the range empty; keep a degenerate
                 singleton at the lower bound (sound enough for probability
                 queries; the mass is renormalised) *)
              Srange.singleton ~p:r.Srange.p lo)
          | _ -> r)
        ra
    in
    if !changed then normalize rs else a

(** [purely_numeric v] is [v] when every bound is numeric, otherwise ⊥.
    Used at function boundaries: symbolic bases are SSA names of one
    function and must not leak into another's analysis. *)
let purely_numeric (v : t) : t =
  match v with
  | Top | Bottom -> v
  | Ranges rs -> if List.for_all Srange.is_numeric rs then v else Bottom

(* --- Lattice operations ---

   The propagation engine works with [union_weighted] merges and its
   evaluation-quota safety valve; the operations below expose the plain
   lattice view of the same domain — ⊤ ⊑ ranges ⊑ ⊥ ordered by member-set
   inclusion — for the property-based test suite and the fuzzing oracles,
   which check the algebraic laws (commutativity, absorption, widening
   termination) over the member sets. *)

let join a b = union_weighted [ (1.0, a); (1.0, b) ]

let all_numeric rs = List.for_all Srange.is_numeric rs

(* q ⊆ p on progressions, exactly. *)
let prog_subset (q : P.t) (p : P.t) =
  if P.is_singleton q then P.mem q.P.lo p
  else if P.is_singleton p then false
  else
    p.P.lo <= q.P.lo && p.P.hi >= q.P.hi
    && q.P.stride mod p.P.stride = 0
    && (q.P.lo - p.P.lo) mod p.P.stride = 0

(** Greatest lower bound by member sets, conservatively over-approximated:
    numeric range sets intersect exactly (CRT per pair); as soon as a
    symbolic bound is involved the intersection is undecidable and [a] is
    returned unchanged (a superset of a ∩ b, hence sound). A provably
    empty intersection is ⊤. *)
let meet a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Bottom, v | v, Bottom -> v
  | Ranges ra, Ranges rb ->
    if not (all_numeric ra && all_numeric rb) then a
    else begin
      let pieces =
        List.concat_map
          (fun (r1 : Srange.t) ->
            List.filter_map
              (fun (r2 : Srange.t) ->
                match (Srange.prog r1, Srange.prog r2) with
                | Some p1, Some p2 ->
                  Option.map
                    (fun pi -> Srange.numeric ~p:(r1.Srange.p *. r2.Srange.p) pi)
                    (P.inter p1 p2)
                | _ -> None)
              rb)
          ra
      in
      if pieces = [] then Top else normalize pieces
    end

(** Classic widening, adapted to range sets: if [next] adds no members
    beyond [prev] (checked conservatively, per-range containment), keep
    [prev]; otherwise jump each growing bound straight to
    ±{!Config.widen_cap} (stride 1); growth beyond the cap, and any
    symbolic bound, goes to ⊥. Every chain
    [x1, widen x1 x2, widen (widen x1 x2) x3, ...] therefore changes at
    most three times: each step either is stable, caps one more bound, or
    lands on ⊥/⊤-free stable ground. *)
let widen ~prev ~next =
  match (prev, next) with
  | Bottom, _ | _, Bottom -> Bottom
  | Top, v -> v
  | _, Top -> prev
  | Ranges rp, Ranges rn ->
    if not (all_numeric rp && all_numeric rn) then Bottom
    else begin
      let progs rs = List.filter_map Srange.prog rs in
      let pp = progs rp and pn = progs rn in
      let covered = List.for_all (fun q -> List.exists (prog_subset q) pp) pn in
      if covered then prev
      else begin
        let cap = Config.widen_cap in
        let bounds ps =
          List.fold_left
            (fun (lo, hi) (p : P.t) -> (min lo p.P.lo, max hi p.P.hi))
            (max_int, min_int) ps
        in
        let lo_p, hi_p = bounds pp in
        let lo_n, hi_n = bounds (pp @ pn) in
        if lo_n < -cap || hi_n > cap then Bottom
        else begin
          let lo' = if lo_n < lo_p then -cap else lo_p in
          let hi' = if hi_n > hi_p then cap else hi_p in
          of_ranges [ Srange.numeric ~p:1.0 (P.make lo' hi' 1) ]
        end
      end
    end

(* --- Printing --- *)

let to_string = function
  | Top -> "T"
  | Bottom -> "_|_"
  | Ranges rs -> Printf.sprintf "{ %s }" (String.concat ", " (List.map Srange.to_string rs))
