(** Block, edge and function execution-frequency estimation from branch
    probabilities (paper §6).

    "In this case what we want to know is the execution frequencies of
    functions and basic blocks, not the probabilities of branches. This
    information can be obtained by ... propagating frequencies around the
    control flow graph until a fixed point is reached [WuLarus94].
    Optimizations can then be applied in descending order of execution
    frequency."

    Within a function: freq(entry) = 1 and freq(b) = Σ freq(p)·prob(p→b),
    solved exactly by Gaussian elimination on (I − A), where A holds the
    edge probabilities (a near-singular pivot, i.e. a nearly non-terminating
    loop, is regularised, which caps the multiplier like Wu–Larus's
    cyclic-probability cap). Across functions: freq(main) = 1 and each
    callee receives the sum over executable call sites of caller-frequency ×
    site-frequency, relaxed for at most [relaxation_passes] passes, which
    caps recursion. *)

module Ir = Vrp_ir.Ir

type fn_freq = {
  fn : Ir.fn;
  block_freq : float array;  (** executions per invocation of the function *)
  edge_freq : (int * int, float) Hashtbl.t;
}

type t = {
  per_fn : (string, fn_freq) Hashtbl.t;
  call_freq : (string, float) Hashtbl.t;  (** invocations per run of main *)
}

(* Damping bounds: a loop whose cyclic probability reaches 1 would diverge;
   Wu-Larus cap the cyclic probability, which bounds the multiplier. *)
let max_block_freq = 1e12
let relaxation_passes = 128
let convergence_eps = 1e-9

(** Per-invocation block and edge frequencies of one analysed function. *)
let of_engine (res : Engine.t) : fn_freq =
  let fn = res.Engine.fn in
  let n = Ir.num_blocks fn in
  (* Edge probabilities from the analysis: conditional branches use the
     predicted probability, jumps are certain. *)
  let edge_prob (b : Ir.block) =
    match b.Ir.term with
    | Ir.Jump d -> [ (d, 1.0) ]
    | Ir.Ret _ -> []
    | Ir.Br { tdst; fdst; _ } -> (
      match Engine.branch_prob res b.Ir.bid with
      | Some p -> [ (tdst, p); (fdst, 1.0 -. p) ]
      | None -> [ (tdst, 0.5); (fdst, 0.5) ])
  in
  (* Exact solution of the flow equations freq = A·freq + e (freq(entry)
     gets the extra unit, every other block the probability-weighted sum of
     its predecessors): Gaussian elimination on (I − A). Loops of any trip
     count are exact — iterative relaxation would converge at the loop's
     cyclic probability, hopelessly slowly for e.g. 4096-trip loops. A
     near-singular pivot corresponds to a (nearly) non-terminating loop and
     is regularised, which caps the multiplier like Wu–Larus's cyclic
     probability cap. *)
  let m = Array.make_matrix n (n + 1) 0.0 in
  for b = 0 to n - 1 do
    m.(b).(b) <- 1.0
  done;
  Ir.iter_blocks fn (fun pb ->
      List.iter
        (fun (dst, p) -> m.(dst).(pb.Ir.bid) <- m.(dst).(pb.Ir.bid) -. p)
        (edge_prob pb));
  m.(Ir.entry_bid).(n) <- 1.0;
  (* elimination with partial pivoting *)
  for col = 0 to n - 1 do
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs m.(r).(col) > Float.abs m.(!pivot).(col) then pivot := r
    done;
    if !pivot <> col then begin
      let t = m.(col) in
      m.(col) <- m.(!pivot);
      m.(!pivot) <- t
    end;
    let d = m.(col).(col) in
    let d = if Float.abs d < 1.0 /. max_block_freq then 1.0 /. max_block_freq else d in
    m.(col).(col) <- d;
    for r = col + 1 to n - 1 do
      let factor = m.(r).(col) /. d in
      if factor <> 0.0 then
        for c = col to n do
          m.(r).(c) <- m.(r).(c) -. (factor *. m.(col).(c))
        done
    done
  done;
  let freq = Array.make n 0.0 in
  for row = n - 1 downto 0 do
    let acc = ref m.(row).(n) in
    for c = row + 1 to n - 1 do
      acc := !acc -. (m.(row).(c) *. freq.(c))
    done;
    freq.(row) <- Vrp_util.Stats.clamp ~lo:0.0 ~hi:max_block_freq (!acc /. m.(row).(row))
  done;
  let edge_freq = Hashtbl.create 32 in
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun (dst, p) -> Hashtbl.replace edge_freq (b.Ir.bid, dst) (freq.(b.Ir.bid) *. p))
        (edge_prob b));
  { fn; block_freq = freq; edge_freq }

(** Whole-program frequencies from an interprocedural analysis. *)
let of_interproc (_program : Ir.program) (ipa : Interproc.t) : t =
  let per_fn = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name res -> Hashtbl.replace per_fn name (of_engine res))
    ipa.Interproc.results;
  (* Call-site frequencies: invocations of callee per invocation of caller. *)
  let call_sites : (string * string * float) list =
    Hashtbl.fold
      (fun caller (res : Engine.t) acc ->
        match Hashtbl.find_opt per_fn caller with
        | None -> acc
        | Some ff ->
          List.fold_left
            (fun acc ((bid, _idx), (callee, _args)) ->
              (caller, callee, ff.block_freq.(bid)) :: acc)
            acc res.Engine.calls_seen)
      ipa.Interproc.results []
  in
  let call_freq = Hashtbl.create 16 in
  Hashtbl.replace call_freq "main" 1.0;
  (* Relax over the call graph; recursion is capped like loops. *)
  let passes = ref 0 in
  let continue = ref true in
  while !continue && !passes < relaxation_passes do
    incr passes;
    let delta = ref 0.0 in
    let next = Hashtbl.create 16 in
    Hashtbl.replace next "main" 1.0;
    List.iter
      (fun (caller, callee, site_freq) ->
        let caller_f = Option.value ~default:0.0 (Hashtbl.find_opt call_freq caller) in
        let cur = Option.value ~default:0.0 (Hashtbl.find_opt next callee) in
        Hashtbl.replace next callee
          (Float.min max_block_freq (cur +. (caller_f *. site_freq))))
      call_sites;
    Hashtbl.iter
      (fun name f ->
        let old = Option.value ~default:0.0 (Hashtbl.find_opt call_freq name) in
        delta := Float.max !delta (Float.abs (f -. old));
        Hashtbl.replace call_freq name f)
      next;
    if !delta < convergence_eps then continue := false
  done;
  { per_fn; call_freq }

(** Global frequency of a block: invocations of its function × executions
    per invocation. *)
let global_block_freq (t : t) ~(fname : string) ~(bid : int) : float option =
  match (Hashtbl.find_opt t.per_fn fname, Hashtbl.find_opt t.call_freq fname) with
  | Some ff, Some cf when bid < Array.length ff.block_freq -> Some (ff.block_freq.(bid) *. cf)
  | _ -> None

(** Blocks of the whole program hottest-first — the order the paper suggests
    applying resource-limited optimizations in. *)
let hottest_blocks (t : t) : (string * int * float) list =
  Hashtbl.fold
    (fun fname ff acc ->
      let cf = Option.value ~default:0.0 (Hashtbl.find_opt t.call_freq fname) in
      Array.to_list (Array.mapi (fun bid f -> (fname, bid, f *. cf)) ff.block_freq) @ acc)
    t.per_fn []
  |> List.sort (fun (fa, ba, a) (fb, bb, b) ->
         (* Frequency-descending with a (function, block) tie-break: equal
            frequencies must not surface hash-table order. *)
         match Float.compare b a with
         | 0 -> compare (fa, ba) (fb, bb)
         | c -> c)
