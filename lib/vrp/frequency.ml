(** Block, edge and function execution frequencies from branch
    probabilities (paper §6: "propagating frequencies around the control
    flow graph until a fixed point is reached [WuLarus94]").

    The probabilities make the CFG a Markov chain whose expected visits
    solve freq = P·freq + e (Di Pierro and Wiklicky's linear equational
    view), exactly, one cycle at a time: natural loops innermost first,
    call-graph SCCs callers first. A cycle that comes back with
    probability [cp] multiplies its entry flow by 1/(1 − cp). *)

module Ir = Vrp_ir.Ir
module Static = Vrp_ir.Static
module Loops = Vrp_ir.Loops

type fn_freq = {
  fn : Ir.fn;
  block_freq : float array;  (** executions per invocation of the function *)
  edge_freq : (int * int, float) Hashtbl.t;
}

type t = {
  per_fn : (string, fn_freq) Hashtbl.t;
  call_freq : (string, float) Hashtbl.t;  (** invocations per run of main *)
}

(* The one cap: a cycle's pivot 1 − cp, non-positive where it never ends,
   stops at 1/max_block_freq (Wu–Larus cap the cyclic probability). *)
let max_block_freq = 1e12
let cap_pivot d = Float.max d (1.0 /. max_block_freq)

let add tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))

(* Each loop, innermost first, pushes one unit from its header over forward
   edges in RPO, inner headers scaled by their multipliers; what comes back
   over its back edges is its [cp]. A last push from the entry gives the
   frequencies. *)
let fn_freq (pred : Vrp_predict.Predictor.prediction) (fn : Ir.fn) : fn_freq =
  let st = Static.of_fn fn and n = Ir.num_blocks fn in
  let prob b k =
    match (Ir.block fn b).Ir.term with
    | Ir.Br { tdst; fdst; _ } when tdst <> fdst ->
      let p = Option.value ~default:0.5 (Hashtbl.find_opt pred (fn.Ir.fname, b)) in
      if st.Static.succs.(b).(k) = tdst then p else 1.0 -. p
    | _ -> 1.0
  in
  let pos = Array.make n (-1) and mult = Array.make n 1.0 and freq = Array.make n 0.0 in
  Array.iteri (fun i b -> pos.(b) <- i) st.Static.rpo;
  let push ~start ~inside blocks =
    let back = ref 0.0 in
    List.iter (fun b -> freq.(b) <- (if b = start then 1.0 else 0.0)) blocks;
    List.iter
      (fun b ->
        freq.(b) <- freq.(b) *. mult.(b);
        Array.iteri
          (fun k s ->
            let w = freq.(b) *. prob b k in
            if st.Static.back.(b).(k) then (if s = start then back := !back +. w)
            else if pos.(s) <= pos.(b) then
              failwith
                (Printf.sprintf "Frequency: irreducible edge B%d -> B%d in %s" b s fn.Ir.fname)
            else if inside s then freq.(s) <- freq.(s) +. w)
          st.Static.succs.(b))
      blocks;
    !back
  in
  Array.iter
    (fun (l : Loops.loop) ->
      let body = List.sort (fun a b -> compare pos.(a) pos.(b)) (Loops.IntSet.elements l.body) in
      let cp = push ~start:l.header ~inside:(fun s -> Loops.IntSet.mem s l.body) body in
      mult.(l.header) <- 1.0 /. cap_pivot (1.0 -. cp))
    st.Static.loops.Loops.loops;
  ignore (push ~start:Ir.entry_bid ~inside:(fun _ -> true) (Array.to_list st.Static.rpo));
  let edge_freq = Hashtbl.create 32 in
  Array.iter
    (fun b -> Array.iteri (fun k s -> add edge_freq (b, s) (freq.(b) *. prob b k)) st.succs.(b))
    st.Static.rpo;
  { fn; block_freq = freq; edge_freq }

(** A call site weighs its block's frequency. Each SCC of the call graph
    reachable from [main], callers first, solves (I − C)·x = inflow by
    elimination without pivoting; a non-positive pivot (the SCC's expected
    call count diverges) gets the loop cap. *)
let of_prediction (program : Ir.program) (pred : Vrp_predict.Predictor.prediction) : t =
  let fns = Hashtbl.create 16 and per_fn = Hashtbl.create 16 and calls = Hashtbl.create 16 in
  List.iter (fun (f : Ir.fn) -> Hashtbl.replace fns f.Ir.fname f) program.Ir.fns;
  (* Tarjan's algorithm, solving each function it reaches; [sccs] ends
     callers first. [calls] holds a function's [(callee, site weight)]s. *)
  let index = Hashtbl.create 16 and stack = ref [] and sccs = ref [] in
  let rec visit v =
    let i = Hashtbl.length index in
    Hashtbl.replace index v i;
    stack := v :: !stack;
    let ff = fn_freq pred (Hashtbl.find fns v) and sites = ref [] in
    Hashtbl.replace per_fn v ff;
    Ir.iter_blocks ff.fn (fun b ->
        List.iter
          (function
            | Ir.Def (_, Ir.Call (g, _)) when Hashtbl.mem fns g ->
              sites := (g, ff.block_freq.(b.Ir.bid)) :: !sites
            | _ -> ())
          b.Ir.instrs);
    Hashtbl.replace calls v (List.rev !sites);
    let low =
      List.fold_left
        (fun low (w, _) ->
          if not (Hashtbl.mem index w) then min low (visit w)
          else if List.mem w !stack then min low (Hashtbl.find index w)
          else low)
        i (Hashtbl.find calls v)
    in
    let rec pop acc = function
      | w :: rest when w <> v -> pop (w :: acc) rest
      | l -> stack := List.tl l; Array.of_list (v :: acc)
    in
    if low = i then sccs := pop [] !stack :: !sccs;
    low
  in
  let call_freq = Hashtbl.create 16 in
  if Hashtbl.mem fns "main" then (ignore (visit "main"); Hashtbl.replace call_freq "main" 1.0);
  List.iter
    (fun comp ->
      let k = Array.length comp in
      let a =
        Array.init k (fun r ->
            Array.init k (fun c ->
                List.fold_left (fun a (g, w) -> if g = comp.(r) then a -. w else a)
                  (if r = c then 1.0 else 0.0) (Hashtbl.find calls comp.(c))))
      in
      let x = Array.map (fun f -> Option.value ~default:0.0 (Hashtbl.find_opt call_freq f)) comp in
      (* Gauss–Jordan: the pivots are those of plain elimination. *)
      for c = 0 to k - 1 do
        a.(c).(c) <- cap_pivot a.(c).(c);
        for r = 0 to k - 1 do
          let m = if r = c then 0.0 else a.(r).(c) /. a.(c).(c) in
          for j = c to k - 1 do a.(r).(j) <- a.(r).(j) -. (m *. a.(c).(j)) done;
          x.(r) <- x.(r) -. (m *. x.(c))
        done
      done;
      Array.iteri
        (fun c f ->
          x.(c) <- x.(c) /. a.(c).(c);
          Hashtbl.replace call_freq f x.(c);
          List.iter
            (fun (g, w) -> if not (Array.mem g comp) then add call_freq g (x.(c) *. w))
            (Hashtbl.find calls f))
        comp)
    !sccs;
  { per_fn; call_freq }

(** Global frequency of a block: invocations of its function × executions
    per invocation. *)
let global_block_freq (t : t) ~(fname : string) ~(bid : int) : float option =
  match (Hashtbl.find_opt t.per_fn fname, Hashtbl.find_opt t.call_freq fname) with
  | Some ff, Some cf when bid < Array.length ff.block_freq -> Some (ff.block_freq.(bid) *. cf)
  | _ -> None

(* To 12 significant digits, so that frequencies equal in exact arithmetic
   tie however the solve's float operations were ordered. *)
let rank f = float_of_string (Printf.sprintf "%.12g" f)

(** Blocks of the whole program hottest-first — the order the paper suggests
    applying resource-limited optimizations in; ties by (function, block). *)
let hottest_blocks (t : t) : (string * int * float) list =
  Hashtbl.fold
    (fun fname ff acc ->
      let cf = Option.value ~default:0.0 (Hashtbl.find_opt t.call_freq fname) in
      Array.to_list (Array.mapi (fun bid f -> (-.rank (f *. cf), fname, bid, f *. cf)) ff.block_freq)
      @ acc)
    t.per_fn []
  |> List.sort compare
  |> List.map (fun (_, fname, bid, f) -> (fname, bid, f))
