(** IR tests: lowering shapes, dominators (vs a naive reference), loops,
    SSA construction invariants, assertion insertion. *)

module Ir = Vrp_ir.Ir
module Dom = Vrp_ir.Dom
module Loops = Vrp_ir.Loops
module Static = Vrp_ir.Static

let tc = Alcotest.test_case

(* The canonical CFG before SSA: each function lowered, cleaned and split. *)
let build src =
  let ast = Vrp_lang.Front.parse_and_check src in
  let lowering = Vrp_ir.Build.env ast in
  let cfg f = Vrp_ir.Build.(split_critical_edges (cleanup (lower_fn lowering f))) in
  { Ir.fns = List.map cfg ast.Vrp_lang.Ast.funcs; global_arrays = Vrp_ir.Build.globals lowering }

let build_main src =
  match Ir.find_fn (build src) "main" with
  | Some fn -> fn
  | None -> Alcotest.fail "no main"

(* --- Lowering --- *)

let straight_line_is_one_block () =
  let fn = build_main "int main(int n, int s) { int x = n + 1; int y = x * 2; return y; }" in
  Alcotest.(check int) "single block" 1 (Ir.num_blocks fn)

let if_produces_diamond () =
  let fn = build_main "int main(int n, int s) { int x = 0; if (n > 0) { x = 1; } else { x = 2; } return x; }" in
  (* entry + then + else + join = 4 *)
  Alcotest.(check int) "diamond" 4 (Ir.num_blocks fn)

let branch_successors_single_pred () =
  (* After critical-edge splitting every Br successor has one predecessor. *)
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let p = build b.source in
      List.iter
        (fun (fn : Ir.fn) ->
          Ir.iter_blocks fn (fun blk ->
              match blk.Ir.term with
              | Ir.Br { tdst; fdst; _ } ->
                List.iter
                  (fun d ->
                    if List.length (Ir.block fn d).Ir.preds <> 1 then
                      Alcotest.failf "%s/%s: B%d has several preds" b.name fn.Ir.fname d)
                  [ tdst; fdst ]
              | Ir.Jump _ | Ir.Ret _ -> ()))
        p.Ir.fns)
    Vrp_suite.Suite.benchmarks

let no_unreachable_blocks () =
  let fn =
    build_main
      "int main(int n, int s) { return 1; n = n + 1; while (n > 0) { n = n - 1; } return n; }"
  in
  (* everything after the first return is swept by cleanup *)
  Ir.iter_blocks fn (fun b ->
      if b.Ir.bid <> Ir.entry_bid && b.Ir.preds = [] then
        Alcotest.failf "unreachable block B%d survived cleanup" b.Ir.bid)

let short_circuit_branches () =
  let fn =
    build_main "int main(int n, int s) { if (n > 0 && s > 0) { return 1; } return 0; }"
  in
  let branches = ref 0 in
  Ir.iter_blocks fn (fun b ->
      match b.Ir.term with Ir.Br _ -> incr branches | Ir.Jump _ | Ir.Ret _ -> ());
  Alcotest.(check int) "two conditional branches for &&" 2 !branches

let global_scalars_are_memory () =
  let p = build "int g; int main(int n, int s) { g = n; return g; }" in
  let fn = Option.get (Ir.find_fn p "main") in
  let loads = ref 0 and stores = ref 0 in
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun i ->
          match i with
          | Ir.Def (_, Ir.Load ("g", _)) -> incr loads
          | Ir.Store ("g", _, _) -> incr stores
          | _ -> ())
        b.Ir.instrs);
  Alcotest.(check (pair int int)) "load/store pair" (1, 1) (!loads, !stores)

(* --- Dominators: compare against a naive O(n^2) fixpoint --- *)

let naive_dominators (fn : Ir.fn) : bool array array =
  let n = Ir.num_blocks fn in
  let dom = Array.init n (fun _ -> Array.make n true) in
  dom.(Ir.entry_bid) <- Array.init n (fun j -> j = Ir.entry_bid);
  let changed = ref true in
  while !changed do
    changed := false;
    Ir.iter_blocks fn (fun b ->
        if b.Ir.bid <> Ir.entry_bid then begin
          let inter = Array.make n true in
          (match b.Ir.preds with
          | [] -> Array.fill inter 0 n false
          | preds ->
            List.iter (fun p -> Array.iteri (fun i v -> inter.(i) <- inter.(i) && v) dom.(p)) preds);
          inter.(b.Ir.bid) <- true;
          if inter <> dom.(b.Ir.bid) then begin
            dom.(b.Ir.bid) <- inter;
            changed := true
          end
        end)
  done;
  dom

let dominators_match_reference () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let p = build b.source in
      List.iter
        (fun (fn : Ir.fn) ->
          let fast = Dom.compute fn in
          let naive = naive_dominators fn in
          let n = Ir.num_blocks fn in
          for a = 0 to n - 1 do
            for bb = 0 to n - 1 do
              let reachable = fast.Dom.rpo_index.(bb) >= 0 in
              if reachable && Dom.dominates fast a bb <> naive.(bb).(a) then
                Alcotest.failf "%s/%s: dominates %d %d disagrees" b.name fn.Ir.fname a bb
            done
          done)
        p.Ir.fns)
    Vrp_suite.Suite.benchmarks

(* Reference for [Dom.reverse_postorder]: the plain recursive depth-first
   search, successors in list order. *)
let recursive_rpo ~nblocks ~succs ~root =
  let visited = Array.make nblocks false in
  let order = ref [] in
  let rec visit node =
    if not visited.(node) then begin
      visited.(node) <- true;
      List.iter visit (succs node);
      order := node :: !order
    end
  in
  visit root;
  Array.of_list !order

let rpo_matches_recursive () =
  let same name ~nblocks ~succs ~root =
    Alcotest.(check (array int))
      name
      (recursive_rpo ~nblocks ~succs ~root)
      (Dom.reverse_postorder ~nblocks ~succs ~root)
  in
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      List.iter
        (fun (fn : Ir.fn) ->
          let nblocks = Ir.num_blocks fn in
          let name = b.name ^ "/" ^ fn.Ir.fname in
          same name ~nblocks ~root:Ir.entry_bid ~succs:(fun bid ->
              Ir.successors (Ir.block fn bid).Ir.term);
          (* the reversed CFG, from the last block *)
          same (name ^ " reversed") ~nblocks ~root:(nblocks - 1) ~succs:(fun bid ->
              (Ir.block fn bid).Ir.preds))
        (Helpers.compile b.source).Vrp_core.Pipeline.ssa.Ir.fns)
    Vrp_suite.Suite.benchmarks;
  let n = 100_000 in
  same "100k-block chain" ~nblocks:n ~root:0 ~succs:(fun i ->
      if i + 1 < n then [ i + 1 ] else [])

let idom_is_strict_dominator () =
  let fn = build_main (Option.get (Vrp_suite.Suite.find "qsort")).source in
  let d = Dom.compute fn in
  Array.iteri
    (fun node idom ->
      if idom >= 0 && not (Dom.strictly_dominates d idom node) then
        Alcotest.failf "idom(%d)=%d is not a strict dominator" node idom)
    d.Dom.idom

let postdominators_sane () =
  let fn =
    build_main "int main(int n, int s) { int x = 0; if (n > 0) { x = 1; } else { x = 2; } return x; }"
  in
  let pd = Dom.compute_post fn in
  (* The join block (the one ending in Ret) postdominates everything. *)
  let ret_block = ref (-1) in
  Ir.iter_blocks fn (fun b ->
      match b.Ir.term with Ir.Ret _ -> ret_block := b.Ir.bid | _ -> ());
  Ir.iter_blocks fn (fun b ->
      if not (Dom.postdominates pd !ret_block b.Ir.bid) then
        Alcotest.failf "return block must postdominate B%d" b.Ir.bid);
  (* The then-arm does not postdominate the entry. *)
  let entry_succs = Ir.successors (Ir.block fn Ir.entry_bid).Ir.term in
  List.iter
    (fun s ->
      if Dom.postdominates pd s Ir.entry_bid then
        Alcotest.failf "branch arm B%d must not postdominate entry" s)
    entry_succs

(* --- Dominance oracle ---

   [Dom.compute_generic] folds predecessors without filtering a list and
   answers [dominates] in O(1) from preorder intervals of the dominator
   tree. The fixpoint and the idom-chain walk they replaced stay here,
   verbatim, as the reference (with [frontiers] and [compute_post] over
   it): on random CFGs and on fuzz programs both must agree on every
   [idom], [rpo_index], child list and frontier, and on [dominates] and
   [postdominates] for every pair of nodes. *)

module Reference_dom = struct
  type t = { idom : int array; rpo_index : int array; children : int list array; root : int }

  let compute_generic ~nblocks ~succs ~preds ~root : t =
    let rpo = Dom.reverse_postorder ~nblocks ~succs ~root in
    let rpo_index = Array.make nblocks (-1) in
    Array.iteri (fun i node -> rpo_index.(node) <- i) rpo;
    let idom = Array.make nblocks (-1) in
    idom.(root) <- root;
    let rec intersect a b =
      if a = b then a
      else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
      else intersect a idom.(b)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun node ->
          if node <> root then begin
            let processed_preds =
              List.filter (fun p -> rpo_index.(p) >= 0 && idom.(p) >= 0) (preds node)
            in
            match processed_preds with
            | [] -> ()
            | first :: rest ->
              let new_idom = List.fold_left (fun acc p -> intersect acc p) first rest in
              if idom.(node) <> new_idom then begin
                idom.(node) <- new_idom;
                changed := true
              end
          end)
        rpo
    done;
    idom.(root) <- -1;
    let children = Array.make nblocks [] in
    for node = 0 to nblocks - 1 do
      let d = idom.(node) in
      if d >= 0 then children.(d) <- node :: children.(d)
    done;
    Array.iteri (fun i cs -> children.(i) <- List.rev cs) children;
    { idom; rpo_index; children; root }

  let compute (fn : Ir.fn) : t =
    compute_generic ~nblocks:(Ir.num_blocks fn)
      ~succs:(fun bid -> Ir.successors (Ir.block fn bid).term)
      ~preds:(fun bid -> (Ir.block fn bid).preds)
      ~root:Ir.entry_bid

  let dominates t a b =
    let rec walk node = node = a || (t.idom.(node) >= 0 && walk t.idom.(node)) in
    a = b || (t.rpo_index.(b) >= 0 && walk b)

  let frontiers (fn : Ir.fn) (t : t) : int list array =
    let n = Ir.num_blocks fn in
    let df = Array.make n [] in
    let add bid node = if not (List.mem node df.(bid)) then df.(bid) <- node :: df.(bid) in
    Ir.iter_blocks fn (fun b ->
        if List.length b.preds >= 2 then
          List.iter
            (fun pred ->
              if t.rpo_index.(pred) >= 0 then begin
                let runner = ref pred in
                while !runner <> t.idom.(b.bid) && !runner >= 0 do
                  add !runner b.bid;
                  runner := t.idom.(!runner)
                done
              end)
            b.preds);
    df

  let compute_post (fn : Ir.fn) : t =
    let n = Ir.num_blocks fn in
    let virtual_exit = n in
    let exits =
      Array.to_list fn.blocks
      |> List.filter_map (fun (b : Ir.block) ->
             match b.term with Ir.Ret _ -> Some b.bid | Ir.Jump _ | Ir.Br _ -> None)
    in
    let rsuccs bid = if bid = virtual_exit then exits else (Ir.block fn bid).preds in
    let rpreds bid =
      if bid = virtual_exit then []
      else begin
        let s = Ir.successors (Ir.block fn bid).term in
        if s = [] then [ virtual_exit ] else s
      end
    in
    compute_generic ~nblocks:(n + 1) ~succs:rsuccs ~preds:rpreds ~root:virtual_exit
end

(* Where the fast and reference trees of [fn] first disagree, if anywhere. *)
let dom_disagreement (fn : Ir.fn) =
  let same_tree what (fast : Dom.t) (slow : Reference_dom.t) =
    if fast.Dom.idom <> slow.Reference_dom.idom then Some (what ^ " idom")
    else if fast.Dom.rpo_index <> slow.Reference_dom.rpo_index then Some (what ^ " rpo_index")
    else if fast.Dom.children <> slow.Reference_dom.children then Some (what ^ " children")
    else if fast.Dom.root <> slow.Reference_dom.root then Some (what ^ " root")
    else None
  in
  let pairs n f =
    let found = ref None in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if !found = None then found := f a b
      done
    done;
    !found
  in
  let n = Ir.num_blocks fn in
  let dom = Dom.compute fn and rdom = Reference_dom.compute fn in
  let post = Dom.compute_post fn and rpost = Reference_dom.compute_post fn in
  match same_tree "dom" dom rdom with
  | Some d -> Some d
  | None -> (
    match same_tree "postdom" post rpost with
    | Some d -> Some d
    | None ->
      if Dom.frontiers fn dom <> Reference_dom.frontiers fn rdom then Some "frontiers"
      else
        pairs n (fun a b ->
            if Dom.dominates dom a b <> Reference_dom.dominates rdom a b then
              Some (Printf.sprintf "dominates B%d B%d" a b)
            else None)
        |> function
        | Some d -> Some d
        | None ->
          pairs (n + 1) (fun a b ->
              if Dom.postdominates post a b <> Reference_dom.dominates rpost a b then
                Some (Printf.sprintf "postdominates %d %d" a b)
              else None))

(* A random CFG of up to 14 blocks: any block may jump or branch anywhere,
   itself included, so unreachable blocks, self-loops, duplicate branch
   targets, infinite loops and irreducible loops all occur. *)
let gen_cfg =
  let open QCheck2.Gen in
  let* n = int_range 1 14 in
  let term =
    let target = int_bound (n - 1) in
    frequency
      [
        (1, return (Ir.Ret None));
        (3, map (fun d -> Ir.Jump d) target);
        ( 4,
          map2
            (fun tdst fdst -> Ir.Br { rel = Vrp_lang.Ast.Lt; ba = Ir.Cint 0; bb = Ir.Cint 1; tdst; fdst })
            target target );
      ]
  in
  let+ terms = list_repeat n term in
  let fn =
    {
      Ir.fname = "cfg";
      ret_ty = Vrp_lang.Ast.Tvoid;
      params = [];
      blocks = Array.of_list (List.mapi (fun bid term -> { Ir.bid; instrs = []; term; preds = [] }) terms);
      nvars = 0;
      local_arrays = [];
    }
  in
  Ir.recompute_preds fn;
  fn

let dom_oracle_random_cfgs =
  Helpers.qtest ~count:500 "dom: random CFGs agree with the reference" gen_cfg
    ~print:(fun fn -> Ir.fn_to_string fn)
    (fun fn ->
      match dom_disagreement fn with
      | None -> true
      | Some what -> QCheck2.Test.fail_reportf "%s" what)

let dom_oracle_fuzz_programs =
  Helpers.qtest ~count:30 "dom: fuzz functions agree with the reference"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun (p : Vrp_fuzz.Gen.profile) ->
          let rng = Vrp_util.Prng.create (Vrp_fuzz.Runner.mix_seed seed p.Vrp_fuzz.Gen.pname 0) in
          let src =
            Vrp_lang.Pretty.program_to_string (Vrp_fuzz.Gen.program rng ~weights:p.Vrp_fuzz.Gen.weights)
          in
          List.for_all
            (fun (fn : Ir.fn) ->
              match dom_disagreement fn with
              | None -> true
              | Some what -> QCheck2.Test.fail_reportf "%s/%s: %s" p.Vrp_fuzz.Gen.pname fn.Ir.fname what)
            (Helpers.compile src).Vrp_core.Pipeline.ssa.Ir.fns)
        Vrp_fuzz.Gen.profiles)

(* --- Loops --- *)

let loop_detection () =
  let fn =
    build_main
      "int main(int n, int s) {\n\
       int acc = 0;\n\
       for (int i = 0; i < n; i++) {\n\
       for (int j = 0; j < i; j++) { acc = acc + j; }\n\
       }\n\
       while (acc > 10) { acc = acc / 2; }\n\
       return acc; }"
  in
  let l = (Static.of_fn fn).Static.loops in
  Alcotest.(check int) "three natural loops" 3 (Array.length l.Loops.loops);
  let nested =
    List.filter
      (fun (a, b) ->
        Loops.IntSet.subset a.Loops.body b.Loops.body
        && not (Loops.IntSet.equal a.Loops.body b.Loops.body))
      (List.concat_map
         (fun a -> List.map (fun b -> (a, b)) (Array.to_list l.Loops.loops))
         (Array.to_list l.Loops.loops))
  in
  Alcotest.(check int) "one loop nested in another" 1 (List.length nested)

let back_edges_vs_headers () =
  let fn = build_main (Option.get (Vrp_suite.Suite.find "kmp")).source in
  let st = Static.of_fn fn in
  List.iter
    (fun (latch, header) ->
      if not (Loops.is_loop_header st.Static.loops header) then
        Alcotest.failf "back edge target B%d is not a loop header" header;
      if not (Static.is_back_edge st ~src:latch ~dst:header) then Alcotest.fail "inconsistent")
    st.Static.loops.Loops.back_edges

let loop_exit_edges () =
  let fn = build_main "int main(int n, int s) { int i = 0; while (i < n) { i++; } return i; }" in
  let l = (Static.of_fn fn).Static.loops in
  let header = (Array.get l.Loops.loops 0).Loops.header in
  match (Ir.block fn header).Ir.term with
  | Ir.Br { tdst; fdst; _ } ->
    let t_exit = Loops.is_loop_exit_edge l ~src:header ~dst:tdst in
    let f_exit = Loops.is_loop_exit_edge l ~src:header ~dst:fdst in
    Alcotest.(check (pair bool bool)) "true edge stays, false edge exits" (false, true)
      (t_exit, f_exit)
  | _ -> Alcotest.fail "loop header must end in a conditional branch"

(* --- Static --- *)

(* Every fact of [Static.of_fn] against the definition it replaces, on the
   SSA functions of one fuzzer program per profile. *)
let static_agrees_with_definitions seed =
  let module Gen = Vrp_fuzz.Gen in
  let module Var = Vrp_ir.Var in
  let agrees (fn : Ir.fn) =
    let st = Static.of_fn fn in
    let dom = st.Static.dom in
    let back_ok =
      List.for_all
        (fun src ->
          List.for_all
            (fun (k, dst) ->
              let back = st.Static.back.(src).(k) in
              back = Dom.dominates dom dst src
              && back = List.mem (src, dst) st.Static.loops.Loops.back_edges)
            (List.mapi (fun k dst -> (k, dst)) (Array.to_list st.Static.succs.(src))))
        (List.init (Ir.num_blocks fn) Fun.id)
    in
    let def_block = Array.make fn.Ir.nvars (-1) in
    let def_idx = Array.make fn.Ir.nvars (-1) in
    Ir.iter_blocks fn (fun b ->
        List.iteri
          (fun idx instr ->
            Option.iter
              (fun (v : Var.t) ->
                def_block.(v.Var.id) <- b.Ir.bid;
                def_idx.(v.Var.id) <- idx)
              (Ir.instr_def instr))
          b.Ir.instrs);
    let by_rpo =
      List.init (Ir.num_blocks fn) Fun.id
      |> List.filter (fun b -> dom.Dom.rpo_index.(b) >= 0)
      |> List.sort (fun a b -> compare dom.Dom.rpo_index.(a) dom.Dom.rpo_index.(b))
    in
    back_ok
    && st.Static.def_block = def_block
    && st.Static.def_idx = def_idx
    && List.for_all (fun (v : Var.t) -> st.Static.def_block.(v.Var.id) = -1) fn.Ir.params
    && Array.to_list st.Static.rpo = by_rpo
    && st.Static.postdom = Dom.compute_post fn
  in
  List.for_all
    (fun (p : Gen.profile) ->
      let rng = Vrp_util.Prng.create (Vrp_fuzz.Runner.mix_seed seed p.Gen.pname 0) in
      let src = Vrp_lang.Pretty.program_to_string (Gen.program rng ~weights:p.Gen.weights) in
      List.for_all agrees (Helpers.compile src).Vrp_core.Pipeline.ssa.Ir.fns)
    Gen.profiles

let static_property =
  Helpers.qtest ~count:30 "static: agrees with the definitions it replaces"
    QCheck2.Gen.(int_bound 1_000_000)
    static_agrees_with_definitions

(* The digest table of one fuzzer program per profile: two compiles give
   the same table, and an edit of one function moves its digest only. *)
let digests_are_per_function seed =
  let module Gen = Vrp_fuzz.Gen in
  let module Ast = Vrp_lang.Ast in
  let module Digest_key = Vrp_cache.Digest_key in
  let table (ast : Ast.program) =
    let keys =
      Digest_key.fn_keys
        (Helpers.compile (Vrp_lang.Pretty.program_to_string ast)).Vrp_core.Pipeline.ssa
    in
    Hashtbl.fold
      (fun f (k : Digest_key.fn_key) acc -> (f, k.Digest_key.digest, k.Digest_key.callees) :: acc)
      keys []
    |> List.sort compare
  in
  List.for_all
    (fun (p : Gen.profile) ->
      let rng = Vrp_util.Prng.create (Vrp_fuzz.Runner.mix_seed seed p.Gen.pname 0) in
      let ast = Gen.program rng ~weights:p.Gen.weights in
      let before = table ast in
      let k = seed mod List.length ast.Ast.funcs in
      let probe = Ast.Sdecl (Ast.Tint, "edit_probe", Ast.Iscalar (Some (Ast.Int 1))) in
      let edit i (f : Ast.func) =
        if i = k then { f with Ast.body = { Ast.sline = 0; sdesc = probe } :: f.Ast.body } else f
      in
      let edited = { ast with Ast.funcs = List.mapi edit ast.Ast.funcs } in
      let target = (List.nth ast.Ast.funcs k).Ast.fname in
      table ast = before
      && List.for_all2
           (fun (f, d, _) (f', d', _) -> String.equal f f' && (d <> d') = String.equal f target)
           before (table edited))
    Gen.profiles

let digest_property =
  Helpers.qtest ~count:30 "digest: deterministic and per-function"
    QCheck2.Gen.(int_bound 1_000_000)
    digests_are_per_function

(* --- SSA --- *)

let ssa_of src =
  let p = build src in
  { p with Ir.fns = List.map Vrp_ir.Ssa.transform p.Ir.fns }

let ssa_checker_passes_suite () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let ssa = ssa_of b.source in
      try List.iter Vrp_ir.Check.check_ssa_fn ssa.Ir.fns
      with Vrp_ir.Check.Violation msg -> Alcotest.failf "%s: %s" b.name msg)
    Vrp_suite.Suite.benchmarks

(* Variable ids index every per-variable array downstream ([Static],
   [Engine]), so an id outside [0, nvars) must be a [Violation], not an
   [Invalid_argument] later. Lowering [nvars] by 2 leaves the last two
   minted variables, defined and used, out of range; a negative id is out
   of range too. *)
let ssa_checker_rejects_ids_past_nvars () =
  let ssa =
    ssa_of "int main(int n, int s) { int x = 0; if (n < 3) { x = 1; } if (s > 4) { x = x + 2; } return x; }"
  in
  let fn = Option.get (Ir.find_fn ssa "main") in
  Vrp_ir.Check.check_ssa_fn fn;
  let rejects what (fn : Ir.fn) =
    match Vrp_ir.Check.check_ssa_fn fn with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Vrp_ir.Check.Violation msg ->
      if not (Astring.String.is_infix ~affix:"outside [0, " msg) then
        Alcotest.failf "%s: unexpected message %s" what msg
  in
  rejects "nvars - 2" { fn with Ir.nvars = fn.Ir.nvars - 2 };
  let neg = { Vrp_ir.Var.id = -1; base = "neg"; version = 0; ty = Vrp_lang.Ast.Tint } in
  let use_neg =
    {
      fn with
      Ir.blocks =
        Array.map
          (fun (b : Ir.block) ->
            match b.Ir.term with
            | Ir.Ret (Some _) -> { b with Ir.term = Ir.Ret (Some (Ir.Ovar neg)) }
            | _ -> b)
          fn.Ir.blocks;
    }
  in
  rejects "negative id in a use" use_neg

let ssa_assertions_on_both_edges () =
  let ssa = ssa_of "int main(int n, int s) { if (n < 10) { return 1; } return 0; }" in
  let fn = Option.get (Ir.find_fn ssa "main") in
  let asserts = ref [] in
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun i ->
          match i with
          | Ir.Def (_, Ir.Assertion { arel; _ }) -> asserts := arel :: !asserts
          | _ -> ())
        b.Ir.instrs);
  let sorted = List.sort compare !asserts in
  Alcotest.(check bool) "Lt and Ge assertions present" true
    (sorted = List.sort compare [ Vrp_lang.Ast.Lt; Vrp_lang.Ast.Ge ])

let ssa_assertions_on_both_operands () =
  let ssa = ssa_of "int main(int n, int s) { if (n < s) { return 1; } return 0; }" in
  let fn = Option.get (Ir.find_fn ssa "main") in
  let count = ref 0 in
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun i -> match i with Ir.Def (_, Ir.Assertion _) -> incr count | _ -> ())
        b.Ir.instrs);
  Alcotest.(check int) "two assertions per edge, two edges" 4 !count

let ssa_phi_for_merged_variable () =
  let ssa =
    ssa_of "int main(int n, int s) { int x = 0; if (n) { x = 1; } else { x = 2; } return x; }"
  in
  let fn = Option.get (Ir.find_fn ssa "main") in
  let found = ref false in
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun i ->
          match i with
          | Ir.Def (v, Ir.Phi args) when v.Vrp_ir.Var.base = "x" ->
            found := true;
            Alcotest.(check int) "phi arity" (List.length b.Ir.preds) (List.length args)
          | _ -> ())
        b.Ir.instrs);
  Alcotest.(check bool) "x has a phi at the join" true !found

let ssa_never_assigned_reads_zero () =
  (* A use on a path where the variable was never assigned reads 0; the SSA
     construction must realise that as a constant operand, and the
     interpreter agrees. *)
  let src =
    "int main(int n, int s) {\n\
     int y;\n\
     if (n > 0) { y = 7; }\n\
     return y; }"
  in
  let r = Helpers.run_main ~args:[ 0; 0 ] src in
  Alcotest.(check int) "unassigned path reads 0" 0 (Helpers.ret_int r);
  let r = Helpers.run_main ~args:[ 5; 0 ] src in
  Alcotest.(check int) "assigned path reads 7" 7 (Helpers.ret_int r)

let ssa_versions_are_fresh () =
  let ssa = ssa_of (Option.get (Vrp_suite.Suite.find "huffman")).source in
  List.iter
    (fun (fn : Ir.fn) ->
      let seen = Hashtbl.create 64 in
      let defd (v : Vrp_ir.Var.t) =
        if Hashtbl.mem seen v.Vrp_ir.Var.id then
          Alcotest.failf "%s: %s defined twice" fn.Ir.fname (Vrp_ir.Var.to_string v);
        Hashtbl.replace seen v.Vrp_ir.Var.id ()
      in
      List.iter defd fn.Ir.params;
      Ir.iter_blocks fn (fun b ->
          List.iter (fun i -> Option.iter defd (Ir.instr_def i)) b.Ir.instrs))
    ssa.Ir.fns

let suite =
  ( "ir",
    [
      tc "lower: straight line" `Quick straight_line_is_one_block;
      tc "lower: if diamond" `Quick if_produces_diamond;
      tc "lower: branch targets have one pred" `Quick branch_successors_single_pred;
      tc "lower: unreachable code swept" `Quick no_unreachable_blocks;
      tc "lower: short-circuit becomes branches" `Quick short_circuit_branches;
      tc "lower: global scalars are memory" `Quick global_scalars_are_memory;
      tc "dom: matches naive reference" `Quick dominators_match_reference;
      tc "dom: idom strictness" `Quick idom_is_strict_dominator;
      tc "dom: postdominators" `Quick postdominators_sane;
      tc "dom: iterative rpo matches recursive" `Quick rpo_matches_recursive;
      dom_oracle_random_cfgs;
      dom_oracle_fuzz_programs;
      tc "loops: detection and nesting" `Quick loop_detection;
      tc "loops: back edges vs headers" `Quick back_edges_vs_headers;
      tc "loops: exit edges" `Quick loop_exit_edges;
      static_property;
      digest_property;
      tc "ssa: checker passes on the suite" `Quick ssa_checker_passes_suite;
      tc "ssa: checker rejects ids outside nvars" `Quick ssa_checker_rejects_ids_past_nvars;
      tc "ssa: assertions on both edges" `Quick ssa_assertions_on_both_edges;
      tc "ssa: assertions on both operands" `Quick ssa_assertions_on_both_operands;
      tc "ssa: phi at join" `Quick ssa_phi_for_merged_variable;
      tc "ssa: unassigned reads zero" `Quick ssa_never_assigned_reads_zero;
      tc "ssa: single assignment" `Quick ssa_versions_are_fresh;
    ] )
