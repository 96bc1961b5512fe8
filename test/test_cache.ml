(** Summary-cache tests: structural digest stability and sensitivity,
    configuration digests, LRU and disk tiers, invalidation accounting, and
    the headline soundness property — cached analysis results are
    indistinguishable from fresh ones. *)

module Ir = Vrp_ir.Ir
module Engine = Vrp_core.Engine
module Diag = Vrp_diag.Diag
module Pipeline = Vrp_core.Pipeline
module Predictor = Vrp_predict.Predictor
module Digest_key = Vrp_cache.Digest_key
module Summary_cache = Vrp_cache.Summary_cache
module Batch = Vrp_sched.Batch
module Supervisor = Vrp_sched.Supervisor
module Ops = Vrp_server.Ops
module Suite = Vrp_suite.Suite

let tc = Alcotest.test_case

let src =
  {|
int helper(int k) {
  int acc = 0;
  for (int i = 0; i < 10; i++) { if (i < 7) { acc = acc + 1; } }
  return acc + k;
}
int main(int n, int s) { if (n > 0) { return helper(n); } return helper(s); }
|}

let fn_digests source =
  let c = Helpers.compile source in
  List.map
    (fun (fn : Ir.fn) -> (fn.Ir.fname, Digest_key.fn_digest fn))
    c.Pipeline.ssa.Ir.fns

(* --- Digests --- *)

let digest_stable_across_recompiles () =
  Alcotest.(check (list (pair string string)))
    "two parse->SSA round-trips digest identically" (fn_digests src) (fn_digests src)

let digest_changes_on_ir_edit () =
  let edited = Astring.String.cuts ~sep:"i < 7" src |> String.concat "i < 8" in
  let orig = List.assoc "helper" (fn_digests src) in
  let changed = List.assoc "helper" (fn_digests edited) in
  Alcotest.(check bool) "constant edit changes the digest" true (orig <> changed);
  (* the untouched sibling keeps its digest: per-function granularity *)
  Alcotest.(check string) "main unaffected by helper edit"
    (List.assoc "main" (fn_digests src))
    (List.assoc "main" (fn_digests edited))

let config_digest_covers_every_knob () =
  let d = Engine.default_config in
  let variants =
    [
      ("default", d);
      ("numeric", { d with Engine.symbolic = false });
      ("no-asserts", { d with Engine.use_assertions = false });
      ("no-algebra", { d with Engine.algebra = not d.Engine.algebra });
      ("no-derive", { d with Engine.use_derivation = false });
      ("quota", { d with Engine.eval_quota = d.Engine.eval_quota + 1 });
      ("trip-prior", { d with Engine.trip_prior = d.Engine.trip_prior +. 1.0 });
      ("ssa-first", { d with Engine.flow_first = not d.Engine.flow_first });
      ("max-growth", { d with Engine.max_growth = d.Engine.max_growth + 1 });
      ("fault", { d with Engine.fault = Some (Vrp_diag.Diag.Fault.Crash_fn "x") });
    ]
  in
  let digests = List.map (fun (name, c) -> (Digest_key.config_digest c, name)) variants in
  let uniq = List.sort_uniq compare (List.map fst digests) in
  if List.length uniq <> List.length digests then
    Alcotest.failf "config digest collision among: %s"
      (String.concat ", " (List.map snd digests));
  (* the global range budget is part of the configuration identity *)
  Alcotest.(check bool) "max_ranges is in the digest" true
    (Vrp_ranges.Config.with_max_ranges 8 (fun () -> Digest_key.config_digest d)
    <> Digest_key.config_digest d);
  (* a deadline token is non-semantic and must NOT move the digest, or
     every run under a deadline would be a spurious miss *)
  Alcotest.(check string) "cancel token is not in the digest"
    (Digest_key.config_digest d)
    (Digest_key.config_digest
       { d with Engine.cancel = Some (Vrp_diag.Diag.Cancel.make ~deadline:0.) })

let task_key_depends_on_inputs () =
  let fnd = List.assoc "helper" (fn_digests src) in
  let cfgd = Digest_key.config_digest Engine.default_config in
  let key ~params ~returns =
    Digest_key.task_key ~fn_digest:fnd ~config_digest:cfgd ~param_values:params
      ~callee_returns:returns
  in
  let v1 = Vrp_ranges.Value.const_int 1 and v2 = Vrp_ranges.Value.const_int 2 in
  Alcotest.(check bool) "param ranges keyed" true
    (key ~params:[ v1 ] ~returns:[] <> key ~params:[ v2 ] ~returns:[]);
  Alcotest.(check bool) "callee returns keyed" true
    (key ~params:[ v1 ] ~returns:[ ("f", v1) ] <> key ~params:[ v1 ] ~returns:[ ("f", v2) ]);
  Alcotest.(check string) "equal inputs, equal key"
    (key ~params:[ v1 ] ~returns:[ ("f", v2) ])
    (key ~params:[ v1 ] ~returns:[ ("f", v2) ])

let callees_include_self_calls () =
  let src =
    {|
int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
int main(int n, int s) { return fact(n); }
|}
  in
  let keys = Digest_key.fn_keys (Helpers.compile src).Pipeline.ssa in
  let callees f = (Hashtbl.find keys f).Digest_key.callees in
  Alcotest.(check (list string)) "fact calls itself" [ "fact" ] (callees "fact");
  Alcotest.(check (list string)) "main calls fact" [ "fact" ] (callees "main")

(* --- IR layout tripwire ---

   Marshal writes a constructor as its position in its type, so reordering
   one in [Ir] or in [Ast.ty], [relop] or [binop] would let an old disk
   entry match a different IR. [layout_src] uses every such constructor
   (checked against the exhaustive matches below, which stop compiling when
   one is added) and its digests are pinned. *)

let layout_src =
  {|
int g;
void note(int x) { g = x; return; }
float scale(float x) { float w[2]; w[0] = x * 1.5; return w[0] - 0.25; }
int mix(int a, int b) {
  int t[4];
  t[0] = a + b; t[1] = a - b; t[2] = a * b; t[3] = a / (b | 1);
  int r = t[0] % 7 & t[1] ^ t[2] << 2 >> 1;
  int c = a < b;
  int d = -a + ~b + c;
  if (a == b) { r = r + 1; }
  if (a != 3) { r = r + 2; }
  if (a <= b) { r = r + 3; }
  if (a > 5) { r = r + 4; }
  if (b >= 2) { r = r + d; }
  note(r);
  return r + t[3];
}
int main(int n, int s) {
  int acc = 0;
  for (int i = 0; i < n; i++) { acc = acc + mix(i, s); }
  if (scale(1.0) < 2.0) { acc = acc + 1; }
  return acc;
}
|}

let ty_name : Vrp_lang.Ast.ty -> string = function
  | Tint -> "int" | Tfloat -> "float" | Tvoid -> "void"

let relop_name : Vrp_lang.Ast.relop -> string = function
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let binop_name : Vrp_lang.Ast.binop -> string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"

(* Every constructor name [fns] use, [Ir]'s and the [Ast] ones inside it. *)
let constructors (fns : Ir.fn list) =
  let seen = Hashtbl.create 64 in
  let add n = Hashtbl.replace seen n () in
  let var (v : Vrp_ir.Var.t) = add (ty_name v.Vrp_ir.Var.ty) in
  let operand = function
    | Ir.Cint _ -> add "Cint"
    | Ir.Cfloat _ -> add "Cfloat"
    | Ir.Ovar v -> add "Ovar"; var v
  in
  let rhs = function
    | Ir.Op a -> add "Op"; operand a
    | Ir.Binop (op, a, b) -> add "Binop"; add (binop_name op); operand a; operand b
    | Ir.Unop (u, a) -> add (match u with Ir.Neg -> "Neg" | Ir.Bnot -> "Bnot"); operand a
    | Ir.Cmp (r, a, b) -> add "Cmp"; add (relop_name r); operand a; operand b
    | Ir.Load (_, i) -> add "Load"; operand i
    | Ir.Call (_, args) -> add "Call"; List.iter operand args
    | Ir.Phi args -> add "Phi"; List.iter (fun (_, a) -> operand a) args
    | Ir.Assertion { parent; arel; abound } ->
      add "Assertion"; var parent; add (relop_name arel); operand abound
  in
  let block (b : Ir.block) =
    List.iter
      (function
        | Ir.Def (v, r) -> add "Def"; var v; rhs r
        | Ir.Store (_, i, v) -> add "Store"; operand i; operand v)
      b.Ir.instrs;
    match b.Ir.term with
    | Ir.Jump _ -> add "Jump"
    | Ir.Br { rel; ba; bb; _ } -> add "Br"; add (relop_name rel); operand ba; operand bb
    | Ir.Ret None -> add "Ret None"
    | Ir.Ret (Some a) -> add "Ret Some"; operand a
  in
  List.iter
    (fun (fn : Ir.fn) ->
      add (ty_name fn.Ir.ret_ty);
      List.iter var fn.Ir.params;
      List.iter (fun (a : Ir.array_info) -> add (ty_name a.Ir.elem_ty)) fn.Ir.local_arrays;
      Ir.iter_blocks fn block)
    fns;
  seen

(* The compiler these digests were taken under: the digest folds it in. *)
let layout_ocaml = "5.1.1"

let layout_digests =
  [
    ("main", "014d7620abcd9e1f67e05c3992646e9e");
    ("mix", "b60c60e5b69449f299845d2beaff932c");
    ("note", "baf3e3698729d7d2c099b70a6387fccd");
    ("scale", "c9515c0c47e5ec2a3a59c5c5f4c7bb9c");
  ]

let ir_layout_tripwire () =
  let fns = (Helpers.compile layout_src).Pipeline.ssa.Ir.fns in
  let seen = constructors fns in
  let all =
    [ "Cint"; "Cfloat"; "Ovar"; "Op"; "Binop"; "Neg"; "Bnot"; "Cmp"; "Load"; "Call"; "Phi";
      "Assertion"; "Def"; "Store"; "Jump"; "Br"; "Ret None"; "Ret Some"; "int"; "float";
      "void"; "=="; "!="; "<"; "<="; ">"; ">="; "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^";
      "<<"; ">>" ]
  in
  List.iter
    (fun n -> if not (Hashtbl.mem seen n) then Alcotest.failf "layout_src no longer uses %s" n)
    all;
  let got =
    List.sort compare (List.map (fun (fn : Ir.fn) -> (fn.Ir.fname, Digest_key.fn_digest fn)) fns)
  in
  if got <> layout_digests then
    Alcotest.failf "%s\n  got: %s"
      (if Sys.ocaml_version <> layout_ocaml then
         Printf.sprintf "digests pinned under OCaml %s, running %s: update this list"
           layout_ocaml Sys.ocaml_version
       else "IR layout changed: bump Digest_key.format_version and update this list")
      (String.concat "; " (List.map (fun (f, d) -> Printf.sprintf "(%S, %S)" f d) got))

(* --- Suite IR golden ---

   [golden/ir-digests.txt] holds the {!Digest_key.fn_digest} of every
   function of every suite program, in [vrpc list] order, behind a header
   naming the compiler (the digest folds it in). Any change to φ order,
   variable numbering, block order or instruction order anywhere in the
   suite fails this test; a change meant only to make compiling faster must
   leave the file as it is. *)

let suite_ir_digests () =
  Printf.sprintf "# OCaml %s" Sys.ocaml_version
  :: List.concat_map
       (fun (b : Suite.benchmark) ->
         List.map
           (fun (fn : Ir.fn) ->
             Printf.sprintf "%s %s %s" b.Suite.name fn.Ir.fname (Digest_key.fn_digest fn))
           (Helpers.compile b.Suite.source).Pipeline.ssa.Ir.fns)
       Suite.benchmarks

let suite_ir_golden () =
  let golden = String.split_on_char '\n' (String.trim (Helpers.read_file "golden/ir-digests.txt")) in
  let got = suite_ir_digests () in
  if got <> golden then begin
    let missing = List.filter (fun l -> not (List.mem l got)) golden in
    let extra = List.filter (fun l -> not (List.mem l golden)) got in
    Alcotest.failf "suite IR differs from golden/ir-digests.txt\n  golden only: %s\n  now only: %s"
      (String.concat "; " missing) (String.concat "; " extra)
  end

(* --- Store behaviour --- *)

let some_summary = lazy (Helpers.analyze_main "int main(int n, int s) { return n; }")

let counters_check what (c : Summary_cache.counters) ~hits ~misses ~invalidations =
  Alcotest.(check int) (what ^ ": hits") hits c.Summary_cache.hits;
  Alcotest.(check int) (what ^ ": misses") misses c.Summary_cache.misses;
  Alcotest.(check int) (what ^ ": invalidations") invalidations c.Summary_cache.invalidations

let miss_hit_and_invalidation () =
  let t = Summary_cache.create () in
  let res = Lazy.force some_summary in
  let get ~stamp ~key = Summary_cache.find_or_compute t ~slot:("t", "f") ~stamp ~key (fun () -> res) in
  ignore (get ~stamp:"s1" ~key:"k1");
  counters_check "first lookup" (Summary_cache.counters t) ~hits:0 ~misses:1 ~invalidations:0;
  ignore (get ~stamp:"s1" ~key:"k1");
  counters_check "repeat lookup" (Summary_cache.counters t) ~hits:1 ~misses:1 ~invalidations:0;
  (* same slot under a new stamp: the function changed underneath us *)
  ignore (get ~stamp:"s2" ~key:"k2");
  counters_check "stamp change" (Summary_cache.counters t) ~hits:1 ~misses:2 ~invalidations:1

let lru_evicts_oldest () =
  let t = Summary_cache.create ~memory_capacity:4 () in
  let res = Lazy.force some_summary in
  let get key = ignore (Summary_cache.find_or_compute t ~slot:("t", key) ~stamp:"s" ~key (fun () -> res)) in
  List.iter get [ "k1"; "k2"; "k3"; "k4"; "k5" ];
  (* exceeding capacity 4 evicts down to 3 entries: k1 and k2 are gone *)
  get "k5";
  get "k1";
  let c = Summary_cache.counters t in
  Alcotest.(check int) "k5 still cached" 1 c.Summary_cache.hits;
  Alcotest.(check int) "k1 was evicted" 6 c.Summary_cache.misses

let temp_dir () =
  let path = Filename.temp_file "vrpcache" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let disk_tier_survives_processes () =
  let dir = temp_dir () in
  let res = Lazy.force some_summary in
  let writer = Summary_cache.create ~disk_dir:dir () in
  ignore (Summary_cache.find_or_compute writer ~slot:("t", "f") ~stamp:"s" ~key:"k1" (fun () -> res));
  (* a fresh store over the same directory models a new process *)
  let reader = Summary_cache.create ~disk_dir:dir () in
  let loaded =
    Summary_cache.find_or_compute reader ~slot:("t", "f") ~stamp:"s" ~key:"k1" (fun () ->
        Alcotest.fail "disk hit expected, compute ran")
  in
  Alcotest.(check string) "same function came back"
    res.Engine.fn.Ir.fname loaded.Engine.fn.Ir.fname;
  Alcotest.(check string) "same return range"
    (Vrp_ranges.Value.to_string res.Engine.return_value)
    (Vrp_ranges.Value.to_string loaded.Engine.return_value);
  let c = Summary_cache.counters reader in
  Alcotest.(check int) "served from disk" 1 c.Summary_cache.disk_hits;
  (* a corrupt entry is a miss, never an error *)
  let oc = open_out_bin (Filename.concat dir "k2.sum") in
  output_string oc "garbage";
  close_out oc;
  let computed = ref false in
  ignore
    (Summary_cache.find_or_compute reader ~slot:("t", "g") ~stamp:"s" ~key:"k2" (fun () ->
         computed := true;
         res));
  Alcotest.(check bool) "corrupt file fell back to compute" true !computed

(* --- Disk-tier integrity: corruption is a counted miss, never a crash --- *)

let entry_path dir key = Filename.concat dir (key ^ ".sum")

(* Write one real entry through the cache, then hand the file to [mangle]
   and assert a fresh store treats the lookup as a recomputing miss with
   the expected invalidation/quarantine accounting. *)
let corruption_case what ~mangle ~quarantined_delta () =
  let dir = temp_dir () in
  let res = Lazy.force some_summary in
  let writer = Summary_cache.create ~disk_dir:dir () in
  ignore (Summary_cache.find_or_compute writer ~slot:("t", "f") ~stamp:"s" ~key:"k1" (fun () -> res));
  mangle (entry_path dir "k1");
  let reader = Summary_cache.create ~disk_dir:dir () in
  let computed = ref false in
  ignore
    (Summary_cache.find_or_compute reader ~slot:("t", "f") ~stamp:"s" ~key:"k1" (fun () ->
         computed := true;
         res));
  Alcotest.(check bool) (what ^ ": fell back to compute") true !computed;
  let c = Summary_cache.counters reader in
  Alcotest.(check int) (what ^ ": one miss") 1 c.Summary_cache.misses;
  Alcotest.(check int) (what ^ ": no hits") 0 c.Summary_cache.hits;
  Alcotest.(check int) (what ^ ": invalidation counted") 1 c.Summary_cache.invalidations;
  Alcotest.(check int) (what ^ ": quarantine accounting") quarantined_delta
    c.Summary_cache.quarantined;
  (* the recomputed entry was rewritten; a third store serves it again *)
  let again = Summary_cache.create ~disk_dir:dir () in
  ignore
    (Summary_cache.find_or_compute again ~slot:("t", "f") ~stamp:"s" ~key:"k1" (fun () ->
         Alcotest.fail (what ^ ": repaired entry should hit")));
  Alcotest.(check int)
    (what ^ ": repaired entry served from disk")
    1 (Summary_cache.counters again).Summary_cache.disk_hits

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let truncated_entry_is_quarantined =
  corruption_case "truncated entry" ~quarantined_delta:1 ~mangle:(fun path ->
      let s = Helpers.read_file path in
      write_file path (String.sub s 0 (String.length s / 2)))

let bitflip_is_quarantined =
  corruption_case "bit-flipped payload" ~quarantined_delta:1 ~mangle:(fun path ->
      let b = Bytes.of_string (Helpers.read_file path) in
      let i = Bytes.length b - 3 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      write_file path (Bytes.to_string b))

let wrong_version_is_dropped_not_quarantined =
  (* A clean frame from a future format: no foul play, so it is removed and
     recomputed without quarantine. Framing mirrors the store's layout. *)
  corruption_case "wrong format version" ~quarantined_delta:0 ~mangle:(fun path ->
      let res = Lazy.force some_summary in
      let payload =
        Marshal.to_string (Digest_key.format_version + 1, res) []
      in
      write_file path
        (Printf.sprintf "vrpsum2%08x%s%s" (String.length payload)
           (Digest.to_hex (Digest.string payload))
           payload))

let quarantine_moves_entry_aside () =
  let dir = temp_dir () in
  let res = Lazy.force some_summary in
  let writer = Summary_cache.create ~disk_dir:dir () in
  ignore (Summary_cache.find_or_compute writer ~slot:("t", "f") ~stamp:"s" ~key:"k1" (fun () -> res));
  write_file (entry_path dir "k1") "garbage";
  let reader = Summary_cache.create ~disk_dir:dir () in
  ignore (Summary_cache.find_or_compute reader ~slot:("t", "f") ~stamp:"s" ~key:"k1" (fun () -> res));
  Alcotest.(check bool) "corrupt bytes moved to .bad" true
    (Sys.file_exists (entry_path dir "k1" ^ ".bad"))

let corrupt_cache_fault_round_trip () =
  (* The injected bit-flip happens under the original checksum, so every
     poisoned write must come back as a quarantined miss — and the result
     values must be unaffected because corruption only costs recomputation. *)
  let dir = temp_dir () in
  let sources = [ ("t.mc", src) ] in
  let fresh = Batch.render (Batch.analyze_sources ~jobs:1 sources) in
  let poisoned =
    Summary_cache.create ~disk_dir:dir
      ~fault:(Vrp_diag.Diag.Fault.Corrupt_cache 1) ()
  in
  ignore (Batch.analyze_sources ~cache:poisoned ~jobs:1 sources);
  let reader = Summary_cache.create ~disk_dir:dir () in
  let warm = Batch.render (Batch.analyze_sources ~cache:reader ~jobs:1 sources) in
  Alcotest.(check string) "fully corrupted tier still yields the right report"
    fresh warm;
  let c = Summary_cache.counters reader in
  Alcotest.(check int) "nothing served from the poisoned tier" 0
    c.Summary_cache.disk_hits;
  Alcotest.(check bool) "every disk entry quarantined" true
    (c.Summary_cache.quarantined > 0
    && c.Summary_cache.quarantined = c.Summary_cache.misses)

let maintenance_sweeps_debris_and_evicts () =
  let dir = temp_dir () in
  let res = Lazy.force some_summary in
  let writer = Summary_cache.create ~disk_dir:dir () in
  List.iteri
    (fun i key ->
      ignore
        (Summary_cache.find_or_compute writer ~slot:("t", key) ~stamp:"s" ~key (fun () -> res));
      (* age entries deterministically: mtime drives eviction order *)
      let age = float_of_int (1_000_000 + i) in
      Unix.utimes (entry_path dir key) age age)
    [ "k1"; "k2"; "k3" ];
  (* debris a killed writer would leave behind *)
  write_file (Filename.concat dir "k9.sum.tmp.123.4") "partial";
  write_file (Filename.concat dir "k8.sum.bad") "old quarantine";
  Summary_cache.close writer;  (* the writing "process" exits *)
  let entry_size = (Unix.stat (entry_path dir "k1")).Unix.st_size in
  Alcotest.(check bool) "entries are small enough for a 1 MB budget" true
    (3 * entry_size < 1024 * 1024);
  let t = Summary_cache.create ~disk_dir:dir ~max_disk_mb:0 () in
  Alcotest.(check bool) "fresh store took the maintenance lock" true
    (Summary_cache.holds_maintenance_lock t);
  Alcotest.(check bool) "stale tmp swept" false
    (Sys.file_exists (Filename.concat dir "k9.sum.tmp.123.4"));
  Alcotest.(check bool) "old quarantine swept" false
    (Sys.file_exists (Filename.concat dir "k8.sum.bad"));
  (* budget 0 MB: every entry is over budget, oldest deleted first — all go *)
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " evicted") false
        (Sys.file_exists (entry_path dir key)))
    [ "k1"; "k2"; "k3" ]

let eviction_is_oldest_first () =
  let dir = temp_dir () in
  let res = Lazy.force some_summary in
  let writer = Summary_cache.create ~disk_dir:dir () in
  List.iteri
    (fun i key ->
      ignore
        (Summary_cache.find_or_compute writer ~slot:("t", key) ~stamp:"s" ~key (fun () -> res));
      let age = float_of_int (1_000_000 + i) in
      Unix.utimes (entry_path dir key) age age)
    [ "k1"; "k2"; "k3"; "k4" ];
  Summary_cache.close writer;
  let entry_size = (Unix.stat (entry_path dir "k1")).Unix.st_size in
  (* a budget that holds roughly half the tier: the two oldest must go *)
  let budget_mb = max 1 (2 * entry_size / (1024 * 1024)) in
  if 4 * entry_size > budget_mb * 1024 * 1024 then begin
    ignore (Summary_cache.create ~disk_dir:dir ~max_disk_mb:budget_mb ());
    Alcotest.(check bool) "oldest entry evicted" false
      (Sys.file_exists (entry_path dir "k1"));
    Alcotest.(check bool) "newest entry kept" true
      (Sys.file_exists (entry_path dir "k4"))
  end

let concurrent_stores_share_a_directory () =
  let dir = temp_dir () in
  let res = Lazy.force some_summary in
  let first = Summary_cache.create ~disk_dir:dir () in
  let second = Summary_cache.create ~disk_dir:dir () in
  Alcotest.(check bool) "first store holds the lock" true
    (Summary_cache.holds_maintenance_lock first);
  Alcotest.(check bool) "second store is denied maintenance" false
    (Summary_cache.holds_maintenance_lock second);
  ignore (Summary_cache.find_or_compute first ~slot:("t", "f") ~stamp:"s" ~key:"k1" (fun () -> res));
  ignore
    (Summary_cache.find_or_compute second ~slot:("t", "f") ~stamp:"s" ~key:"k1" (fun () ->
         Alcotest.fail "second store should read the first store's entry"));
  Alcotest.(check int) "entry flowed across stores" 1
    (Summary_cache.counters second).Summary_cache.disk_hits;
  (* releasing the lock hands maintenance to the next store *)
  Summary_cache.close first;
  let third = Summary_cache.create ~disk_dir:dir () in
  Alcotest.(check bool) "released lock is re-acquirable" true
    (Summary_cache.holds_maintenance_lock third)

(* --- Batch file records: a re-run on the same cache resumes --- *)

let file_hits cache = (Summary_cache.counters cache).Summary_cache.file_hits

(* An interrupted batch completed the first six corpus files; the re-run of
   all ten on the reopened cache serves those six whole, without a summary
   lookup (so without an engine run), and prints what a cold run prints. *)
let interrupted_run_resumes () =
  let sources = List.map (fun p -> (p, Helpers.read_file p)) (Batch.list_dir "corpus") in
  let completed = List.filteri (fun i _ -> i < 6) sources
  and rest = List.filteri (fun i _ -> i >= 6) sources in
  let dir = temp_dir () in
  let first = Summary_cache.create ~disk_dir:dir () in
  ignore (Batch.analyze_sources ~cache:first ~jobs:1 completed);
  Summary_cache.close first;
  let reopened = Summary_cache.create ~disk_dir:dir () in
  Alcotest.(check string) "resumed report == cold report"
    (Batch.render (Batch.analyze_sources ~jobs:1 sources))
    (Batch.render (Batch.analyze_sources ~cache:reopened ~jobs:Helpers.test_jobs sources));
  Alcotest.(check int) "every completed file served whole" 6 (file_hits reopened);
  let lookups c = c.Summary_cache.hits + c.Summary_cache.misses in
  let alone = Summary_cache.create () in
  ignore (Batch.analyze_sources ~cache:alone ~jobs:1 rest);
  Alcotest.(check int) "summary lookups: the unfinished files' only"
    (lookups (Summary_cache.counters alone))
    (lookups (Summary_cache.counters reopened))

(* A deadline cut is not a function of the record's key: the cut file is
   never recorded, so the next run analyses it again and is cut again. *)
let deadline_cut_file_never_recorded () =
  let config = { Engine.default_config with Engine.fault = Some (Diag.Fault.Hang_fn "helper") } in
  let dir = temp_dir () in
  let run () =
    let cache = Summary_cache.create ~disk_dir:dir () in
    let hits () = (Supervisor.counters ()).Supervisor.deadline_hits in
    let before = hits () in
    ignore (Batch.analyze_sources ~config ~cache ~within_ms:100 ~jobs:1 [ ("t.mc", src) ]);
    (file_hits cache, hits () - before)
  in
  Alcotest.(check (pair int int)) "first run: cut" (0, 1) (run ());
  Alcotest.(check (pair int int)) "second run: no record, cut again" (0, 1) (run ())

(* A record that fails its checksum, or a summary frame where a record
   should be, is quarantined and the file recomputed and recorded anew. *)
let corrupted_file_record_quarantined () =
  let sources = [ ("t.mc", src) ] in
  let fresh = Batch.render (Batch.analyze_sources ~jobs:1 sources) in
  let dir = temp_dir () in
  let key =
    Digest_key.file_key ~source:src ~config_digest:(Digest_key.config_digest Engine.default_config)
  in
  let record = entry_path dir key in
  let rerun what =
    let reader = Summary_cache.create ~disk_dir:dir () in
    Alcotest.(check string) (what ^ ": recomputed, same report") fresh
      (Batch.render (Batch.analyze_sources ~cache:reader ~jobs:1 sources));
    Summary_cache.counters reader
  in
  ignore (rerun "cold");
  let frame = Helpers.read_file record in
  let b = Bytes.of_string frame in
  let i = Bytes.length b - 3 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  write_file record (Bytes.to_string b);
  let c = rerun "bit-flipped" in
  Alcotest.(check (list int)) "bit-flipped: no file hit, one quarantined" [ 0; 1 ]
    [ c.Summary_cache.file_hits; c.Summary_cache.quarantined ];
  Alcotest.(check bool) "bit-flipped: evidence kept" true (Sys.file_exists (record ^ ".bad"));
  let summary =
    Array.to_list (Sys.readdir dir)
    |> List.find (fun f -> Filename.check_suffix f ".sum" && f <> key ^ ".sum")
  in
  write_file record (Helpers.read_file (Filename.concat dir summary));
  let c = rerun "summary frame" in
  Alcotest.(check (list int)) "summary frame: no file hit, one quarantined" [ 0; 1 ]
    [ c.Summary_cache.file_hits; c.Summary_cache.quarantined ];
  Alcotest.(check int) "the rewritten record is served" 1 (rerun "repaired").Summary_cache.file_hits

(* --- Cached == fresh, end to end --- *)

let warm_run_computes_nothing () =
  let sources = [ ("t.mc", src) ] in
  let fresh = Batch.render (Batch.analyze_sources ~jobs:1 sources) in
  let cache = Summary_cache.create () in
  let cold = Batch.render (Batch.analyze_sources ~cache ~jobs:1 sources) in
  let after_cold = Summary_cache.counters cache in
  let warm = Batch.render (Batch.analyze_sources ~cache ~jobs:1 sources) in
  let after_warm = Summary_cache.counters cache in
  Alcotest.(check string) "cold run matches uncached analysis" fresh cold;
  Alcotest.(check string) "warm run matches uncached analysis" fresh warm;
  Alcotest.(check int) "warm run misses nothing" after_cold.Summary_cache.misses
    after_warm.Summary_cache.misses;
  Alcotest.(check bool) "warm run actually hit" true
    (after_warm.Summary_cache.hits > after_cold.Summary_cache.hits)

let config_change_invalidates () =
  let sources = [ ("t.mc", src) ] in
  let cache = Summary_cache.create () in
  ignore (Batch.analyze_sources ~cache ~jobs:1 sources);
  Alcotest.(check int) "first run sees only fresh slots" 0
    (Summary_cache.counters cache).Summary_cache.invalidations;
  ignore (Batch.analyze_sources ~config:Engine.numeric_only_config ~cache ~jobs:1 sources);
  Alcotest.(check bool) "config flip invalidates every cached function" true
    ((Summary_cache.counters cache).Summary_cache.invalidations > 0)

(* A cache hit replays the engine's diagnostics at the engine's own
   severities, so [--strict] gives one verdict whether the summaries came
   from the engine, a cold cache, a warm cache or the one-shot command. *)
let strict_verdict_ignores_the_cache () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let sources = [ (b.Suite.name ^ ".mc", b.Suite.source) ] in
      let strict ?cache () =
        Batch.exit_code ~strict:true (Batch.analyze_sources ?cache ~jobs:1 sources)
      in
      let uncached = strict () in
      let cache = Summary_cache.create () in
      let cold = strict ~cache () in
      let warm = strict ~cache () in
      let one_shot =
        (Ops.predict ~opts:{ Ops.default_opts with Ops.strict = true } ~source:b.Suite.source ())
          .Ops.code
      in
      Alcotest.(check (list int))
        (b.Suite.name ^ ": uncached, cold, warm, one-shot")
        [ uncached; uncached; uncached; uncached ]
        [ uncached; cold; warm; one_shot ])
    Suite.benchmarks

(* A warm run repeats the cold run: the same batch report and, file by
   file, the same rendered diagnostics — a hit replays the diagnostics the
   summary's engine run emitted, not a digest of them. *)
let cached_equals_fresh_prop =
  Helpers.qtest ~count:15 "synth programs: cached == fresh report"
    QCheck2.Gen.(pair (int_range 4 24) (int_range 0 1_000_000))
    (fun (units, seed) ->
      let sources = [ ("synth.mc", Vrp_suite.Synth.generate ~units ~seed ()) ] in
      let diags results =
        List.map (fun (r : Batch.file_result) -> Diag.render r.Batch.report) results
      in
      let fresh = Batch.analyze_sources ~jobs:1 sources in
      let cache = Summary_cache.create () in
      ignore (Batch.analyze_sources ~cache ~jobs:1 sources);
      let warm = Batch.analyze_sources ~cache ~jobs:1 sources in
      String.equal (Batch.render fresh) (Batch.render warm)
      && List.equal String.equal (diags fresh) (diags warm)
      && (Summary_cache.counters cache).Summary_cache.hits > 0)

(* --- Compile memo --- *)

(* The memo's table and a cold compile's, by function: digest and callees. *)
let key_list keys =
  Hashtbl.fold
    (fun f (k : Digest_key.fn_key) acc -> (f, k.Digest_key.digest, k.Digest_key.callees) :: acc)
    keys []
  |> List.sort compare

let memo_compile ?(file = "t.mc") cache source =
  match Summary_cache.compile ~file cache source with
  | Ok r -> r
  | Error d -> Alcotest.failf "memo compile failed: %s" d.Diag.message

(* Blank lines at the start of line [k] (mod the line count): tokens never
   change, but every later function moves down. *)
let insert_lines source ~at ~count =
  let lines = String.split_on_char '\n' source in
  let at = at mod List.length lines in
  String.concat "\n"
    (List.concat (List.mapi (fun i l -> if i = at then List.init count (fun _ -> "") @ [ l ] else [ l ]) lines))

(* A program's baseline columns as a sorted [(branch, probability)] list. *)
let column_list (p : Predictor.prediction) = List.sort compare (List.of_seq (Hashtbl.to_seq p))

(* The columns a compile carries, as {!column_list}s: Ball–Larus, 90/50. *)
let served_columns (c : Pipeline.compiled) =
  let bl = Hashtbl.create 16 and nf = Hashtbl.create 16 in
  List.iter2
    (fun (fn : Ir.fn) (b : Predictor.baselines) ->
      List.iteri
        (fun i (bid, _) ->
          Hashtbl.replace bl (fn.Ir.fname, bid) b.Predictor.ball_larus.(i);
          Hashtbl.replace nf (fn.Ir.fname, bid) b.Predictor.ninety_fifty.(i))
        (Predictor.fn_branches fn))
    c.Pipeline.ssa.Ir.fns
    (Option.get c.Pipeline.baselines);
  (column_list bl, column_list nf)

(* After random one-function edits, some of which also insert lines, the
   memo serves a program with the same digest table and the same baseline
   columns as a cold compile, and builds only the edited function. A
   line-only shift builds nothing and serves the stored columns. *)
let memo_matches_cold seed =
  let module Gen = Vrp_fuzz.Gen in
  let module Ast = Vrp_lang.Ast in
  List.for_all
    (fun (p : Gen.profile) ->
      let rng = Vrp_util.Prng.create (Vrp_fuzz.Runner.mix_seed seed p.Gen.pname 0) in
      let cache = Summary_cache.create () in
      let agrees source =
        let before = (Summary_cache.counters cache).Summary_cache.compile_misses in
        let c, keys = memo_compile ~file:"prop" cache source in
        let cold_ssa = (Pipeline.compile source).Pipeline.ssa in
        let cold = Digest_key.fn_keys cold_ssa in
        let columns =
          served_columns c
          = (column_list (Predictor.ball_larus cold_ssa), column_list (Predictor.ninety_fifty cold_ssa))
        in
        ( key_list keys = key_list cold
          && key_list (Digest_key.fn_keys c.Pipeline.ssa) = key_list cold
          && columns,
          (Summary_cache.counters cache).Summary_cache.compile_misses - before,
          Option.get c.Pipeline.baselines )
      in
      let rec steps ast n =
        n = 0
        ||
        let k = Vrp_util.Prng.int rng (List.length ast.Ast.funcs) in
        let probe = Ast.Sdecl (Ast.Tint, Printf.sprintf "edit_probe%d" n, Ast.Iscalar (Some (Ast.Int seed))) in
        let edit i (f : Ast.func) =
          if i = k then { f with Ast.body = { Ast.sline = 0; sdesc = probe } :: f.Ast.body } else f
        in
        let edited = { ast with Ast.funcs = List.mapi edit ast.Ast.funcs } in
        let source = Vrp_lang.Pretty.program_to_string edited in
        let lines = Vrp_util.Prng.int rng 3 in
        let source = insert_lines source ~at:(Vrp_util.Prng.int rng 1000) ~count:lines in
        let same, built, columns = agrees source in
        (* Lines alone rebuild nothing, columns included. *)
        let shifted, rebuilt, columns' =
          agrees (insert_lines source ~at:(Vrp_util.Prng.int rng 1000) ~count:1)
        in
        same && built = 1 && shifted && rebuilt = 0
        && List.for_all2 ( == ) columns columns'
        && steps edited (n - 1)
      in
      let ast = Gen.program rng ~weights:p.Gen.weights in
      let first, _, _ = agrees (Vrp_lang.Pretty.program_to_string ast) in
      first && steps ast 3)
    Gen.profiles

let memo_property =
  Helpers.qtest ~count:20 "compile memo: edits serve the cold digests"
    QCheck2.Gen.(int_bound 1_000_000)
    memo_matches_cold

(* [evict_memory] drops compiled entries: the next compile builds every
   function again. *)
let evict_drops_compiled () =
  let cache = Summary_cache.create () in
  let misses () = (Summary_cache.counters cache).Summary_cache.compile_misses in
  let hits () = (Summary_cache.counters cache).Summary_cache.compile_hits in
  ignore (memo_compile cache src);
  Alcotest.(check (pair int int)) "cold: both functions built" (0, 2) (hits (), misses ());
  ignore (memo_compile cache src);
  Alcotest.(check (pair int int)) "warm: both served" (2, 2) (hits (), misses ());
  let e = Summary_cache.evict_memory cache in
  Alcotest.(check (pair int int)) "evicted: no results, two compiled" (0, 2)
    (e.Summary_cache.results, e.Summary_cache.compiled);
  ignore (memo_compile cache src);
  Alcotest.(check (pair int int)) "after evict: both built again" (2, 4) (hits (), misses ());
  let c = Summary_cache.counters cache in
  Alcotest.(check (list int)) "summary counters untouched" [ 0; 0; 0 ]
    [ c.Summary_cache.hits; c.Summary_cache.misses; c.Summary_cache.stores ]

(* --- Persisted layout tripwire ---

   A warm [--cache] reads a [vrpsum2] body back as [(int * Engine.t)], and
   a [vrpfile1] file record's payload as a [Batch.file_result]. Marshal reads whatever
   layout the bytes were written under, so a field or constructor added,
   removed or reordered in any of these types, or in [Value.t], [Srange.t],
   [Sym.t], [Var.t] or [Diag.diag] inside them, needs a bump of
   [Digest_key.format_version], which every persisted key folds in. The
   values below are record literals (a field added or removed stops them
   compiling) that use every [Value] and [Diag] constructor (the exhaustive
   matches stop compiling when one is added), and their digests are
   pinned. *)

let value_name : Vrp_ranges.Value.t -> string = function
  | Top -> "Top" | Ranges _ -> "Ranges" | Bottom -> "Bottom"

let severity_name : Diag.severity -> string = function
  | Info -> "Info" | Warning -> "Warning" | Error -> "Error"

let kind_name : Diag.kind -> string = function
  | Budget_exhausted -> "Budget_exhausted" | Widened -> "Widened"
  | Analysis_crashed -> "Analysis_crashed" | Fallback_heuristic -> "Fallback_heuristic"
  | Front_end_error -> "Front_end_error" | Fault_injected -> "Fault_injected"
  | Deadline_exceeded -> "Deadline_exceeded" | Note -> "Note"

let persisted_values () =
  let module Value = Vrp_ranges.Value in
  let var = { Vrp_ir.Var.id = 0; base = "n"; version = 1; ty = Vrp_lang.Ast.Tint } in
  let srange =
    { Vrp_ranges.Srange.p = 0.5;
      lo = { Vrp_ranges.Sym.base = Some var; off = 1 };
      hi = { Vrp_ranges.Sym.base = None; off = 9 };
      stride = 2 }
  in
  let values = [ Value.Top; Value.Ranges [ srange ]; Value.Bottom ] in
  let severities = [ Diag.Info; Diag.Warning; Diag.Error ] in
  let kinds =
    [ Diag.Budget_exhausted; Widened; Analysis_crashed; Fallback_heuristic; Front_end_error;
      Fault_injected; Deadline_exceeded; Note ]
  in
  let diags =
    List.mapi
      (fun i kind ->
        { Diag.severity = List.nth severities (i mod 3);
          kind;
          loc = { Diag.fn = (if i = 0 then None else Some "main"); block = Some i };
          message = kind_name kind })
      kinds
  in
  let fn =
    { Ir.fname = "main";
      ret_ty = Vrp_lang.Ast.Tint;
      params = [ var ];
      blocks = [| { Ir.bid = 0; instrs = []; term = Ir.Ret (Some (Ir.Ovar var)); preds = [] } |];
      nvars = 1;
      local_arrays = [] }
  in
  let branch_probs = Hashtbl.create ~random:false 1 and branch_fallback = Hashtbl.create ~random:false 1 in
  Hashtbl.replace branch_probs 0 0.75;
  Hashtbl.replace branch_fallback 0 true;
  let summary : Engine.t =
    { fn;
      values = Array.of_list values;
      branch_probs;
      branch_fallback;
      visited = [| true |];
      evaluations = 3;
      calls_seen = [ ((0, 1), ("f", values)) ];
      return_value = Value.Ranges [ srange ];
      fuel_limit = 100;
      fuel_spent = 7;
      fuel_exhausted = false;
      diags }
  in
  let report = Diag.create () in
  Diag.append report diags;
  let result : Batch.file_result =
    { name = "f.mc";
      error = Some "e";
      functions = 1;
      predictions = [ (("main", 0), 0.75, "*") ];
      demoted = [ ("main", "why") ];
      report;
      evaluations = 3 }
  in
  ( List.map value_name values @ List.map severity_name severities @ List.map kind_name kinds,
    [ ("engine", Digest.string (Marshal.to_string summary [ Marshal.No_sharing ]));
      ("file_result", Digest.string (Marshal.to_string result [ Marshal.No_sharing ])) ] )

let persisted_digests =
  [
    ("engine", "b3554a62cdf15d32a772cbfd2b271dcd");
    ("file_result", "9bacd0ea38b7d7dfa0deb146381177c5");
  ]

let persisted_layout_tripwire () =
  let names, digests = persisted_values () in
  Alcotest.(check int) "every Value and Diag constructor used" (3 + 3 + 8)
    (List.length (List.sort_uniq compare names));
  let got = List.map (fun (what, d) -> (what, Digest.to_hex d)) digests in
  if got <> persisted_digests then
    Alcotest.failf "%s\n  got: %s"
      (if Sys.ocaml_version <> layout_ocaml then
         Printf.sprintf "digests pinned under OCaml %s, running %s: update this list"
           layout_ocaml Sys.ocaml_version
       else "a persisted layout changed: bump Digest_key.format_version and update this list")
      (String.concat "; " (List.map (fun (f, d) -> Printf.sprintf "(%S, %S)" f d) got))

let suite =
  ( "cache",
    [
      tc "digest: stable across recompiles" `Quick digest_stable_across_recompiles;
      tc "digest: sensitive to IR edits" `Quick digest_changes_on_ir_edit;
      tc "digest: config knobs all keyed" `Quick config_digest_covers_every_knob;
      tc "digest: task key covers analysis inputs" `Quick task_key_depends_on_inputs;
      tc "digest: callees include self-calls" `Quick callees_include_self_calls;
      tc "digest: IR layout tripwire" `Quick ir_layout_tripwire;
      tc "digest: suite IR matches its golden" `Quick suite_ir_golden;
      tc "store: miss, hit, invalidation" `Quick miss_hit_and_invalidation;
      tc "store: LRU evicts the oldest" `Quick lru_evicts_oldest;
      tc "store: disk tier round-trips" `Quick disk_tier_survives_processes;
      tc "disk: truncated entry quarantined" `Quick truncated_entry_is_quarantined;
      tc "disk: bit-flip quarantined" `Quick bitflip_is_quarantined;
      tc "disk: stale format dropped cleanly" `Quick wrong_version_is_dropped_not_quarantined;
      tc "disk: quarantine preserves evidence" `Quick quarantine_moves_entry_aside;
      tc "disk: corrupt-cache fault round-trip" `Quick corrupt_cache_fault_round_trip;
      tc "disk: maintenance sweeps and evicts" `Quick maintenance_sweeps_debris_and_evicts;
      tc "disk: eviction is oldest-first" `Quick eviction_is_oldest_first;
      tc "disk: two stores share a directory" `Quick concurrent_stores_share_a_directory;
      tc "batch: warm run computes nothing" `Quick warm_run_computes_nothing;
      tc "batch: config change invalidates" `Quick config_change_invalidates;
      tc "batch: strict verdict ignores the cache" `Quick strict_verdict_ignores_the_cache;
      tc "batch: an interrupted run resumes from its cache" `Quick interrupted_run_resumes;
      tc "batch: a deadline-cut file is never recorded" `Quick deadline_cut_file_never_recorded;
      tc "disk: corrupt file record recomputed" `Quick corrupted_file_record_quarantined;
      cached_equals_fresh_prop;
      tc "compile memo: evict drops compiled entries" `Quick evict_drops_compiled;
      memo_property;
      tc "digest: persisted layout tripwire" `Quick persisted_layout_tripwire;
    ] )
