(** Content-addressed keys for function summaries (see the interface).

    Every key is an MD5 over [Marshal] with sharing disabled: the IR, the
    configuration, the parameter values and the oracle answers are acyclic
    trees, so the bytes are a function of structure alone. Marshal writes a
    constructor as its position in the type, so reordering a
    constructor of [Ir] or of [Ast.ty], [relop] or [binop] gives old bytes
    a new meaning; the IR and configuration digests therefore fold in
    [format_version] and [Sys.ocaml_version], and a cache test pins the
    digests of a program that uses every such constructor. *)

module Ir = Vrp_ir.Ir
module Value = Vrp_ranges.Value
module Engine = Vrp_core.Engine

let format_version = 6

let marshal_digest v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])

(* --- IR digest --- *)

let static_callees (fn : Ir.fn) =
  let names = ref [] in
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun instr ->
          match instr with
          | Ir.Def (_, Ir.Call (callee, _)) -> names := callee :: !names
          | Ir.Def _ | Ir.Store _ -> ())
        b.Ir.instrs);
  List.sort_uniq String.compare !names

(* Every field of the function and its blocks except the blocks' [preds]
   cache, which the terminators determine. *)
let fn_digest (fn : Ir.fn) =
  let blocks = Array.map (fun (b : Ir.block) -> (b.Ir.bid, b.Ir.instrs, b.Ir.term)) fn.Ir.blocks in
  let projection =
    ( format_version,
      Sys.ocaml_version,
      fn.Ir.fname,
      fn.Ir.ret_ty,
      fn.Ir.params,
      fn.Ir.local_arrays,
      fn.Ir.nvars,
      blocks )
  in
  Digest.to_hex (marshal_digest projection)

type fn_key = { digest : string; callees : string list }

let fn_key fn = { digest = fn_digest fn; callees = static_callees fn }

let fn_keys (program : Ir.program) =
  let keys = Hashtbl.create 16 in
  List.iter (fun (fn : Ir.fn) -> Hashtbl.replace keys fn.Ir.fname (fn_key fn)) program.Ir.fns;
  keys

(* --- Compile memo keys ---

   Lowering reads a function's AST, every function's return type and the
   global tables, and no IR carries a source line: lines are erased, so an
   edit that only shifts a function down the file keeps its key. The keys
   name memory-only entries, so they need no format version. *)

module Ast = Vrp_lang.Ast

let compile_env (p : Ast.program) =
  marshal_digest
    ( List.map (fun (f : Ast.func) -> (f.Ast.fname, f.Ast.fty)) p.Ast.funcs,
      List.map (fun (g : Ast.global) -> (g.Ast.gty, g.Ast.gname, g.Ast.gsize)) p.Ast.globals )

(* [f] with every line it carries, its own and its statements', set to 0. *)
let erase_lines (f : Ast.func) : Ast.func =
  let rec stmt (s : Ast.stmt) : Ast.stmt = { sline = 0; sdesc = desc s.sdesc }
  and desc : Ast.stmt_desc -> Ast.stmt_desc = function
    | Sif (c, t, e) -> Sif (c, block t, Option.map block e)
    | Swhile (c, b) -> Swhile (c, block b)
    | Sfor (init, c, step, b) -> Sfor (Option.map stmt init, c, Option.map stmt step, block b)
    | (Sdecl _ | Sassign _ | Sreturn _ | Sbreak | Scontinue | Sexpr _) as d -> d
  and block b = List.map stmt b in
  { f with fline = 0; body = block f.body }

let compile_key ~env (f : Ast.func) =
  "compile-" ^ Digest.to_hex (marshal_digest (env, erase_lines f))

(* --- Configuration ---

   The whole record is digested, so a new [Engine.config] field is keyed
   without further edits (the cache tests flip each analysis-relevant flag
   and assert the digest moves). [cancel] is the one exception: a
   supervision token is non-semantic (it can only abort an analysis, never
   change its result), and keying on it would make every supervised call a
   spurious miss. [max_ranges] is a global tunable the engine reads outside
   its config record. *)

let config_digest (c : Engine.config) =
  Digest.to_hex
    (marshal_digest
       (format_version, Sys.ocaml_version, { c with Engine.cancel = None },
        !Vrp_ranges.Config.max_ranges))

(* --- Analysis inputs --- *)

let task_key ~fn_digest ~config_digest ~param_values ~callee_returns =
  String.concat "-"
    [ fn_digest; config_digest; Digest.to_hex (marshal_digest (param_values, callee_returns)) ]

(* --- Whole replies --- *)

let reply_key ~source_md5 ~config_digest ~diagnostics ~strict =
  "reply-" ^ Digest.to_hex (marshal_digest (source_md5, config_digest, diagnostics, strict))

(* --- Whole batch files --- *)

let file_key ~source ~config_digest =
  String.concat "-" [ "file"; Digest.to_hex (Digest.string source); config_digest ]
