(** Content-addressed keys for function summaries (see the interface).

    A function's IR, the parameter values and the oracle answers are
    digested through [Marshal] with sharing disabled: they are acyclic
    trees, so the bytes are a function of structure alone. Marshal writes a
    constructor as its position in the type, so reordering a
    constructor of [Ir] or of [Ast.ty], [relop] or [binop] gives old bytes
    a new meaning; the IR digest therefore folds in [format_version] and
    [Sys.ocaml_version], and a cache test pins the digests of a program
    that uses every such constructor. The configuration and reply keys
    keep an explicit serializer: ints in decimal, floats by IEEE-754 bit
    pattern, strings length-prefixed, one-byte tags. *)

module Ir = Vrp_ir.Ir
module Value = Vrp_ranges.Value
module Engine = Vrp_core.Engine

let format_version = 4

(* --- Primitive serializers --- *)

let add_tag buf c = Buffer.add_char buf c

let add_int buf n =
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf ';'

let add_float buf f =
  Buffer.add_string buf (Printf.sprintf "%Lx" (Int64.bits_of_float f));
  Buffer.add_char buf ';'

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_list buf add xs =
  add_int buf (List.length xs);
  List.iter (add buf) xs

let add_option buf add = function
  | None -> add_tag buf 'N'
  | Some x ->
    add_tag buf 'S';
    add buf x

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
  Digest.to_hex (Digest.string (Marshal.to_string projection [ Marshal.No_sharing ]))

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

let rec erase_stmt (s : Ast.stmt) = { Ast.sline = 0; sdesc = erase_desc s.Ast.sdesc }

and erase_desc = function
  | Ast.Sif (c, t, e) -> Ast.Sif (c, erase_block t, Option.map erase_block e)
  | Ast.Swhile (c, b) -> Ast.Swhile (c, erase_block b)
  | Ast.Sfor (init, c, step, b) ->
    Ast.Sfor (Option.map erase_stmt init, c, Option.map erase_stmt step, erase_block b)
  | (Ast.Sdecl _ | Ast.Sassign _ | Ast.Sreturn _ | Ast.Sbreak | Ast.Scontinue | Ast.Sexpr _)
    as d -> d

and erase_block b = List.map erase_stmt b

let marshal_digest v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])

let compile_env (p : Ast.program) =
  marshal_digest
    ( List.map (fun (f : Ast.func) -> (f.Ast.fname, f.Ast.fty)) p.Ast.funcs,
      List.map (fun (g : Ast.global) -> (g.Ast.gty, g.Ast.gname, g.Ast.gsize)) p.Ast.globals )

let compile_key ~env (f : Ast.func) =
  "compile-"
  ^ Digest.to_hex (marshal_digest (env, { f with Ast.fline = 0; body = erase_block f.Ast.body }))

(* --- Configuration serialization ---

   Every field of [Engine.config] is written out explicitly: adding a field
   to the record breaks this match-free construction loudly only if you
   remember it here, so keep the list in sync (the cache tests flip each
   analysis-relevant flag and assert the digest moves). *)

let config_digest (c : Engine.config) =
  let buf = Buffer.create 128 in
  add_int buf format_version;
  add_tag buf (if c.Engine.symbolic then 't' else 'f');
  add_tag buf (if c.Engine.use_assertions then 't' else 'f');
  add_tag buf (if c.Engine.use_derivation then 't' else 'f');
  add_tag buf (if c.Engine.algebra then 't' else 'f');
  add_int buf c.Engine.eval_quota;
  add_float buf c.Engine.trip_prior;
  add_tag buf (if c.Engine.flow_first then 't' else 'f');
  add_int buf c.Engine.max_growth;
  add_option buf (fun buf fault -> add_string buf (Vrp_diag.Diag.Fault.to_string fault))
    c.Engine.fault;
  (* [c.Engine.cancel] is deliberately NOT digested: a supervision token is
     non-semantic (it can only abort an analysis, never change its result),
     and keying on it would make every retry attempt a spurious miss. *)
  (* Global tunables the engine reads outside its config record. *)
  add_int buf !Vrp_ranges.Config.max_ranges;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- Analysis inputs --- *)

let add_value buf (v : Value.t) =
  (* Values are acyclic immutable trees built deterministically by the
     range algebra; [No_sharing] makes the bytes a function of structure. *)
  add_string buf (Marshal.to_string v [ Marshal.No_sharing ])

let task_key ~fn_digest ~config_digest ~param_values ~callee_returns =
  let buf = Buffer.create 256 in
  add_list buf add_value param_values;
  add_list buf
    (fun buf (name, v) ->
      add_string buf name;
      add_value buf v)
    callee_returns;
  Printf.sprintf "%s-%s-%s" fn_digest config_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- Whole replies --- *)

let reply_key ~source_md5 ~config_digest ~diagnostics ~strict ~model_digest =
  let buf = Buffer.create 128 in
  add_string buf source_md5;
  add_string buf config_digest;
  add_tag buf (if diagnostics then 't' else 'f');
  add_tag buf (if strict then 't' else 'f');
  add_option buf add_string model_digest;
  "reply-" ^ Digest.to_hex (Digest.string (Buffer.contents buf))
