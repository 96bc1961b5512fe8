(** Content-addressed keys for function summaries (see the interface).

    The serializer is hand-rolled rather than [Marshal]-based for the IR
    and the configuration so the digest depends on structure alone: ints
    are written in decimal, floats by IEEE-754 bit pattern, strings
    length-prefixed, constructors as one-byte tags. Parameter and oracle
    values are digested through [Marshal] with sharing disabled — their
    representation is produced deterministically by the range algebra, and
    a representation difference can only cause a spurious miss, never a
    wrong hit. *)

module Ir = Vrp_ir.Ir
module Var = Vrp_ir.Var
module Ast = Vrp_lang.Ast
module Value = Vrp_ranges.Value
module Engine = Vrp_core.Engine

let format_version = 3

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

(* --- IR serialization --- *)

let add_ty buf (ty : Ast.ty) =
  add_tag buf (match ty with Ast.Tint -> 'i' | Ast.Tfloat -> 'f' | Ast.Tvoid -> 'v')

let add_var buf (v : Var.t) =
  add_int buf v.Var.id;
  add_string buf v.Var.base;
  add_int buf v.Var.version;
  add_ty buf v.Var.ty

let add_operand buf = function
  | Ir.Cint n ->
    add_tag buf 'i';
    add_int buf n
  | Ir.Cfloat f ->
    add_tag buf 'f';
    add_float buf f
  | Ir.Ovar v ->
    add_tag buf 'v';
    add_var buf v

let add_relop buf (r : Ast.relop) = add_string buf (Ast.relop_to_string r)

let add_rhs buf = function
  | Ir.Op a ->
    add_tag buf 'o';
    add_operand buf a
  | Ir.Binop (op, a, b) ->
    add_tag buf 'b';
    add_string buf (Ast.binop_to_string op);
    add_operand buf a;
    add_operand buf b
  | Ir.Unop (u, a) ->
    add_tag buf 'u';
    add_tag buf (match u with Ir.Neg -> 'n' | Ir.Bnot -> 'b');
    add_operand buf a
  | Ir.Cmp (r, a, b) ->
    add_tag buf 'c';
    add_relop buf r;
    add_operand buf a;
    add_operand buf b
  | Ir.Load (arr, idx) ->
    add_tag buf 'l';
    add_string buf arr;
    add_operand buf idx
  | Ir.Call (fn, args) ->
    add_tag buf 'C';
    add_string buf fn;
    add_list buf add_operand args
  | Ir.Phi args ->
    add_tag buf 'p';
    add_list buf
      (fun buf (pred, op) ->
        add_int buf pred;
        add_operand buf op)
      args
  | Ir.Assertion { parent; arel; abound } ->
    add_tag buf 'a';
    add_var buf parent;
    add_relop buf arel;
    add_operand buf abound

let add_instr buf = function
  | Ir.Def (v, rhs) ->
    add_tag buf 'd';
    add_var buf v;
    add_rhs buf rhs
  | Ir.Store (arr, idx, v) ->
    add_tag buf 's';
    add_string buf arr;
    add_operand buf idx;
    add_operand buf v

let add_term buf = function
  | Ir.Jump d ->
    add_tag buf 'j';
    add_int buf d
  | Ir.Br { rel; ba; bb; tdst; fdst } ->
    add_tag buf 'B';
    add_relop buf rel;
    add_operand buf ba;
    add_operand buf bb;
    add_int buf tdst;
    add_int buf fdst
  | Ir.Ret op ->
    add_tag buf 'r';
    add_option buf add_operand op

let add_array_info buf (a : Ir.array_info) =
  add_string buf a.Ir.aname;
  add_ty buf a.Ir.elem_ty;
  add_int buf a.Ir.size

let fn_digest (fn : Ir.fn) =
  let buf = Buffer.create 1024 in
  add_int buf format_version;
  add_string buf fn.Ir.fname;
  add_ty buf fn.Ir.ret_ty;
  add_list buf add_var fn.Ir.params;
  add_list buf add_array_info fn.Ir.local_arrays;
  add_int buf fn.Ir.nvars;
  add_int buf (Array.length fn.Ir.blocks);
  Array.iter
    (fun (b : Ir.block) ->
      add_int buf b.Ir.bid;
      add_list buf add_instr b.Ir.instrs;
      add_term buf b.Ir.term)
    fn.Ir.blocks;
  Digest.to_hex (Digest.string (Buffer.contents buf))

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
