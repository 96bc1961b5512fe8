(** Content-addressed keys for function summaries.

    A summary is keyed by everything its analysis depends on:

    - a {e structural digest} of the function's SSA IR — stable across
      parse→SSA round-trips of the same source, changed by any IR edit;
    - a digest of the engine configuration (every {!Vrp_core.Engine.config}
      field, the global range budget and a format version);
    - a digest of the analysis inputs: the parameter ranges and the return
      ranges the call oracle would answer for the function's static callees.

    Digests are MD5 over [Marshal] with sharing disabled, which is
    injective on structure (ints exact, floats by IEEE bit pattern). Equal
    keys mean structurally identical inputs, so the memoized summary can be
    reused soundly. *)

module Ir = Vrp_ir.Ir
module Value = Vrp_ranges.Value
module Engine = Vrp_core.Engine

(** Bump when the serialization or the summary format changes, when a
    constructor of [Ir], [Ast.ty], [Ast.relop], [Ast.binop] or
    [Diag.Fault.t] is added, removed or reordered, when fields of
    [Engine.config] are reordered, and when a field or constructor of a
    type read back from disk changes: [Engine.t] (a [vrpsum2] body),
    [Batch.file_result] (a [vrpfile1] file record), and the [Value.t],
    [Srange.t], [Sym.t], [Var.t] and [Diag.diag] in them. Marshal encodes
    constructors and fields by their position in the type; the cache tests
    "IR layout tripwire" and "persisted layout tripwire" pin them. Bumping
    invalidates every on-disk cache entry. *)
val format_version : int

(** Structural digest (hex) of one function's SSA IR: MD5 over the
    marshalled projection [(format_version, Sys.ocaml_version, fname,
    ret_ty, params, local_arrays, nvars, [|(bid, instrs, term)|])]. A cache
    written by another compiler, whose Marshal format may differ, misses. *)
val fn_digest : Ir.fn -> string

(** What the cache keys a function by before its inputs: its {!fn_digest}
    and the function names its [Call] instructions can target, sorted and
    deduplicated — the complete set of names the call oracle may be asked
    about. *)
type fn_key = { digest : string; callees : string list }

val fn_key : Ir.fn -> fn_key

(** Every function's {!fn_key}, by name. Build it once per compiled
    program and share it: the summary cache and the session planner read
    the same table. *)
val fn_keys : Ir.program -> (string, fn_key) Hashtbl.t

(** Digest of what lowering reads of a program besides the function
    itself: every function's name and return type, and every global's
    name, type and size. Compute it once per program for {!compile_key}. *)
val compile_env : Vrp_lang.Ast.program -> string

(** Key of one function's compile memo entry: an MD5 over [env] (the
    program's {!compile_env}) and the function's AST with every source line
    erased. Lowering reads nothing else and no IR carries a line, so equal
    keys compile to equal SSA, and inserting a line above a function keeps
    its key. Distinct from every {!task_key} and {!reply_key}. *)
val compile_key : env:string -> Vrp_lang.Ast.func -> string

(** Digest (hex) of an engine configuration: MD5 over the marshalled
    [(format_version, Sys.ocaml_version, config, max_ranges)], with the
    non-semantic [cancel] token cleared and the global
    {!Vrp_ranges.Config.max_ranges} budget read at call time. *)
val config_digest : Engine.config -> string

(** Full memo key for one analysis task. [callee_returns] must cover the
    function's {!fn_key} [callees] (in that order). *)
val task_key :
  fn_digest:string ->
  config_digest:string ->
  param_values:Value.t list ->
  callee_returns:(string * Value.t) list ->
  string

(** Key of a whole [predict] reply in the file-level tier: the source's MD5
    (hex), the engine configuration digest and the two flags that change
    the rendering ([diagnostics], [strict]). Distinct from every
    {!task_key}. *)
val reply_key :
  source_md5:string -> config_digest:string -> diagnostics:bool -> strict:bool -> string

(** Key of a batch file record in the disk tier: the source's MD5 (hex)
    and the engine configuration digest. A file's batch result depends on
    nothing else but its name, which the record does not keep. Distinct
    from every {!task_key}, {!compile_key} and {!reply_key}. *)
val file_key : source:string -> config_digest:string -> string
