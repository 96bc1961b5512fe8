(** Content-addressed keys for function summaries.

    A summary is keyed by everything its analysis depends on:

    - a {e structural digest} of the function's SSA IR — stable across
      parse→SSA round-trips of the same source, changed by any IR edit;
    - a digest of the engine configuration (every {!Vrp_core.Engine.config}
      field, the global range budget and a format version);
    - a digest of the analysis inputs: the parameter ranges and the return
      ranges the call oracle would answer for the function's static callees.

    Digests are MD5 over an explicit byte serialization (ints exact, floats
    by IEEE bit pattern), so equal keys mean structurally identical inputs
    and the memoized summary can be reused soundly. *)

module Ir = Vrp_ir.Ir
module Value = Vrp_ranges.Value
module Engine = Vrp_core.Engine

(** Bump when the serialization or the summary format changes: invalidates
    every existing on-disk cache entry. *)
val format_version : int

(** Structural digest (hex) of one function's SSA IR. *)
val fn_digest : Ir.fn -> string

(** Digest (hex) of an engine configuration, including the global
    {!Vrp_ranges.Config.max_ranges} budget and {!format_version}. *)
val config_digest : Engine.config -> string

(** The function names a [Call] instruction of this function can target,
    sorted and deduplicated — the complete set of names the call oracle may
    be asked about. *)
val static_callees : Ir.fn -> string list

(** Full memo key for one analysis task. [callee_returns] must cover
    {!static_callees} (in that order). *)
val task_key :
  fn_digest:string ->
  config_digest:string ->
  param_values:Value.t list ->
  callee_returns:(string * Value.t) list ->
  string

(** Key of a whole [predict] reply in the file-level tier: the source's MD5
    (hex), the engine configuration digest, the two flags that change the
    rendering ([diagnostics], [strict]) and the learned fallback model's
    digest, if one is loaded. Distinct from every {!task_key}. *)
val reply_key :
  source_md5:string ->
  config_digest:string ->
  diagnostics:bool ->
  strict:bool ->
  model_digest:string option ->
  string
