(** High-throughput batch analysis: fan out over many MiniC sources on a
    domain pool, analysing each file with the interprocedural driver and
    an optional content-addressed summary cache.

    Determinism contract: for fixed inputs and configuration, the rendered
    report is byte-identical whatever [jobs] is — results are merged in
    file order, per-file analysis follows the deterministic wavefront
    driver, and cached summaries are content-addressed so a hit returns
    exactly what the miss would have computed. Timing and cache-traffic
    numbers are deliberately excluded from {!render}; surface them
    separately (they legitimately vary run to run). *)

module Ir = Vrp_ir.Ir
module Diag = Vrp_diag.Diag
module Engine = Vrp_core.Engine

type file_result = {
  name : string;
  error : string option;  (** front-end failure, making the file empty *)
  functions : int;
  predictions : ((string * int) * float * string) list;
      (** ((fn, block), P(true edge), marker) sorted by function then block;
          marker as in [vrpc predict]: ["*"] ordinary ⊥-range fallback,
          ["!"] degraded (crash / fuel / deadline), [""] exact VRP *)
  demoted : (string * string) list;  (** (fn, crash reason), sorted *)
  report : Diag.report;  (** full structured diagnostics of this file *)
  evaluations : int;  (** engine expression evaluations (cost proxy) *)
}

type aggregate = {
  files : int;
  failed_files : int;
  functions : int;
  branches : int;
  fallbacks : int;  (** branches predicted by heuristics, not VRP *)
  demoted_fns : int;
}

(** Analyse [(name, source)] pairs, [jobs]-wide across files. Results come
    back in input order. A file that fails the front end or crashes the
    driver is contained: its [error] is set and the batch continues.

    Every per-function analysis runs under {!Supervisor.wrap_analyze_fn}:
    its deadline is the tighter of [within_ms] milliseconds from its start
    and [deadline] (an absolute [Unix.gettimeofday] instant), and with
    neither it has none. A function that overruns its deadline is demoted,
    a file whose task crashes fails alone, and the run goes on.

    When [cache] has a disk tier, each input is first looked up as a file
    record under {!Vrp_cache.Digest_key.file_key} (its source and
    [config]): a hit is served whole, under the input's own [name],
    without compiling it, and adds no diagnostic. A miss is analysed and
    then recorded, unless its task crashed or a deadline cut it
    ([Deadline_exceeded] in its report). A batch re-run on the same cache
    directory is therefore the resume of an interrupted one, and its
    report is byte-identical to an uninterrupted run. *)
val analyze_sources :
  ?config:Engine.config ->
  ?cache:Vrp_cache.Summary_cache.t ->
  ?within_ms:int ->
  ?deadline:float ->
  jobs:int ->
  (string * string) list ->
  file_result list

val aggregate : file_result list -> aggregate

(** The CLI exit code for a finished batch: [2] if any file failed, else
    [3] if [strict] and any file's report is degraded, else [0]. *)
val exit_code : strict:bool -> file_result list -> int

(** Deterministic report (see the module header). *)
val render : file_result list -> string

(** MiniC files ([.mc], [.minic], [.c]) directly under [dir], sorted. *)
val list_dir : string -> string list
