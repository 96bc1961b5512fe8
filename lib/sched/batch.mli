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
  resumed : bool;  (** replayed from a checkpoint journal, not re-analyzed *)
}

type aggregate = {
  files : int;
  failed_files : int;
  functions : int;
  branches : int;
  fallbacks : int;  (** branches predicted by heuristics, not VRP *)
  demoted_fns : int;
  resumed_files : int;  (** served from the journal on a resumed run *)
}

(** Analyse [(name, source)] pairs, [jobs]-wide across files. Results come
    back in input order. A file that fails the front end or crashes the
    driver is contained: its [error] is set and the batch continues.

    [supervisor] puts every per-function analysis under deadline/retry
    supervision (see {!Supervisor}); escalation demotes a function, then a
    file, never the run. [journal] checkpoints each completed file to that
    path and, when the journal already exists, resumes from it: files whose
    name and input digest match an intact record are replayed (marked
    [resumed]) instead of re-analyzed, so an interrupted batch re-run with
    the same journal produces a byte-identical report while skipping the
    completed work. A crashed task is never journalled. [journal_fault]
    threads [torn-journal:N] injection into the journal writer. *)
val analyze_sources :
  ?config:Engine.config ->
  ?cache:Vrp_cache.Summary_cache.t ->
  ?supervisor:Supervisor.t ->
  ?journal:string ->
  ?journal_fault:Diag.Fault.t ->
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
