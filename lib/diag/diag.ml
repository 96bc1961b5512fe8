(** Structured diagnostics for the analysis stack (resilience layer).

    The paper's central robustness claim is graceful degradation: any branch
    whose range is ⊥ falls back to the Ball–Larus heuristics. This module
    gives the *infrastructure* the same property at reporting granularity:
    instead of dropping degradation events (silent budget bailouts) or
    crashing the whole run (one diverging function), every layer appends
    machine-readable diagnostics to a {!report} threaded through
    [Interproc.analyze] and [Pipeline.vrp_predictions] (an engine result
    carries its own, which they append).
    A run's prediction map is always total; the report is the honest account
    of which parts of it are exact VRP and which are degraded, and why.

    The module depends on nothing but [unix] (for {!Cancel}'s clock), so
    every layer (ranges, engine, pipeline, CLI) can use it. *)

type severity = Info | Warning | Error

(** Machine-readable event classification. [Warning]-or-worse kinds mark
    *degradation*: the run completed but some result is less precise than
    the analysis could ideally deliver. *)
type kind =
  | Budget_exhausted  (** the engine's fuel ran out before the fixed point *)
  | Widened  (** a value was forcibly widened to ⊥ (quota or growth cap) *)
  | Analysis_crashed  (** a per-function analysis raised; function demoted *)
  | Fallback_heuristic  (** a branch was predicted by Ball–Larus, not VRP *)
  | Front_end_error  (** parse / type / IR-check failure *)
  | Fault_injected  (** a deterministic test fault fired *)
  | Deadline_exceeded  (** a supervised task overran its wall-clock deadline *)
  | Note  (** free-form informational event *)

type location = { fn : string option; block : int option }

let no_loc = { fn = None; block = None }

type diag = {
  severity : severity;
  kind : kind;
  loc : location;
  message : string;
}

(** A per-run collector. Diagnostics are kept in emission order. *)
type report = { mutable rev_diags : diag list; mutable ndiags : int }

let create () = { rev_diags = []; ndiags = 0 }

let add report ?fn ?block severity kind message =
  report.rev_diags <-
    { severity; kind; loc = { fn; block }; message } :: report.rev_diags;
  report.ndiags <- report.ndiags + 1

let to_list report = List.rev report.rev_diags

let append report diags =
  List.iter
    (fun d ->
      report.rev_diags <- d :: report.rev_diags;
      report.ndiags <- report.ndiags + 1)
    diags

(* Append every diagnostic of [from] to [into], preserving [from]'s emission
   order. The parallel scheduler gives each task a private report and merges
   them in deterministic task order, so a parallel run renders byte-identical
   diagnostics to a sequential one. *)
let merge ~into from = append into (to_list from)

let count report = report.ndiags

let count_kind report kind =
  List.length (List.filter (fun d -> d.kind = kind) report.rev_diags)

(** True when any diagnostic is [Warning] or worse — the run produced
    results, but some of them are degraded. Drives [--strict]. *)
let degraded report =
  List.exists (fun d -> d.severity <> Info) report.rev_diags

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let kind_to_string = function
  | Budget_exhausted -> "budget-exhausted"
  | Widened -> "widened"
  | Analysis_crashed -> "analysis-crashed"
  | Fallback_heuristic -> "fallback-heuristic"
  | Front_end_error -> "front-end-error"
  | Fault_injected -> "fault-injected"
  | Deadline_exceeded -> "deadline-exceeded"
  | Note -> "note"

let location_to_string loc =
  match (loc.fn, loc.block) with
  | None, _ -> ""
  | Some fn, None -> fn
  | Some fn, Some bid -> Printf.sprintf "%s.B%d" fn bid

let diag_to_string d =
  let loc = location_to_string d.loc in
  Printf.sprintf "%s[%s]%s %s"
    (severity_to_string d.severity)
    (kind_to_string d.kind)
    (if loc = "" then "" else " " ^ loc)
    d.message

(** Multi-line rendering: one line per distinct diagnostic (repeats — e.g.
    the same widening re-reported by every interprocedural round — are
    collapsed to a ×N count) plus a summary line. *)
let render report =
  let buf = Buffer.create 256 in
  let diags = to_list report in
  let counts : (diag, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun d ->
      match Hashtbl.find_opt counts d with
      | Some n -> Hashtbl.replace counts d (n + 1)
      | None ->
        Hashtbl.replace counts d 1;
        order := d :: !order)
    diags;
  List.iter
    (fun d ->
      Buffer.add_string buf (diag_to_string d);
      (match Hashtbl.find_opt counts d with
      | Some n when n > 1 -> Buffer.add_string buf (Printf.sprintf " (×%d)" n)
      | _ -> ());
      Buffer.add_char buf '\n')
    (List.rev !order);
  let warnings =
    List.length (List.filter (fun d -> d.severity = Warning) diags)
  in
  let errors = List.length (List.filter (fun d -> d.severity = Error) diags) in
  Buffer.add_string buf
    (Printf.sprintf "%d diagnostic%s (%d warning%s, %d error%s)%s\n"
       report.ndiags
       (if report.ndiags = 1 then "" else "s")
       warnings
       (if warnings = 1 then "" else "s")
       errors
       (if errors = 1 then "" else "s")
       (if degraded report then "; run degraded" else ""));
  Buffer.contents buf

(** Cooperative cancellation by deadline. A token is an absolute
    wall-clock instant plus a flag: the worker running a task calls [check]
    at its safe points (each worklist step, and between the functions of a
    wave), which reads the clock and, once the instant has passed, sets the
    flag and raises. OCaml domains cannot be killed, so the engine must
    volunteer; nothing else watches the clock. The flag stays set, so a
    token shared by the functions of one request cuts every one that checks
    it after the first, and [cancelled] tells afterwards whether any run
    was cut short. *)
module Cancel = struct
  type token = { deadline : float; fired : bool Atomic.t }

  exception Cancelled of string
  (** Raised by a worker whose deadline passed; the argument names the task
      (function) that was cut short. *)

  let make ~deadline = { deadline; fired = Atomic.make false }
  let cancelled token = Atomic.get token.fired

  (** Raise {!Cancelled} once the deadline has passed; one clock read per
      call, cheap enough for a per-worklist-step call. *)
  let check token ~name =
    if Atomic.get token.fired || Unix.gettimeofday () >= token.deadline then begin
      Atomic.set token.fired true;
      raise (Cancelled name)
    end
end

(** Deterministic fault injection, used by the tests and a hidden CLI flag
    to prove every degradation path actually degrades instead of crashing.
    Faults are pure configuration — no global state, no randomness. *)
module Fault = struct
  type t =
    | Crash_fn of string
        (** raise {!Injected} while analysing this function *)
    | Starve_fuel of string
        (** give this function's analysis almost no fuel *)
    | Trip_after of int
        (** raise {!Injected} after N engine steps in any function *)
    | Hang_fn of string
        (** wedge this function's analysis: it stops making progress and
            only its deadline can break it out *)
    | Crash_file of string
        (** raise {!Injected} in the batch task of any file whose name
            contains this substring — a worker crash outside per-function
            containment, demoting the whole file *)
    | Corrupt_cache of int
        (** corrupt every Nth entry written to the cache's disk tier
            (payload bit-flip under an unchanged checksum) *)
    | Skew_range of string
        (** off-by-one the final ranges of this function (shrink every
            numeric upper bound by one stride) — a deliberately {e unsound}
            result used to prove the fuzzing oracles can catch one *)
    | Kill_worker of int
        (** fleet-mode chaos: the front door force-kills the worker routed
            for every Nth proxied request, just before forwarding — the
            request must survive via failover to the replacement *)
    | Slow_worker of int
        (** wedge a worker daemon: every request it handles (including
            health-check pings) sleeps N milliseconds first, so a fleet's
            ping timeout sees it as hung and crash-replaces it *)
    | Flood_conns of int
        (** transport chaos, enacted by the {e client}: open N raw
            connections and leave them idle around the real request,
            driving the daemon into its connection-capacity shed path *)
    | Stall_frame of int
        (** transport chaos, enacted by the {e client}: send a partial
            frame header on a throwaway connection and stall N
            milliseconds — the idle sweeper must disconnect it without
            disturbing the real request *)

  exception Injected of string

  let to_string = function
    | Crash_fn fn -> "crash:" ^ fn
    | Starve_fuel fn -> "fuel:" ^ fn
    | Trip_after n -> "steps:" ^ string_of_int n
    | Hang_fn fn -> "hang:" ^ fn
    | Crash_file name -> "crash-file:" ^ name
    | Corrupt_cache n -> "corrupt-cache:" ^ string_of_int n
    | Skew_range fn -> "skew:" ^ fn
    | Kill_worker n -> "kill-worker:" ^ string_of_int n
    | Slow_worker ms -> "slow-worker:" ^ string_of_int ms
    | Flood_conns n -> "flood-conns:" ^ string_of_int n
    | Stall_frame ms -> "stall-frame:" ^ string_of_int ms

  let spec_help =
    "crash:FN, fuel:FN, steps:N, hang:FN, crash-file:NAME, \
     corrupt-cache:N, skew:FN, kill-worker:N, slow-worker:MS, \
     flood-conns:N or stall-frame:MS"

  (** Parse a CLI spec (see {!spec_help}). *)
  let parse spec =
    match String.index_opt spec ':' with
    | None ->
      Result.Error
        (Printf.sprintf "bad fault spec %S: want %s" spec spec_help)
    | Some i -> (
      let key = String.sub spec 0 i in
      let arg = String.sub spec (i + 1) (String.length spec - i - 1) in
      let count ~min_ ok =
        match int_of_string_opt arg with
        | Some n when n >= min_ -> Result.Ok (ok n)
        | Some _ | None ->
          Result.Error
            (Printf.sprintf "bad fault spec %S: %s wants a count >= %d" spec key min_)
      in
      match key with
      | _ when arg = "" -> Result.Error (Printf.sprintf "bad fault spec %S: empty argument" spec)
      | "crash" -> Result.Ok (Crash_fn arg)
      | "fuel" -> Result.Ok (Starve_fuel arg)
      | "steps" -> count ~min_:0 (fun n -> Trip_after n)
      | "hang" -> Result.Ok (Hang_fn arg)
      | "skew" -> Result.Ok (Skew_range arg)
      | "crash-file" -> Result.Ok (Crash_file arg)
      | "corrupt-cache" -> count ~min_:1 (fun n -> Corrupt_cache n)
      | "kill-worker" -> count ~min_:1 (fun n -> Kill_worker n)
      | "slow-worker" -> count ~min_:1 (fun ms -> Slow_worker ms)
      | "flood-conns" -> count ~min_:1 (fun n -> Flood_conns n)
      | "stall-frame" -> count ~min_:1 (fun ms -> Stall_frame ms)
      | _ ->
        Result.Error
          (Printf.sprintf "bad fault spec %S: unknown fault %S (want %s)" spec key
             spec_help))
end
