(** Fuzzing campaign driver: generate, check, shrink, report.

    A campaign is fully determined by [(seed, count, profiles)]: program
    [i] of profile [p] is generated from a PRNG seeded by mixing [seed],
    the profile name and [i], so any failure is replayable in isolation.
    Each program runs through {!Oracle.check} and (when the configuration
    enables the sum-of-products algebra) the differential
    {!Oracle.check_algebra}; every [determinism_every]-th program
    additionally runs the (much more expensive) differential
    {!Oracle.check_determinism}. Failures are optionally minimised with
    {!Shrink.minimize} under a predicate that accepts only candidates
    failing the same property. The summary is deterministic — no timing,
    no absolute paths — so campaign output can be diffed across runs. *)

module Engine = Vrp_core.Engine

type failure = {
  profile : string;
  index : int;  (** which program of the profile's [count] *)
  source : string;  (** the generated program *)
  violations : Oracle.violation list;
  minimized : string option;  (** shrunk source, when minimisation ran *)
  shrink_tries : int;  (** predicate evaluations the shrinker used *)
}

type summary = {
  programs : int;
  trapped : int;  (** programs where some run trapped (benign) *)
  membership_checked : int;
      (** programs whose static results were trusted end to end *)
  determinism_checked : int;
  algebra_checked : int;
      (** programs where the {!Oracle.check_algebra} differential was
          armed (both the algebra-off and algebra-on runs converged) *)
  failures : failure list;
}

(** The campaign-coordinate contract: program [index] of profile [pname]
    under [seed] is generated from [Prng.create (mix_seed seed pname
    index)], forever. Exposed so tests can regenerate a campaign's
    programs. *)
val mix_seed : int -> string -> int -> int

val run :
  ?config:Engine.config ->
  ?minimize:bool ->
  ?determinism_every:int ->
  ?shrink_budget:int ->
  seed:int ->
  count:int ->
  profiles:Gen.profile list ->
  unit ->
  summary

val render : summary -> string

(** Write one failure as a replayable repro under [dir] (created if
    missing): a [//]-comment header with the campaign coordinates and the
    violations, followed by the minimised (preferred) or original source.
    Returns the file path. *)
val write_repro : dir:string -> seed:int -> failure -> string
