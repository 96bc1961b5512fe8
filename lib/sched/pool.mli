(** A fixed-size worker pool on OCaml 5 domains.

    [jobs = 1] spawns no domains at all: work runs sequentially in the
    calling domain, making the single-job pool behaviourally identical to
    plain [Array.map]. With [jobs > 1], [jobs - 1] worker domains drain a
    shared queue and the caller participates in draining while it waits, so
    [jobs] tasks make progress concurrently.

    Crash containment: a task that raises yields [Error exn] in its result
    slot — one poisoned task can neither kill a worker domain nor take down
    the batch. Results always come back in task order, whatever order the
    workers finished in.

    Tasks must not submit work to the pool they run on (the worker would
    wait on itself). The batch driver therefore parallelises at one level
    at a time: across files, or across the functions of one wave inside
    one file. *)

type t

(** [check_jobs ~pools jobs] is [Error] with a usage message when the
    main domain and [pools] (default 1) pools of [jobs], each taking
    [jobs - 1], need more domains than the runtime runs at once
    ([Max_domains] of OCaml 5.1: 128 on 64-bit hosts). *)
val check_jobs : ?pools:int -> int -> (unit, string) result

(** [create ~jobs ()] clamps [jobs] to at least 1. If a spawn fails, the
    workers already spawned are joined and the exception is re-raised. *)
val create : jobs:int -> unit -> t

val jobs : t -> int

(** Run every task, returning per-task outcomes in task order. *)
val map : t -> ('a -> 'b) -> 'a array -> ('b, exn) result array

(** Join the worker domains. The pool must not be used afterwards. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f] with a fresh pool and always joins it. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
