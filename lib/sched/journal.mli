(** Append-only checkpoint journal for batch runs.

    Each completed file of a batch is appended as one framed record
    ({!Vrp_util.Frame}, magic [vrpj1]): magic, body length, body checksum,
    body. Frames make the journal crash-consistent without fsync
    discipline: a writer killed mid-append leaves a torn final frame that
    fails verification, and {!load} stops at the first bad frame — every
    record before the tear is trusted, nothing after it is. Records carry
    an input digest (source bytes + analysis configuration), so a resumed
    run re-analyzes any file that changed on disk or is being run under
    different settings instead of replaying a stale result.

    The payload is an opaque string chosen by the producer (the batch
    driver marshals its per-file result); the journal itself has no
    dependency on what it checkpoints. *)

module Diag = Vrp_diag.Diag

type record = {
  name : string;  (** source path, as passed to the batch driver *)
  input_digest : string;  (** identity of the inputs that produced it *)
  payload : string;  (** producer-defined bytes *)
}

(** [load path] returns every intact record in append order; a missing
    file is an empty journal. Never raises on torn or corrupt journals —
    the first bad frame ends the read. *)
val load : string -> record list

type writer

(** [open_append path] opens (creating if missing) the journal for
    appending; safe to call on a journal being resumed from — a torn final
    frame is truncated away first, so new records always land where a
    reader can see them, and intact records are never rewritten. [fault]
    enables [torn-journal:N]
    injection: the appender writes half a frame after [N] complete
    records, raises {!Diag.Fault.Injected}, and ignores further appends —
    exactly the on-disk state a process killed mid-append leaves behind. *)
val open_append : ?fault:Diag.Fault.t -> string -> writer

(** Append one record and flush it. Thread-safe across worker domains. *)
val append : writer -> record -> unit

(** Close the underlying channel; later appends are ignored. *)
val close : writer -> unit
