(** A minimal, dependency-free JSON codec for the vrpd wire protocol.

    The value model is the obvious one; strings are byte strings. The
    printer escapes every byte outside printable ASCII as [\u00XX] and the
    parser folds [\uXXXX] escapes below 256 back to single bytes, so
    arbitrary binary output captured from the analysis round-trips through
    a frame losslessly. Codepoints ≥ 256 are emitted as UTF-8 on parse
    (they never occur in vrpd traffic, which is byte-oriented).

    Numbers: a token with a fraction or exponent parses as [Float], any
    other as [Int]; a number that overflows to infinity is an error. The
    printer never emits NaN/infinity (callers must sanitize); [Float]
    values print with [%.17g] so they round-trip.

    The parser rejects, with a [byte N: ...] error, containers nested more
    than 512 deep and a [\u] escape not followed by exactly four hex
    digits. Both directions cost one pass over the bytes: the printer
    copies each run of bytes that need no escape with one blit, and the
    parser returns an escape-free string as one [String.sub]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

(** Parse one JSON document; trailing non-whitespace bytes are an error.
    Never raises: every malformed input is an [Error]. *)
val parse : string -> (t, string) result

(** {2 Accessors} — shallow, total helpers for decoding requests. *)

(** Field of an object ([None] for absent fields and non-objects). *)
val member : string -> t -> t option

val get_string : t -> string option
val get_int : t -> int option
val get_bool : t -> bool option
val get_list : t -> t list option

(** [mem_string "k" obj], etc.: [member] composed with the accessor. *)
val mem_string : string -> t -> string option

val mem_int : string -> t -> int option
val mem_bool : string -> t -> bool option
val mem_list : string -> t -> t list option
