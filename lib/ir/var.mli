(** IR variables (virtual registers): a source [base] name, an SSA [version]
    ([-1] before SSA renaming) and a per-function unique [id], which is the
    identity. *)

type t = { id : int; base : string; version : int; ty : Vrp_lang.Ast.ty }

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** ["base.version"], or just ["base"] before SSA. *)
val to_string : t -> string

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
