(** IR variables (virtual registers).

    A variable has a [base] source name, a [version] (assigned by SSA
    renaming; [-1] before SSA) and a per-function unique [id]. Identity is
    the [id]; the rest is for printing and for mapping SSA names back to the
    source variable they version. *)

type t = { id : int; base : string; version : int; ty : Vrp_lang.Ast.ty }

let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash a = a.id

let to_string v =
  if v.version < 0 then v.base else Printf.sprintf "%s.%d" v.base v.version

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
