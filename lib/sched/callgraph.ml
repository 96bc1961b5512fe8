(** Static call graph (see the interface). *)

module Ir = Vrp_ir.Ir

type t = { edges : (string, string list) Hashtbl.t }

let build (program : Ir.program) : t =
  let defined = Hashtbl.create 16 in
  List.iter (fun (fn : Ir.fn) -> Hashtbl.replace defined fn.Ir.fname ()) program.Ir.fns;
  let edges = Hashtbl.create 16 in
  List.iter
    (fun (fn : Ir.fn) ->
      let callees =
        List.filter (Hashtbl.mem defined) (Vrp_cache.Digest_key.static_callees fn)
      in
      Hashtbl.replace edges fn.Ir.fname callees)
    program.Ir.fns;
  { edges }

let callees t name = Option.value ~default:[] (Hashtbl.find_opt t.edges name)
