(** Natural-loop detection.

    Back edges are edges [latch -> header] where the header dominates the
    latch; the natural loop of a back edge is the set of nodes that reach the
    latch without passing through the header. Loop structure feeds the
    Ball–Larus heuristics (loop branch / loop exit / loop header), the
    90/50 rule's notion of "backward branch" and VRP's derivation step
    (paper §3.3 step 4). {!Static} builds it once per function. *)

module IntSet = Set.Make (Int)

type loop = {
  header : int;
  body : IntSet.t;  (** includes the header *)
  latches : int list;
}

type t = {
  loops : loop array;
  loop_of_block : int option array;  (** innermost loop index per block *)
  back_edges : (int * int) list;  (** (latch, header) *)
}

let natural_loop fn ~header ~latch =
  let body = ref (IntSet.of_list [ header; latch ]) in
  let rec pull node =
    (Ir.block fn node).preds
    |> List.iter (fun p ->
           if not (IntSet.mem p !body) then begin
             body := IntSet.add p !body;
             pull p
           end)
  in
  if latch <> header then pull latch;
  !body

let compute (fn : Ir.fn) (dom : Dom.t) : t =
  let back_edges = ref [] in
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun succ ->
          if Dom.dominates dom succ b.bid then back_edges := (b.bid, succ) :: !back_edges)
        (Ir.successors b.term));
  let back_edges = List.rev !back_edges in
  (* Merge the natural loops of back edges sharing a header. *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let body = natural_loop fn ~header ~latch in
      match Hashtbl.find_opt by_header header with
      | None -> Hashtbl.replace by_header header (body, [ latch ])
      | Some (prev, latches) ->
        Hashtbl.replace by_header header (IntSet.union prev body, latch :: latches))
    back_edges;
  let loops =
    Hashtbl.fold
      (fun header (body, latches) acc ->
        { header; body; latches } :: acc)
      by_header []
    (* Sort by body size so that inner (smaller) loops come first. *)
    |> List.sort (fun a b -> Int.compare (IntSet.cardinal a.body) (IntSet.cardinal b.body))
    |> Array.of_list
  in
  let loop_of_block = Array.make (Ir.num_blocks fn) None in
  (* Iterate outer->inner so the innermost loop wins. *)
  for i = Array.length loops - 1 downto 0 do
    IntSet.iter (fun bid -> loop_of_block.(bid) <- Some i) loops.(i).body
  done;
  { loops; loop_of_block; back_edges }

let in_loop t bid = t.loop_of_block.(bid) <> None

let is_loop_header t bid = Array.exists (fun l -> l.header = bid) t.loops

(** Is [src -> dst] an exit edge of the innermost loop containing [src]? *)
let is_loop_exit_edge t ~src ~dst =
  match t.loop_of_block.(src) with
  | None -> false
  | Some i -> not (IntSet.mem dst t.loops.(i).body)

(** Innermost loop containing [bid], if any. *)
let innermost t bid = Option.map (fun i -> t.loops.(i)) t.loop_of_block.(bid)
