(** Append-only batch checkpoint journal (see the interface). *)

module Diag = Vrp_diag.Diag

type record = {
  name : string;
  input_digest : string;
  payload : string;
}

(* --- Record framing ---

   Each record is one {!Vrp_util.Frame} of its marshalled bytes, so a
   reader can tell "the writer was killed mid-append" from "end of
   journal" without trusting anything after the tear. *)

let magic = "vrpj1"

let read_record ic =
  match Vrp_util.Frame.read ~magic ic with
  | None -> None
  | Some body -> ( try Some (Marshal.from_string body 0 : record) with Failure _ -> None)

(* Scan the whole journal once: the intact records plus the byte offset
   where the first bad frame (the tear) begins. *)
let scan path =
  if not (Sys.file_exists path) then ([], 0)
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc valid_end =
          match read_record ic with
          (* First bad frame = the tear left by a killed writer; everything
             before it is intact and everything after it is untrusted. *)
          | None -> (List.rev acc, valid_end)
          | Some r -> go (r :: acc) (pos_in ic)
        in
        go [] 0)

let load path = fst (scan path)

(* --- Writing --- *)

type writer = {
  oc : out_channel;
  lock : Mutex.t;  (* appenders are worker domains *)
  fault : Diag.Fault.t option;
  mutable written : int;
  mutable dead : bool;  (* after a torn-journal fault: drop all appends *)
}

let open_append ?fault path =
  (* Resuming onto a torn journal must drop the tear first: appending after
     half a frame would leave every new record behind a bad frame, where
     [load] can never see it. Truncate to the last intact record. *)
  let _, valid_end = scan path in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  Unix.ftruncate fd valid_end;
  ignore (Unix.lseek fd valid_end Unix.SEEK_SET);
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_out oc true;
  { oc; lock = Mutex.create (); fault; written = 0; dead = false }

let append w r =
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      if not w.dead then begin
        let frame = Vrp_util.Frame.encode ~magic (Marshal.to_string r []) in
        (match w.fault with
        | Some (Diag.Fault.Torn_journal n) when w.written >= n ->
          (* Simulate a writer killed mid-append: half a frame hits the
             disk, then this process stops journalling for good. *)
          w.dead <- true;
          output_string w.oc (String.sub frame 0 (String.length frame / 2));
          flush w.oc;
          raise
            (Diag.Fault.Injected
               (Printf.sprintf "injected journal tear after %d record(s)" n))
        | _ -> ());
        output_string w.oc frame;
        (* One flush per record: a kill between appends can only cost the
           record being written, never a previously flushed one. *)
        flush w.oc;
        w.written <- w.written + 1
      end)

let close w =
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      w.dead <- true;
      close_out_noerr w.oc)
