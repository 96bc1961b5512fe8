(** Labeled training corpora for the learned fallback predictor (see the
    interface). A corpus is fully determined by (seed, profile, count): the
    generator coordinates are {!Vrp_fuzz.Runner.mix_seed}'s — the same
    contract the fuzzing campaigns use — and program results are merged in
    index order whatever the pool's scheduling, so the content digest is
    reproducible at any [jobs]. *)

module Ir = Vrp_ir.Ir
module Engine = Vrp_core.Engine
module Pipeline = Vrp_core.Pipeline
module Interproc = Vrp_core.Interproc
module Heuristics = Vrp_predict.Heuristics
module Interp = Vrp_profile.Interp
module Prng = Vrp_util.Prng
module Gen = Vrp_fuzz.Gen
module Runner = Vrp_fuzz.Runner
module Pool = Vrp_sched.Pool
module Pretty = Vrp_lang.Pretty

type sample = {
  fv : int array;
  taken : int;
  total : int;
  bl_pm : int;
}

type t = {
  seed : int;
  profile : string;
  count : int;
  programs : int;
  samples : sample array;
  digest : string;
}

(* Ground-truth branch counts, merged over every argument vector that ran
   to completion (a trapped run contributes nothing — same benign-trap
   stance as the fuzzing oracles). *)
let observed_counts (ssa : Ir.program) =
  let counts : (string * int, int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun args ->
      match Interp.run ssa ~args with
      | { Interp.profile; _ } ->
        Hashtbl.iter
          (fun key (st : Interp.branch_stats) ->
            let taken, total =
              Option.value ~default:(0, 0) (Hashtbl.find_opt counts key)
            in
            Hashtbl.replace counts key
              (taken + st.Interp.taken, total + st.Interp.total))
          profile.Interp.branches
      | exception Interp.Trap _ -> ())
    Gen.main_args;
  counts

(* Samples of one generated program: every conditional branch the VRP tier
   could NOT predict (⊥ fallback, governor-starved, demoted or unreachable
   function) that executed under the ground-truth runs. *)
let samples_of_program ~seed ~(profile : Gen.profile) index : sample list =
  let rng = Prng.create (Runner.mix_seed seed profile.Gen.pname index) in
  let ast = Gen.program rng ~weights:profile.Gen.weights in
  let source = Pretty.program_to_string ast in
  match Pipeline.compile_result source with
  | Error _ -> []
  | Ok c ->
    let ssa = c.Pipeline.ssa in
    let _, ipa = Pipeline.vrp_predictions ssa in
    let counts = observed_counts ssa in
    let out = ref [] in
    List.iter
      (fun (fn : Ir.fn) ->
        let res =
          match ipa with
          | Some ipa -> Interproc.result ipa fn.Ir.fname
          | None -> None
        in
        let static = lazy (Vrp_ir.Static.of_fn fn) in
        Array.iter
          (fun (b : Ir.block) ->
            match b.Ir.term with
            | Ir.Br br ->
              let fallback =
                match res with
                | None -> true
                | Some res -> (
                  match Engine.branch_prob res b.Ir.bid with
                  | None -> true
                  | Some _ -> Engine.used_fallback res b.Ir.bid)
              in
              if fallback then begin
                match Hashtbl.find_opt counts (fn.Ir.fname, b.Ir.bid) with
                | Some (taken, total) when total > 0 ->
                  let static = Lazy.force static in
                  let fv = Features.extract ~static ~res ~src:b.Ir.bid br in
                  let bl = Heuristics.ball_larus static ~src:b.Ir.bid br in
                  let bl_pm =
                    max 0 (min 1000 (int_of_float (Float.round (bl *. 1000.0))))
                  in
                  out := { fv; taken; total; bl_pm } :: !out
                | _ -> ()
              end
            | Ir.Jump _ | Ir.Ret _ -> ())
          fn.Ir.blocks)
      ssa.Ir.fns;
    List.rev !out

let digest_of ~seed ~profile ~count (samples : sample array) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "vrpcorpus %d seed %d profile %s count %d\n" Features.version
       seed profile count);
  Array.iter
    (fun s ->
      Array.iter (fun f -> Buffer.add_string buf (Printf.sprintf "%d," f)) s.fv;
      Buffer.add_string buf (Printf.sprintf " %d %d %d\n" s.taken s.total s.bl_pm))
    samples;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let default_profile =
  match Gen.profile_named "features" with
  | Some p -> p
  | None -> List.hd Gen.profiles

let build ?(jobs = 1) ?(profile = default_profile) ~seed ~count () : t =
  let per_program =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map pool
          (fun index -> samples_of_program ~seed ~profile index)
          (Array.init count Fun.id))
  in
  let samples =
    Array.to_list per_program
    |> List.concat_map (function Ok l -> l | Error _ -> [])
    |> Array.of_list
  in
  {
    seed;
    profile = profile.Gen.pname;
    count;
    programs = count;
    samples;
    digest = digest_of ~seed ~profile:profile.Gen.pname ~count samples;
  }
