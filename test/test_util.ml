(** Tests for the utility library: the deterministic PRNG, the
    statistics helpers and the checksummed frames. *)

module Prng = Vrp_util.Prng
module Stats = Vrp_util.Stats
module Frame = Vrp_util.Frame

let tc = Alcotest.test_case

let prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let prng_ranges () =
  let r = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of range: %d" v;
    let f = Prng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f;
    let x = Prng.range r (-5) 5 in
    if x < -5 || x > 5 then Alcotest.failf "range out of range: %d" x
  done

let prng_spreads () =
  (* all values of a small range are hit *)
  let r = Prng.create 3 in
  let seen = Array.make 8 false in
  for _ = 1 to 500 do
    seen.(Prng.int r 8) <- true
  done;
  Array.iteri (fun i hit -> if not hit then Alcotest.failf "value %d never drawn" i) seen

let stats_mean () =
  Helpers.check_prob "mean empty" 0.0 (Stats.mean []);
  Helpers.check_prob "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let stats_clamp () =
  Helpers.check_prob "clamp low" 0.0 (Stats.clamp ~lo:0.0 ~hi:1.0 (-0.5));
  Helpers.check_prob "clamp high" 1.0 (Stats.clamp ~lo:0.0 ~hi:1.0 2.0);
  Helpers.check_prob "clamp mid" 0.25 (Stats.clamp ~lo:0.0 ~hi:1.0 0.25)

let stats_least_squares_noise () =
  (* near-linear data: slope recovered, r2 high *)
  let pts = List.init 50 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 5.0)) in
  let intercept, slope, r2 = Stats.least_squares pts in
  Helpers.check_prob ~eps:1e-6 "slope" 3.0 slope;
  Helpers.check_prob ~eps:1e-6 "intercept" 5.0 intercept;
  Helpers.check_prob ~eps:1e-6 "r2" 1.0 r2

let stats_degenerate () =
  let _, _, r2 = Stats.least_squares [ (1.0, 1.0) ] in
  Helpers.check_prob "single point" 0.0 r2;
  let _, slope, _ = Stats.least_squares [ (2.0, 1.0); (2.0, 5.0) ] in
  Helpers.check_prob "vertical" 0.0 slope

(* Two frames back to back read back in order; a tear, a flipped body
   byte, another magic and a length field past the end of the bytes each
   end the read with [None]. *)
let frame_codec () =
  let path = Filename.temp_file "vrp-frame" ".bin" in
  let read_all bytes =
    Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
    In_channel.with_open_bin path (fun ic ->
        let rec go acc =
          match Frame.read ~magic:"vrpt1" ic with
          | Some body -> go (body :: acc)
          | None -> List.rev acc
        in
        go [])
  in
  let a = Frame.encode ~magic:"vrpt1" "first" and b = Frame.encode ~magic:"vrpt1" "" in
  Alcotest.(check string) "layout" ("vrpt100000005" ^ Digest.to_hex (Digest.string "first") ^ "first") a;
  Alcotest.(check (list string)) "round trip" [ "first"; "" ] (read_all (a ^ b));
  Alcotest.(check (list string)) "tear" [ "first" ]
    (read_all (a ^ String.sub b 0 (String.length b - 1)));
  let flipped = Bytes.of_string a in
  Bytes.set flipped (Bytes.length flipped - 1) 'F';
  Alcotest.(check (list string)) "bit flip" [] (read_all (Bytes.to_string flipped ^ b));
  Alcotest.(check (list string)) "other magic" []
    (read_all (Frame.encode ~magic:"vrpx1" "first"));
  Alcotest.(check (list string)) "length past the end" []
    (read_all ("vrpt1ffffffff" ^ String.make 32 '0' ^ "first"));
  Sys.remove path

(* QCheck properties of the frame reader, over random bodies and every
   byte of their frames. Each reads one frame from a file holding exactly
   the bytes given; a raise fails the property. *)
let frame_magic = "vrpq1"

let read_one bytes =
  let path = Filename.temp_file "vrp-frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      In_channel.with_open_bin path (fun ic -> Frame.read ~magic:frame_magic ic))

let gen_body = QCheck2.Gen.(string_size ~gen:char (int_range 0 96))
let print_body = Printf.sprintf "%S"

let frame_round_trip =
  Helpers.qtest ~count:300 ~print:print_body "frame: random bodies round-trip" gen_body
    (fun body -> read_one (Frame.encode ~magic:frame_magic body) = Some body)

let frame_byte_changes =
  Helpers.qtest ~count:40 ~print:print_body "frame: a changed byte reads None or the body"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 24))
    (fun body ->
      let frame = Frame.encode ~magic:frame_magic body in
      List.for_all
        (fun i ->
          List.for_all
            (fun delta ->
              let b = Bytes.of_string frame in
              Bytes.set b i (Char.chr ((Char.code frame.[i] + delta) land 0xff));
              match read_one (Bytes.to_string b) with
              | None -> true
              | Some read -> String.equal read body)
            [ 1; 32; 128; 255 ])
        (List.init (String.length frame) Fun.id))

let frame_prefixes =
  Helpers.qtest ~count:40 ~print:print_body "frame: every proper prefix reads None"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 24))
    (fun body ->
      let frame = Frame.encode ~magic:frame_magic body in
      List.for_all
        (fun n -> read_one (String.sub frame 0 n) = None)
        (List.init (String.length frame) Fun.id))

(* The length field is read before the body: one past the end of the file
   must be refused before a buffer of that size is allocated. *)
let frame_length_past_end =
  Helpers.qtest ~count:100 ~print:print_body "frame: a length past the end reads None unallocated"
    gen_body
    (fun body ->
      let framed = Frame.encode ~magic:frame_magic body in
      let header = String.length frame_magic in
      List.for_all
        (fun len ->
          let bytes =
            String.sub framed 0 header ^ Printf.sprintf "%08x" len
            ^ String.sub framed (header + 8) (String.length framed - header - 8)
          in
          let before = Gc.allocated_bytes () in
          let read = read_one bytes in
          read = None && Gc.allocated_bytes () -. before < 1e6)
        [ String.length body + 1; 0x100000; 0x7fffffff; 0xffffffff ])

let suite =
  ( "util",
    [
      tc "prng: deterministic" `Quick prng_deterministic;
      tc "prng: ranges" `Quick prng_ranges;
      tc "prng: spreads" `Quick prng_spreads;
      tc "stats: mean" `Quick stats_mean;
      tc "stats: clamp" `Quick stats_clamp;
      tc "stats: least squares" `Quick stats_least_squares_noise;
      tc "stats: degenerate fits" `Quick stats_degenerate;
      tc "frame: codec" `Quick frame_codec;
      frame_round_trip;
      frame_byte_changes;
      frame_prefixes;
      frame_length_past_end;
    ] )
