(** Server-subsystem tests: the hand-rolled JSON codec, the framed wire
    protocol, and the vrpd daemon itself — request handling, the
    byte-identity contract against the one-shot CLI code path ({!Ops} is
    that code path; [bin/vrpc.ml] is a thin printer over it), concurrent
    mixed requests with an injected crash, session-scoped incremental
    re-analysis, and the interprocedural cancellation beat. *)

module Diag = Vrp_diag.Diag
module Engine = Vrp_core.Engine
module Pipeline = Vrp_core.Pipeline
module Interproc = Vrp_core.Interproc
module Suite = Vrp_suite.Suite
module Json = Vrp_server.Json
module Protocol = Vrp_server.Protocol
module Ops = Vrp_server.Ops
module Session = Vrp_server.Session
module Server = Vrp_server.Server
module Client = Vrp_server.Client
module Fleet = Vrp_server.Fleet
module Admit = Vrp_server.Admit
module Accept = Vrp_server.Accept

let tc = Alcotest.test_case

(* Fleet chaos tests write into sockets of freshly killed workers; like
   the daemons themselves, the harness must see EPIPE, not die of SIGPIPE. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* --- JSON codec --- *)

let json_roundtrip () =
  let v =
    Json.Obj
      [
        ("id", Json.Int 7);
        ("ok", Json.Bool true);
        ("pi", Json.Float 3.25);
        ("none", Json.Null);
        ("xs", Json.List [ Json.Int 1; Json.String "two"; Json.Bool false ]);
        ("nested", Json.Obj [ ("k", Json.String "v\n\"quoted\"") ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trip" true (v = v')
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let json_bytes_lossless () =
  (* Captured CLI output travels as JSON strings; every byte value must
     survive the encode/decode round trip unchanged. *)
  let s = String.init 256 Char.chr in
  match Json.parse (Json.to_string (Json.String s)) with
  | Ok (Json.String s') -> Alcotest.(check string) "all 256 bytes" s s'
  | Ok _ -> Alcotest.fail "not a string"
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let json_parse_errors () =
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid document %S" doc)
    [ ""; "{"; "[1,"; "\"unterminated"; "tru"; "{\"k\" 1}"; "1 2"; "{\"k\":}" ]

let json_nesting_bounded () =
  let nested n = String.make n '[' ^ String.make n ']' in
  (match Json.parse (nested 512) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "512 levels rejected: %s" msg);
  Alcotest.(check (result reject string))
    "513 levels" (Error "byte 512: nesting deeper than 512")
    (Json.parse (nested 513));
  (match Json.parse (String.concat "" (List.init 513 (fun _ -> "{\"k\":"))) with
  | Error msg ->
    Alcotest.(check bool) "objects count too" true (Astring.String.is_infix ~affix:"nesting" msg)
  | Ok _ -> Alcotest.fail "513 nested objects accepted");
  (* A frame of '[' under the 64 MiB cap must not hold the parser: the
     old unbounded descent took 3 s on 4 MB, growing faster than
     linearly. *)
  let doc = String.make (30 * 1024 * 1024) '[' in
  let t0 = Unix.gettimeofday () in
  let r = Json.parse doc in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "30 MB of '[' rejected" true (Result.is_error r);
  if dt > 0.5 then Alcotest.failf "30 MB of '[' took %.2f s to reject" dt

let json_unicode_escapes () =
  let parses doc = match Json.parse doc with Ok (Json.String s) -> Some s | _ -> None in
  Alcotest.(check (option string)) "\\u0041" (Some "A") (parses {|"\u0041"|});
  Alcotest.(check (option string)) "mixed-case hex" (Some "\xff") (parses {|"\u00fF"|});
  Alcotest.(check (option string)) "3-byte UTF-8" (Some "\xe2\x82\xac") (parses {|"\u20AC"|});
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad \\u escape %S" doc)
    [ {|"\u0_41"|}; {|"\u_041"|}; {|"\u+041"|}; {|"\u-041"|}; {|"\u 041"|}; {|"\u004"|};
      {|"\u00g1"|}; {|"\u00|} ]

let json_rejects_non_finite () =
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Error msg ->
        Alcotest.(check bool) (doc ^ ": bad number") true
          (Astring.String.is_infix ~affix:"bad number" msg)
      | Ok _ -> Alcotest.failf "accepted non-finite %S" doc)
    [ "1e400"; "-1e400"; "[1.5e309]"; "{\"x\":2E999}" ];
  Alcotest.(check bool) "largest double" true
    (Json.parse "1.7976931348623157e308" = Ok (Json.Float Float.max_float));
  Alcotest.(check bool) "underflow is finite" true (Json.parse "1e-400" = Ok (Json.Float 0.))

(* --- Codec oracle ---

   The printer copies runs of plain bytes whole and the parser scans by
   index. The byte-at-a-time codec they replaced stays here, verbatim, as
   the reference: the printers must agree byte for byte on every value,
   and the parsers on every document, except where the new parser rejects
   what the old one accepted by mistake (nesting past the depth bound, a
   [\u] escape whose digits hold '_', a number that overflows to
   infinity). *)

module Reference = struct
  type t = Json.t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (* --- Printing --- *)

  let escape_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
      (* %.17g round-trips every finite double; integral floats keep a ".0"
         marker so they re-parse as Float. *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
    | String s -> escape_string buf s
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf

  (* --- Parsing: plain recursive descent over the byte string --- *)

  exception Bad of string

  type state = { s : string; mutable pos : int }

  let error st msg = raise (Bad (Printf.sprintf "byte %d: %s" st.pos msg))

  let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

  let advance st = st.pos <- st.pos + 1

  let rec skip_ws st =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
    | _ -> ()

  let expect st c =
    match peek st with
    | Some c' when c' = c -> advance st
    | Some c' -> error st (Printf.sprintf "expected %C, got %C" c c')
    | None -> error st (Printf.sprintf "expected %C, got end of input" c)

  let literal st word value =
    if
      st.pos + String.length word <= String.length st.s
      && String.sub st.s st.pos (String.length word) = word
    then begin
      st.pos <- st.pos + String.length word;
      value
    end
    else error st (Printf.sprintf "expected %s" word)

  let hex4 st =
    if st.pos + 4 > String.length st.s then error st "truncated \\u escape";
    let h = String.sub st.s st.pos 4 in
    st.pos <- st.pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some n -> n
    | None -> error st "bad \\u escape"

  (* Codepoints < 256 decode to the raw byte (the printer's inverse); larger
     ones are emitted as UTF-8 so nothing is silently dropped. *)
  let add_codepoint buf n =
    if n < 0x100 then Buffer.add_char buf (Char.chr n)
    else if n < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (n lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (n lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((n lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x3f)))
    end

  let parse_string st =
    expect st '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek st with
      | None -> error st "unterminated string"
      | Some '"' -> advance st
      | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error st "unterminated escape"
        | Some c ->
          advance st;
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' -> add_codepoint buf (hex4 st)
          | c -> error st (Printf.sprintf "bad escape \\%C" c));
          loop ())
      | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
    in
    loop ();
    Buffer.contents buf

  let parse_number st =
    let start = st.pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      match peek st with
      | Some c when is_num_char c -> true
      | _ -> false
    do
      advance st
    done;
    let tok = String.sub st.s start (st.pos - start) in
    let is_float = String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok in
    if is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> error st (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some n -> Int n
      | None -> error st (Printf.sprintf "bad number %S" tok)

  let rec parse_value st =
    skip_ws st;
    match peek st with
    | None -> error st "unexpected end of input"
    | Some 'n' -> literal st "null" Null
    | Some 't' -> literal st "true" (Bool true)
    | Some 'f' -> literal st "false" (Bool false)
    | Some '"' -> String (parse_string st)
    | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let items = ref [ parse_value st ] in
        skip_ws st;
        while peek st = Some ',' do
          advance st;
          items := parse_value st :: !items;
          skip_ws st
        done;
        expect st ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws st;
        while peek st = Some ',' do
          advance st;
          fields := field () :: !fields;
          skip_ws st
        done;
        expect st '}';
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number st
    | Some c -> error st (Printf.sprintf "unexpected %C" c)

  let parse s =
    let st = { s; pos = 0 } in
    match parse_value st with
    | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "byte %d: trailing bytes after document" st.pos)
      else Ok v
    | exception Bad msg -> Error msg
end

(* Strings over all 256 byte values, weighted towards the bytes the codec
   treats specially and towards long plain runs. *)
let gen_json_string =
  let open QCheck2.Gen in
  let special = "\"\\/\n\r\t\b\012\000\031\127\128\255u" in
  string_size (int_range 0 40)
    ~gen:
      (frequency
         [ (4, map Char.chr (int_range 0x20 0x7e)); (2, map Char.chr (int_bound 255));
           (1, map (String.get special) (int_bound (String.length special - 1))) ])

let gen_json ~finite =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool; map (fun n -> Json.Int n) int;
        map (fun n -> Json.Int n) (int_range (-1000) 1000);
        map (fun f -> Json.Float f) (if finite then float_range (-1e300) 1e300 else float);
        map (fun n -> Json.Float (float_of_int n)) (int_range (-100) 100);
        map (fun s -> Json.String s) gen_json_string ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         if depth = 0 then scalar
         else
           frequency
             [ (2, scalar);
               (1, map (fun xs -> Json.List xs) (list_size (int_bound 5) (self (depth - 1))));
               ( 1,
                 map (fun fs -> Json.Obj fs)
                   (list_size (int_bound 5) (pair gen_json_string (self (depth - 1)))) ) ])

(* Bytes a mutation writes: every structural byte, escape letters, hex and
   non-hex digits, number characters, whitespace and raw high bytes. *)
let json_mutation_bytes = "[]{},:\"\\/ubfnrtx0123456789aAfFgG_-+.eE \n\t\r\000\127\255"

(* A printed random value, then byte inserts, replacements and deletions,
   then maybe a truncation. *)
let gen_json_doc =
  let open QCheck2.Gen in
  let* doc = map Json.to_string (gen_json ~finite:false) in
  let* edits =
    list_size (int_range 0 4)
      (triple (int_bound 2) (float_bound_exclusive 1.0)
         (int_bound (String.length json_mutation_bytes - 1)))
  in
  let* cut = option (float_bound_exclusive 1.0) in
  let mutate doc (kind, at, byte) =
    let i = int_of_float (at *. float_of_int (String.length doc)) in
    let b = String.make 1 json_mutation_bytes.[byte] in
    let before = String.sub doc 0 i and after = String.sub doc i (String.length doc - i) in
    let rest = if after = "" then "" else String.sub after 1 (String.length after - 1) in
    match kind with 0 -> before ^ b ^ after | 1 -> before ^ b ^ rest | _ -> before ^ rest
  in
  let doc = List.fold_left mutate doc edits in
  return
    (match cut with
    | Some at -> String.sub doc 0 (int_of_float (at *. float_of_int (String.length doc)))
    | None -> doc)

let rec json_depth = function
  | Json.List xs -> 1 + List.fold_left (fun d x -> max d (json_depth x)) 0 xs
  | Json.Obj fs -> 1 + List.fold_left (fun d (_, x) -> max d (json_depth x)) 0 fs
  | _ -> 0

let rec json_finite = function
  | Json.Float f -> Float.is_finite f
  | Json.List xs -> List.for_all json_finite xs
  | Json.Obj fs -> List.for_all (fun (_, x) -> json_finite x) fs
  | _ -> true

(* The new parser's [Error msg] on a document the reference accepted as
   [v] is one of the three intended rejections. *)
let intended_rejection doc msg v =
  json_depth v > 512
  || (not (json_finite v))
  ||
  match Scanf.sscanf_opt msg "byte %d: %s@\n" (fun at rest -> (at, rest)) with
  | Some (at, "bad \\u escape") ->
    at + 4 <= String.length doc && String.contains (String.sub doc at 4) '_'
  | _ -> false

let json_printer_matches_reference =
  Helpers.qtest ~count:500 ~print:(fun v -> Reference.to_string v)
    "json: printer byte-identical to the reference" (gen_json ~finite:false) (fun v ->
      Json.to_string v = Reference.to_string v)

let json_parser_matches_reference =
  Helpers.qtest ~count:1000 ~print:(Printf.sprintf "%S")
    "json: parser agrees with the reference" gen_json_doc (fun doc ->
      match (Json.parse doc, Reference.parse doc) with
      | Ok v, Ok v' -> v = v'
      | Error _, Error _ -> true
      | Ok _, Error _ -> false
      | Error msg, Ok v -> intended_rejection doc msg v)

let json_round_trip_prop =
  Helpers.qtest ~count:500 ~print:(fun v -> Json.to_string v)
    "json: parse (to_string v) = Ok v" (gen_json ~finite:true) (fun v ->
      Json.parse (Json.to_string v) = Ok v)

(* Random documents, their mutations, and raw byte strings, also as
   request frames: the codec answers [Ok] or [Error], never raises. *)
let json_only_errors_escape =
  let gen =
    QCheck2.Gen.(
      oneof
        [ gen_json_doc; string_size (int_range 0 64);
          map
            (fun params ->
              Protocol.encode_request { Protocol.id = 1; op = "predict"; params })
            (gen_json ~finite:false) ])
  in
  Helpers.qtest ~count:1000 ~print:(Printf.sprintf "%S")
    "json: only Error escapes parse and decode_request" gen (fun doc ->
      ignore (Json.parse doc);
      ignore (Protocol.decode_request doc);
      true)

(* --- Wire protocol --- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () -> f a b)

let frame_roundtrip () =
  with_socketpair (fun a b ->
      Protocol.write_frame a "hello";
      Protocol.write_frame a "";
      Protocol.write_frame a (String.make 100_000 'x');
      Unix.close a;
      Alcotest.(check (option string)) "first" (Some "hello") (Protocol.read_frame b);
      Alcotest.(check (option string)) "empty" (Some "") (Protocol.read_frame b);
      (match Protocol.read_frame b with
      | Some s -> Alcotest.(check int) "large" 100_000 (String.length s)
      | None -> Alcotest.fail "large frame lost");
      Alcotest.(check (option string)) "clean EOF" None (Protocol.read_frame b))

let frame_rejects_oversize () =
  with_socketpair (fun a b ->
      (* A header claiming 1 GiB must be rejected before allocation. *)
      let header = Bytes.of_string "\x40\x00\x00\x01" in
      ignore (Unix.write a header 0 4);
      match Protocol.read_frame b with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "oversized frame accepted")

let frame_detects_torn () =
  with_socketpair (fun a b ->
      let header = Bytes.of_string "\x00\x00\x00\x0a" in
      ignore (Unix.write a header 0 4);
      ignore (Unix.write a (Bytes.of_string "abc") 0 3);
      Unix.close a;
      match Protocol.read_frame b with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "torn frame accepted")

(* Random bytes at the frame reader: whatever a peer sends, [read_frame]
   answers [None], [Some payload] or raises [Failure], and a length prefix
   of megabytes, near or past the cap, costs nothing up front: a read
   allocates the bytes that arrived plus two 64 KiB chunks. The reads run
   on a fresh domain, whose allocation counter no other thread moves. *)
let be32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

let read_frame_only_fails =
  let gen =
    QCheck2.Gen.(
      oneof
        [ string_size (int_range 0 64);
          map2
            (fun len tail -> be32 len ^ tail)
            (oneofl
               [ 0; 1; 7; 64 * 1024; (64 * 1024) + 1; 16 * 1024 * 1024; Protocol.max_frame;
                 Protocol.max_frame + 1; 0xffff_ffff ])
            (string_size (int_range 0 64)) ])
  in
  Helpers.qtest ~count:500 ~print:(Printf.sprintf "%S")
    "protocol: read_frame over random bytes" gen (fun bytes ->
      let r, w = Unix.pipe () in
      Fun.protect
        ~finally:(fun () -> Unix.close r)
        (fun () ->
          ignore (Unix.write_substring w bytes 0 (String.length bytes));
          Unix.close w;
          let bound = float_of_int (String.length bytes + (2 * 64 * 1024) + 4096) in
          let rec drain () =
            let before = Gc.allocated_bytes () in
            let outcome = try Some (Protocol.read_frame r) with Failure _ -> None in
            if Gc.allocated_bytes () -. before > bound then false
            else match outcome with Some (Some _) -> drain () | Some None | None -> true
          in
          Domain.join (Domain.spawn drain)))

(* Any payload, including one past a read chunk, comes back as written. *)
let read_frame_inverts_write_frame =
  Helpers.qtest ~count:60
    "protocol: read_frame (write_frame p) = Some p"
    QCheck2.Gen.(string_size (oneof [ int_range 0 64; int_range 65_000 140_000 ]))
    (fun payload ->
      let r, w = Unix.pipe () in
      Fun.protect
        ~finally:(fun () -> Unix.close r)
        (fun () ->
          let writer =
            Thread.create
              (fun () -> Fun.protect ~finally:(fun () -> Unix.close w) (fun () ->
                   Protocol.write_frame w payload))
              ()
          in
          let first = Protocol.read_frame r in
          let eof = Protocol.read_frame r in
          Thread.join writer;
          first = Some payload && eof = None))

let request_response_codec () =
  let req =
    {
      Protocol.id = 42;
      op = "predict";
      params = Json.Obj [ ("source", Json.String "int main(){}") ];
    }
  in
  (match Protocol.decode_request (Protocol.encode_request req) with
  | Ok req' -> Alcotest.(check bool) "request" true (req = req')
  | Error msg -> Alcotest.failf "request decode: %s" msg);
  let resp =
    {
      Protocol.rid = 42;
      ok = true;
      code = 3;
      out = "table\n";
      err = "diag\n";
      data = [ ("n", Json.Int 5) ];
    }
  in
  match Protocol.decode_response (Protocol.encode_response resp) with
  | Ok resp' -> Alcotest.(check bool) "response" true (resp = resp')
  | Error msg -> Alcotest.failf "response decode: %s" msg

let error_response_shape () =
  let r = Protocol.error_response ~rid:9 ~kind:"fault-injected" "boom" in
  Alcotest.(check bool) "not ok" false r.Protocol.ok;
  Alcotest.(check int) "exit-code-2 semantics" 2 r.Protocol.code;
  Alcotest.(check string) "stderr line" "vrpd: boom\n" r.Protocol.err;
  match List.assoc_opt "diagnostic" r.Protocol.data with
  | Some d ->
    Alcotest.(check (option string)) "kind" (Some "fault-injected") (Json.mem_string "kind" d)
  | None -> Alcotest.fail "no structured diagnostic"

(* --- Server harness --- *)

let corpus_sources () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat "corpus" f in
         let ic = open_in_bin path in
         Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> (f, really_input_string ic (in_channel_length ic))))

let bench_source name =
  match Suite.find name with
  | Some b -> b.Suite.source
  | None -> Alcotest.failf "no benchmark %s" name

let with_server ?settings f =
  let server = Server.create ?settings () in
  Fun.protect ~finally:(fun () -> Server.shutdown server) (fun () -> f server)

let predict_req ?(id = 1) ?fault ?name ?(params = []) source =
  let opt k f = Option.fold ~none:[] ~some:(fun v -> [ (k, f v) ]) in
  {
    Protocol.id;
    op = "predict";
    params =
      Json.Obj
        ((("source", Json.String source) :: opt "name" (fun n -> Json.String n) name)
        @ opt "fault" (fun spec -> Json.String spec) fault
        @ params);
  }

let analyze_req ?(id = 1) ?(params = []) ~session ~name source =
  {
    Protocol.id;
    op = "analyze";
    params =
      Json.Obj
        ([
           ("session", Json.String session);
           ("name", Json.String name);
           ("source", Json.String source);
         ]
        @ params);
  }

(* The daemon's correctness contract: its response carries the one-shot
   CLI's exact bytes, at any pool width. *)
let server_predict_byte_identical () =
  let inputs =
    corpus_sources () @ [ ("qsort.mc", bench_source "qsort"); ("kmp.mc", bench_source "kmp") ]
  in
  let expected =
    List.map (fun (n, src) -> (n, Ops.predict ~opts:Ops.default_opts ~source:src ())) inputs
  in
  List.iter
    (fun jobs ->
      with_server ~settings:{ Server.default_settings with Server.jobs }
        (fun server ->
          List.iter2
            (fun (name, source) (_, (want : Ops.outcome)) ->
              let resp = Server.handle server (predict_req ~name source) in
              Alcotest.(check bool) (name ^ " ok") true resp.Protocol.ok;
              Alcotest.(check string)
                (Printf.sprintf "%s stdout (jobs=%d)" name jobs)
                want.Ops.out resp.Protocol.out;
              Alcotest.(check string) (name ^ " stderr") want.Ops.err resp.Protocol.err;
              Alcotest.(check int) (name ^ " code") want.Ops.code resp.Protocol.code)
            inputs expected))
    [ 1; 4 ]

(* Full wire replay of the corpus through a live daemon socket. *)
let wire_corpus_replay () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vrpd-test-%d.sock" (Unix.getpid ()))
  in
  with_server ~settings:{ Server.default_settings with Server.jobs = 2 }
    (fun server ->
      let listen_fd = Server.listen_unix sock in
      let th = Thread.create (fun () -> Server.serve server listen_fd) () in
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          Thread.join th;
          (try Unix.close listen_fd with _ -> ());
          try Sys.remove sock with _ -> ())
        (fun () ->
          Client.with_connection sock (fun conn ->
              List.iter
                (fun (name, source) ->
                  let want = Ops.predict ~opts:Ops.default_opts ~source () in
                  let resp =
                    Client.request conn ~op:"predict"
                      ~params:
                        (Json.Obj
                           [ ("source", Json.String source); ("name", Json.String name) ])
                      ()
                  in
                  Alcotest.(check string) (name ^ " wire stdout") want.Ops.out
                    resp.Protocol.out;
                  Alcotest.(check int) (name ^ " wire code") want.Ops.code
                    resp.Protocol.code)
                (corpus_sources ());
              (* A shutdown request is acknowledged, then stops the serve
                 loop after the response is on the wire. *)
              let resp = Client.request conn ~op:"shutdown" () in
              Alcotest.(check bool) "shutdown ok" true resp.Protocol.ok)))

(* The metrics op over a live socket: valid Prometheus text whose request
   counters move exactly with the work the daemon just did. The registry
   is process-wide (other tests in this binary also bump it), so the test
   asserts deltas between two scrapes, not absolute values. *)
let metrics_scrape_live () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vrpd-metrics-%d.sock" (Unix.getpid ()))
  in
  let series text name =
    let prefix = name ^ " " in
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           if String.length line >= String.length prefix
              && String.sub line 0 (String.length prefix) = prefix
           then
             int_of_string_opt
               (String.sub line (String.length prefix)
                  (String.length line - String.length prefix))
           else None)
    |> function
    | Some n -> n
    | None -> Alcotest.failf "series %s not in scrape" name
  in
  with_server ~settings:{ Server.default_settings with Server.jobs = 2 }
    (fun server ->
      let listen_fd = Server.listen_unix sock in
      let th = Thread.create (fun () -> Server.serve server listen_fd) () in
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          Thread.join th;
          (try Unix.close listen_fd with _ -> ());
          try Sys.remove sock with _ -> ())
        (fun () ->
          Client.with_connection sock (fun conn ->
              let scrape () =
                let resp = Client.request conn ~op:"metrics" () in
                Alcotest.(check bool) "metrics ok" true resp.Protocol.ok;
                resp.Protocol.out
              in
              let before = scrape () in
              Alcotest.(check bool) "TYPE line" true
                (Astring.String.is_infix
                   ~affix:"# TYPE vrpd_requests_total counter" before);
              Alcotest.(check bool) "uptime gauge" true
                (Astring.String.is_infix
                   ~affix:"# TYPE vrpd_uptime_seconds gauge" before);
              let qsort = bench_source "qsort" in
              for _ = 1 to 2 do
                let resp =
                  Client.request conn ~op:"predict"
                    ~params:
                      (Json.Obj
                         [ ("source", Json.String qsort);
                           ("name", Json.String "qsort.mc") ])
                    ()
                in
                Alcotest.(check bool) "predict ok" true resp.Protocol.ok
              done;
              let after = scrape () in
              let delta name = series after name - series before name in
              Alcotest.(check int) "predicts counted" 2
                (delta {|vrpd_requests_total{op="predict"}|});
              Alcotest.(check int) "latency histogram observed" 2
                (delta {|vrpd_request_seconds_count{op="predict"}|});
              (* The scrape counts itself: the [before] scrape is visible
                 in the [after] scrape's own op counter. *)
              Alcotest.(check bool) "scrapes counted" true
                (delta {|vrpd_requests_total{op="metrics"}|} >= 1);
              (* Engine counters flowed into the same registry. *)
              Alcotest.(check bool) "engine runs exposed" true
                (delta "vrp_engine_runs_total" > 0))))

(* 16 concurrent mixed requests; one carries a crash-file fault. The
   faulted one is contained with exit-code-2 semantics, every other
   response matches the one-shot bytes, and the daemon stays up. *)
let concurrent_mixed_with_crash () =
  let qsort = bench_source "qsort" in
  let sieve = bench_source "sieve" in
  let want_predict = Ops.predict ~opts:Ops.default_opts ~source:qsort () in
  let want_compare =
    Ops.compare_predictors ~opts:Ops.default_opts ~train:[ 100; 1 ]
      ~ref_args:[ 1000; 2 ] ~source:sieve ()
  in
  with_server ~settings:{ Server.default_settings with Server.jobs = 2 }
    (fun server ->
      let results = Array.make 16 None in
      let threads =
        List.init 16 (fun i ->
            Thread.create
              (fun () ->
                let resp =
                  match i with
                  | 5 ->
                    Server.handle server
                      (predict_req ~id:i ~fault:"crash-file:qsort" ~name:"qsort.mc" qsort)
                  | _ when i mod 3 = 0 ->
                    Server.handle server (predict_req ~id:i ~name:"qsort.mc" qsort)
                  | _ when i mod 3 = 1 ->
                    Server.handle server
                      {
                        Protocol.id = i;
                        op = "compare";
                        params = Json.Obj [ ("source", Json.String sieve) ];
                      }
                  | _ ->
                    Server.handle server
                      (analyze_req ~id:i ~session:(Printf.sprintf "s%d" (i mod 2))
                         ~name:"qsort.mc" qsort)
                in
                results.(i) <- Some resp)
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i resp ->
          match resp with
          | None -> Alcotest.failf "request %d lost" i
          | Some (resp : Protocol.response) ->
            Alcotest.(check int) (Printf.sprintf "id echo %d" i) i resp.Protocol.rid;
            if i = 5 then begin
              Alcotest.(check bool) "faulted contained" false resp.Protocol.ok;
              Alcotest.(check int) "faulted code" 2 resp.Protocol.code
            end
            else begin
              Alcotest.(check bool) (Printf.sprintf "ok %d" i) true resp.Protocol.ok;
              let want = if i mod 3 = 1 then want_compare else want_predict in
              Alcotest.(check string)
                (Printf.sprintf "stdout %d" i)
                want.Ops.out resp.Protocol.out
            end)
        results;
      let c = Server.counters server in
      Alcotest.(check int) "served" 15 c.Server.served;
      Alcotest.(check int) "contained" 1 c.Server.contained;
      (* The daemon survived: it still answers. *)
      let resp = Server.handle server { Protocol.id = 99; op = "status"; params = Json.Null } in
      Alcotest.(check bool) "still serving" true resp.Protocol.ok)

(* --- Incremental re-analysis --- *)

let inc_src cutoff =
  Printf.sprintf
    {|
int leaf(int x) {
  if (x > %d) { return 1; }
  return 0;
}
int mid(int n) {
  int s = 0;
  int i = 0;
  while (i < n) {
    s = s + leaf(i);
    i = i + 1;
  }
  return s;
}
int main(int n, int s) {
  int r = mid(n);
  if (r > 10) { return r; }
  return 0;
}
|}
    cutoff

let inc_v1 = inc_src 5

(* Same program with only [leaf]'s branch constant changed: its structural
   digest moves, its return range ({0,1}) does not — so callers' memo keys
   are unchanged and only leaf's wave must re-run. *)
let inc_v2 = inc_src 3

let get_plan (resp : Protocol.response) =
  match List.assoc_opt "plan" resp.Protocol.data with
  | Some p -> p
  | None -> Alcotest.fail "analyze response has no plan"

let get_cache_delta (resp : Protocol.response) =
  match List.assoc_opt "cache" resp.Protocol.data with
  | Some c -> c
  | None -> Alcotest.fail "analyze response has no cache delta"

let names plan key =
  match Json.mem_list key plan with
  | Some xs -> List.filter_map Json.get_string xs
  | None -> Alcotest.failf "plan has no %s" key

let cint c key = Option.value ~default:(-1) (Json.mem_int key c)

(* Thirteen functions: [f0 .. f11], each called once from [main]. An edit
   to [f0]'s cutoff changes only [f0] and keeps its return range. *)
let fan_src cutoff =
  let fn i k =
    Printf.sprintf
      "int f%d(int x) {\n\
      \  int acc = 0;\n\
      \  for (int i = 0; i < 40; i++) {\n\
      \    if (x > %d) acc = (acc + i * %d) %% 257; else acc = acc - 1;\n\
      \  }\n\
      \  return acc %% 16;\n\
       }\n"
      i k (i + 2)
  in
  String.concat ""
    (List.init 12 (fun i -> fn i (if i = 0 then cutoff else 7))
    @ [
        "int main(int n, int seed) {\n  int s = 0;\n";
        String.concat "" (List.init 12 (fun i -> Printf.sprintf "  s = s + f%d(n + %d);\n" i i));
        "  return s;\n}\n";
      ])

let check_delta what (hits, misses, invalidations) d =
  Alcotest.(check (list int)) (what ^ ": hits, misses, invalidations")
    [ hits; misses; invalidations ]
    [ cint d "hits"; cint d "misses"; cint d "invalidations" ]

let session_incremental_edit () =
  with_server (fun server ->
      let call source = Server.handle server (analyze_req ~session:"edit" ~name:"inc.mc" source) in
      (* Cold: everything is new. *)
      let r1 = call inc_v1 in
      Alcotest.(check bool) "cold ok" true r1.Protocol.ok;
      let p1 = get_plan r1 in
      Alcotest.(check (option bool)) "fresh" (Some true) (Json.mem_bool "fresh" p1);
      Alcotest.(check (list string)) "all changed" [ "leaf"; "main"; "mid" ]
        (List.sort compare (names p1 "changed"));
      check_delta "cold" (0, 4, 0) (get_cache_delta r1);
      (* Warm identical re-submit: nothing re-runs. *)
      let r2 = call inc_v1 in
      let p2 = get_plan r2 in
      Alcotest.(check (list string)) "nothing changed" [] (names p2 "changed");
      Alcotest.(check (list string)) "all reused" [ "leaf"; "main"; "mid" ]
        (List.sort compare (names p2 "reused"));
      check_delta "warm" (4, 0, 0) (get_cache_delta r2);
      Alcotest.(check string) "warm bytes identical" r1.Protocol.out r2.Protocol.out;
      (* One-function edit: only leaf's wave is dirty; its callers are
         planned as reused and actually hit (the edit keeps leaf's return
         range, so their memo keys are unchanged). Only leaf's slot misses
         and is invalidated. *)
      let r3 = call inc_v2 in
      let p3 = get_plan r3 in
      Alcotest.(check (list string)) "edit changed" [ "leaf" ] (names p3 "changed");
      Alcotest.(check (list string)) "edit dirty" [ "leaf" ] (names p3 "dirty");
      Alcotest.(check (list string)) "edit reused" [ "main"; "mid" ]
        (List.sort compare (names p3 "reused"));
      check_delta "edit" (3, 1, 1) (get_cache_delta r3);
      (* The incremental answer is byte-identical to a cold one-shot of
         the edited source. *)
      let want = Ops.predict ~opts:Ops.default_opts ~source:inc_v2 () in
      Alcotest.(check string) "edit bytes identical" want.Ops.out r3.Protocol.out;
      (* Fan-out: editing f0 re-runs f0 alone; the other twelve hit. *)
      let call_fan source = Server.handle server (analyze_req ~session:"fan" ~name:"fan.mc" source) in
      ignore (call_fan (fan_src 7));
      let r = call_fan (fan_src 9) in
      let p = get_plan r in
      Alcotest.(check (list string)) "fan changed" [ "f0" ] (names p "changed");
      Alcotest.(check (list string)) "fan dirty" [ "f0" ] (names p "dirty");
      Alcotest.(check int) "fan reused" 12 (List.length (names p "reused"));
      check_delta "fan edit" (12, 1, 1) (get_cache_delta r);
      let want = Ops.predict ~opts:Ops.default_opts ~source:(fan_src 9) () in
      Alcotest.(check string) "fan bytes identical" want.Ops.out r.Protocol.out)

(* --- Interprocedural deadline check (between functions) --- *)

let beat_demotes_between_functions () =
  let c = Pipeline.compile inc_v1 in
  let tok = Diag.Cancel.make ~deadline:0. in
  (* The engine never runs: the wave driver's own check must see the
     passed deadline before each function and demote it. *)
  let poison ~config:_ ~report:_ ~call_oracle:_ ~param_values:_ _ =
    Alcotest.fail "analyze_fn ran despite a cancelled token"
  in
  let report = Diag.create () in
  let config = { Engine.default_config with Engine.cancel = Some tok } in
  let ipa =
    Interproc.analyze ~config ~report ~analyze_fn:poison c.Pipeline.ssa
  in
  Alcotest.(check (option string)) "main demoted with deterministic reason"
    (Some "deadline exceeded")
    (Interproc.failure ipa "main");
  Alcotest.(check bool) "crash diagnostics recorded" true
    (Diag.count_kind report Diag.Analysis_crashed > 0);
  (* Demotion, not abortion: predictions stay total via the fallback. *)
  let vrp, _ =
    Pipeline.vrp_predictions ~config ~report:(Diag.create ()) ~analyze_fn:poison
      c.Pipeline.ssa
  in
  Alcotest.(check bool) "predictions total" true (Hashtbl.length vrp > 0)

(* --- Status / evict / sessions --- *)

let status_and_evict () =
  with_server (fun server ->
      ignore (Server.handle server (analyze_req ~session:"a" ~name:"x.mc" inc_v1));
      ignore (Server.handle server (predict_req ~id:2 ~name:"q.mc" (bench_source "qsort")));
      let status = Server.handle server { Protocol.id = 3; op = "status"; params = Json.Null } in
      Alcotest.(check bool) "status ok" true status.Protocol.ok;
      let data k = List.assoc_opt k status.Protocol.data in
      Alcotest.(check bool) "version present" true
        (data "version" <> None && data "version" = Some (Json.String Vrp_server.Version.version));
      (match data "sessions" with
      | Some (Json.List [ Json.String "a" ]) -> ()
      | _ -> Alcotest.fail "expected one session named a");
      Alcotest.(check bool) "served counted" true
        (match data "served" with Some (Json.Int n) -> n >= 2 | _ -> false);
      let evict = Server.handle server { Protocol.id = 4; op = "evict"; params = Json.Null } in
      Alcotest.(check bool) "evict ok" true evict.Protocol.ok;
      (match List.assoc_opt "evicted" evict.Protocol.data with
      | Some (Json.Int n) -> Alcotest.(check bool) "evicted warm entries" true (n > 0)
      | _ -> Alcotest.fail "no evicted count");
      (* Unknown ops are contained, not fatal. *)
      let bad = Server.handle server { Protocol.id = 5; op = "nonsense"; params = Json.Null } in
      Alcotest.(check bool) "unknown op contained" false bad.Protocol.ok;
      Alcotest.(check int) "unknown op code" 2 bad.Protocol.code)

let version_matches_dune_project () =
  (* lib/server/version.ml is generated from dune-project; pin the pipeline. *)
  let project = "../dune-project" in
  if Sys.file_exists project then begin
    let ic = open_in project in
    let rec find () =
      match input_line ic with
      | line when Astring.String.is_prefix ~affix:"(version " line ->
        Astring.String.with_range ~first:9 ~len:(String.length line - 10) line
      | _ -> find ()
      | exception End_of_file -> Alcotest.fail "dune-project has no (version ...)"
    in
    let v = Fun.protect ~finally:(fun () -> close_in ic) find in
    Alcotest.(check string) "single-sourced version" v Vrp_server.Version.version
  end
  else Alcotest.(check bool) "version non-empty" true (Vrp_server.Version.version <> "")

(* --- Address parsing (last-colon split; IPv6 literals) --- *)

let parse_hostport_units () =
  let check_ok addr want =
    match Protocol.parse_hostport addr with
    | Ok got -> Alcotest.(check (pair string int)) addr want got
    | Error msg -> Alcotest.failf "%s rejected: %s" addr msg
  in
  check_ok "127.0.0.1:7001" ("127.0.0.1", 7001);
  check_ok ":7001" ("127.0.0.1", 7001);
  check_ok "example.test:80" ("example.test", 80);
  (* The port is whatever follows the *last* colon, so IPv6 literals and
     colon-ridden hosts survive; brackets are stripped. *)
  check_ok "[::1]:7001" ("::1", 7001);
  check_ok "::1:7001" ("::1", 7001);
  check_ok "fe80::2:9000" ("fe80::2", 9000);
  List.iter
    (fun addr ->
      match Protocol.parse_hostport addr with
      | Error _ -> ()
      | Ok (h, p) -> Alcotest.failf "%s accepted as %s:%d" addr h p)
    [ "noport"; "host:"; "host:x"; "host:-1"; "host:65536"; "[::1]" ]

let client_parse_addr_units () =
  let addr = Alcotest.testable
      (fun ppf -> function
        | `Unix p -> Format.fprintf ppf "unix:%s" p
        | `Tcp (h, p) -> Format.fprintf ppf "tcp:%s:%d" h p)
      ( = )
  in
  let check name want got = Alcotest.check addr name want got in
  check "unix by slash" (`Unix "/tmp/vrpd.sock") (Client.parse_addr "/tmp/vrpd.sock");
  check "unix by no colon" (`Unix "vrpd.sock") (Client.parse_addr "vrpd.sock");
  check "tcp" (`Tcp ("localhost", 7001)) (Client.parse_addr "localhost:7001");
  check "tcp ipv6" (`Tcp ("::1", 7001)) (Client.parse_addr "[::1]:7001");
  (* A colon-bearing string that is not HOST:PORT stays a Unix path. *)
  check "fallback" (`Unix "weird:name") (Client.parse_addr "weird:name")

let fault_spec_units () =
  (match Diag.Fault.parse "kill-worker:12" with
  | Ok (Diag.Fault.Kill_worker 12) -> ()
  | _ -> Alcotest.fail "kill-worker:12 did not parse");
  (match Diag.Fault.parse "slow-worker:600" with
  | Ok (Diag.Fault.Slow_worker 600) -> ()
  | _ -> Alcotest.fail "slow-worker:600 did not parse");
  (match Diag.Fault.parse "flood-conns:300" with
  | Ok (Diag.Fault.Flood_conns 300) -> ()
  | _ -> Alcotest.fail "flood-conns:300 did not parse");
  (match Diag.Fault.parse "stall-frame:2500" with
  | Ok (Diag.Fault.Stall_frame 2500) -> ()
  | _ -> Alcotest.fail "stall-frame:2500 did not parse");
  List.iter
    (fun spec ->
      match Diag.Fault.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" spec)
    [ "kill-worker:0"; "kill-worker:"; "slow-worker:x"; "flood-conns:0"; "stall-frame:x" ];
  Alcotest.(check string) "round-trip" "kill-worker:3"
    (Diag.Fault.to_string (Diag.Fault.Kill_worker 3));
  Alcotest.(check string) "chaos round-trip" "flood-conns:64"
    (Diag.Fault.to_string (Diag.Fault.Flood_conns 64))

(* --- Socket hygiene: live daemons are not stolen, stale files are --- *)

let listen_unix_live_probe () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vrpd-probe-%d.sock" (Unix.getpid ()))
  in
  with_server (fun server ->
      let listen_fd = Server.listen_unix sock in
      let th = Thread.create (fun () -> Server.serve server listen_fd) () in
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          Thread.join th;
          (try Unix.close listen_fd with _ -> ());
          try Sys.remove sock with _ -> ())
        (fun () ->
          (* The path is a live daemon: binding again must refuse, and the
             daemon must still answer afterwards. *)
          (match Server.listen_unix sock with
          | fd ->
            (try Unix.close fd with _ -> ());
            Alcotest.fail "listen_unix stole a live daemon's socket"
          | exception Failure msg ->
            Alcotest.(check bool) "clear error" true
              (Astring.String.is_infix ~affix:"live daemon" msg));
          Client.with_connection sock (fun conn ->
              let resp = Client.request conn ~op:"ping" () in
              Alcotest.(check bool) "daemon survived the probe" true resp.Protocol.ok)));
  (* A stale socket file (bound once, daemon gone) is reclaimed. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.close fd;
  let fd2 = Server.listen_unix sock in
  (try Unix.close fd2 with _ -> ());
  try Sys.remove sock with _ -> ()

(* --- Ping --- *)

let ping_op () =
  with_server (fun server ->
      let resp = Server.handle server { Protocol.id = 7; op = "ping"; params = Json.Null } in
      Alcotest.(check bool) "ok" true resp.Protocol.ok;
      Alcotest.(check int) "rid echo" 7 resp.Protocol.rid;
      Alcotest.(check (option bool)) "pong" (Some true)
        (List.assoc_opt "pong" resp.Protocol.data |> Option.map (fun v -> v = Json.Bool true));
      Alcotest.(check (option int)) "pid" (Some (Unix.getpid ()))
        (Option.bind (List.assoc_opt "pid" resp.Protocol.data) Json.get_int);
      (* Ping doubles as the fleet's load probe. *)
      let n k = Option.bind (List.assoc_opt k resp.Protocol.data) Json.get_int in
      Alcotest.(check (option int)) "idle inflight" (Some 0) (n "inflight");
      Alcotest.(check (option int)) "capacity"
        (Some Vrp_server.Admit.default_limits.Vrp_server.Admit.max_inflight)
        (n "capacity");
      Alcotest.(check (option int)) "no shed yet" (Some 0) (n "shed"))

(* --- TCP round trip: the same wire suite over listen_tcp --- *)

let tcp_wire_round_trip () =
  with_server ~settings:{ Server.default_settings with Server.jobs = 2 }
    (fun server ->
      let listen_fd = Server.listen_tcp ~host:"127.0.0.1" ~port:0 in
      let port =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, port) -> port
        | _ -> Alcotest.fail "listen_tcp did not bind an inet address"
      in
      let th = Thread.create (fun () -> Server.serve server listen_fd) () in
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          Thread.join th;
          try Unix.close listen_fd with _ -> ())
        (fun () ->
          let addr = Printf.sprintf "127.0.0.1:%d" port in
          Client.with_connection addr (fun conn ->
              List.iter
                (fun (name, source) ->
                  let want = Ops.predict ~opts:Ops.default_opts ~source () in
                  let resp =
                    Client.request conn ~op:"predict"
                      ~params:
                        (Json.Obj
                           [ ("source", Json.String source); ("name", Json.String name) ])
                      ()
                  in
                  Alcotest.(check string) (name ^ " tcp stdout") want.Ops.out
                    resp.Protocol.out;
                  Alcotest.(check int) (name ^ " tcp code") want.Ops.code
                    resp.Protocol.code)
                (corpus_sources ());
              let resp = Client.request conn ~op:"shutdown" () in
              Alcotest.(check bool) "tcp shutdown ok" true resp.Protocol.ok)))

(* --- Client failover retry --- *)

let request_retry_failover () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vrpd-retry-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove sock with _ -> ());
  (* The daemon comes up only after the client has started retrying — the
     connection-refused window a crash-replaced worker presents. *)
  let server = Server.create () in
  let listen_fd = ref Unix.stdin in
  let th =
    Thread.create
      (fun () ->
        Thread.delay 0.3;
        listen_fd := Server.listen_unix sock;
        Server.serve server !listen_fd)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join th;
      (try Unix.close !listen_fd with _ -> ());
      Server.shutdown server;
      try Sys.remove sock with _ -> ())
    (fun () ->
      let resp = Client.request_retry ~addr:sock ~op:"ping" () in
      Alcotest.(check bool) "retry reached the late daemon" true resp.Protocol.ok);
  (* Out of tries against nothing at all: the last error propagates. *)
  match Client.request_retry ~attempts:2 ~backoff_ms:1 ~addr:sock ~op:"ping" () with
  | _ -> Alcotest.fail "request_retry succeeded against no daemon"
  | exception (Unix.Unix_error _ | Failure _) -> ()

(* --- Fleet: routing, status, failover under worker kills, wedge --- *)

let fleet_dir tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "vrp-fleet-%s-%d" tag (Unix.getpid ()))

let with_fleet ~tag ?worker_settings settings_of f =
  let dir = fleet_dir tag in
  let settings = settings_of (Fleet.default_settings ~dir) in
  let fleet =
    Fleet.create ~settings ~spawner:(Fleet.in_process_spawner ?worker_settings ()) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Fleet.shutdown fleet;
      try Unix.rmdir dir with _ -> ())
    (fun () -> f fleet)

let fleet_routing_and_status () =
  with_fleet ~tag:"route"
    (fun s -> { s with Fleet.size = 2 })
    (fun fleet ->
      (* Routing is deterministic and session-sticky. *)
      let params = Json.Obj [ ("session", Json.String "edit") ] in
      let s1 = Fleet.route_sock fleet ~op:"analyze" ~params in
      let s2 = Fleet.route_sock fleet ~op:"analyze" ~params in
      Alcotest.(check string) "stable shard" s1 s2;
      (* A proxied predict answers the one-shot bytes. *)
      let qsort = bench_source "qsort" in
      let want = Ops.predict ~opts:Ops.default_opts ~source:qsort () in
      let resp = Fleet.handle fleet (predict_req ~id:3 ~name:"qsort.mc" qsort) in
      Alcotest.(check bool) "proxied ok" true resp.Protocol.ok;
      Alcotest.(check int) "proxied rid rewritten" 3 resp.Protocol.rid;
      Alcotest.(check string) "proxied bytes" want.Ops.out resp.Protocol.out;
      (* fleet-status is answered by the front door itself. *)
      let st = Fleet.handle fleet { Protocol.id = 4; op = "fleet-status"; params = Json.Null } in
      Alcotest.(check bool) "status ok" true st.Protocol.ok;
      Alcotest.(check (option int)) "size" (Some 2)
        (Option.bind (List.assoc_opt "size" st.Protocol.data) Json.get_int);
      Alcotest.(check (option int)) "healthy" (Some 2)
        (Option.bind (List.assoc_opt "healthy" st.Protocol.data) Json.get_int);
      (match List.assoc_opt "workers" st.Protocol.data with
      | Some (Json.List ws) ->
        Alcotest.(check int) "worker rows" 2 (List.length ws);
        (* Every worker row carries the load fields routing keys off. *)
        List.iter
          (fun w ->
            List.iter
              (fun k ->
                if Json.mem_int k w = None then
                  Alcotest.failf "worker row missing %s" k)
              [ "inflight"; "capacity"; "shed" ])
          ws
      | _ -> Alcotest.fail "no workers list");
      (* [metrics] is front-door-local: the proxy answers from its own
         registry with its fleet counters and per-worker health gauges. *)
      let m =
        Fleet.handle fleet { Protocol.id = 5; op = "metrics"; params = Json.Null }
      in
      Alcotest.(check bool) "metrics ok" true m.Protocol.ok;
      List.iter
        (fun affix ->
          if not (Astring.String.is_infix ~affix m.Protocol.out) then
            Alcotest.failf "fleet scrape missing %s" affix)
        [
          "# TYPE vrpd_fleet_requests_total counter";
          {|vrpd_fleet_requests_total{op="predict"}|};
          "vrpd_fleet_workers_healthy 2.0";
          {|vrpd_fleet_worker_up{worker="0"} 1.0|};
          {|vrpd_fleet_worker_up{worker="1"} 1.0|};
        ])

(* The acceptance scenario: a fleet front door on a live socket, 16
   concurrent clients, the kill-worker fault firing repeatedly mid-run.
   Zero requests may be lost, every response must carry the one-shot CLI's
   exact bytes, and fleet-status must report the replacements. *)
let fleet_kill_failover_16_clients () =
  let qsort = bench_source "qsort" and sieve = bench_source "sieve" in
  let want_q = Ops.predict ~opts:Ops.default_opts ~source:qsort () in
  let want_s = Ops.predict ~opts:Ops.default_opts ~source:sieve () in
  with_fleet ~tag:"chaos"
    (fun s ->
      {
        s with
        Fleet.size = 3;
        ping_interval_ms = 50;
        fault = Some (Diag.Fault.Kill_worker 8);
      })
    (fun fleet ->
      let front = Filename.concat (Fleet.settings fleet).Fleet.dir "front.sock" in
      let listen_fd = Server.listen_unix front in
      let th = Thread.create (fun () -> Fleet.serve fleet listen_fd) () in
      Fun.protect
        ~finally:(fun () ->
          Fleet.stop fleet;
          Thread.join th;
          (try Unix.close listen_fd with _ -> ());
          try Sys.remove front with _ -> ())
        (fun () ->
          let n_clients = 16 and per_client = 2 in
          let results = Array.make (n_clients * per_client) None in
          let threads =
            List.init n_clients (fun i ->
                Thread.create
                  (fun () ->
                    for j = 0 to per_client - 1 do
                      let idx = (i * per_client) + j in
                      let name, src =
                        if idx mod 2 = 0 then ("qsort.mc", qsort) else ("sieve.mc", sieve)
                      in
                      let resp =
                        Client.request_retry ~seed:idx ~addr:front ~op:"predict"
                          ~params:
                            (Json.Obj
                               [ ("source", Json.String src); ("name", Json.String name) ])
                          ()
                      in
                      results.(idx) <- Some resp
                    done)
                  ())
          in
          List.iter Thread.join threads;
          Array.iteri
            (fun idx resp ->
              match resp with
              | None -> Alcotest.failf "request %d lost under churn" idx
              | Some (resp : Protocol.response) ->
                let want = if idx mod 2 = 0 then want_q else want_s in
                Alcotest.(check bool) (Printf.sprintf "ok %d" idx) true resp.Protocol.ok;
                Alcotest.(check string)
                  (Printf.sprintf "stdout %d byte-identical" idx)
                  want.Ops.out resp.Protocol.out;
                Alcotest.(check string)
                  (Printf.sprintf "stderr %d" idx)
                  want.Ops.err resp.Protocol.err;
                Alcotest.(check int) (Printf.sprintf "code %d" idx) want.Ops.code
                  resp.Protocol.code)
            results;
          (* 32 proxied requests with kill-worker:8 fired 4 kills; the
             supervisor must have replaced workers and reported it. *)
          let st = Client.request_retry ~addr:front ~op:"fleet-status" () in
          let n k = Option.bind (List.assoc_opt k st.Protocol.data) Json.get_int in
          Alcotest.(check bool) "workers replaced" true
            (match n "replaced" with Some r -> r >= 1 | None -> false);
          Alcotest.(check bool) "failovers recorded" true
            (match n "failovers" with Some f -> f >= 1 | None -> false);
          let c = Fleet.counters fleet in
          Alcotest.(check int) "nothing contained" 0 c.Fleet.contained))

(* Wedged workers: every incarnation is slowed past the ping timeout, so
   the monitor replaces each slot until its restart budget is gone and the
   slot degrades; a fully degraded fleet contains requests instead of
   hanging them. *)
let fleet_wedged_worker_degrades () =
  with_fleet ~tag:"wedge"
    ~worker_settings:
      { Server.default_settings with Server.fault = Some (Diag.Fault.Slow_worker 600) }
    (fun s ->
      {
        s with
        Fleet.size = 2;
        ping_interval_ms = 60;
        ping_timeout_ms = 150;
        restarts = 1;
        retries = 2;
        retry_backoff_ms = 20;
      })
    (fun fleet ->
      let deadline = Unix.gettimeofday () +. 20.0 in
      while (not (Fleet.degraded fleet)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.05
      done;
      Alcotest.(check bool) "wedged slots degraded" true (Fleet.degraded fleet);
      (* Give the monitor time to walk every slot to degradation. *)
      let all_degraded () =
        match
          Fleet.handle fleet { Protocol.id = 1; op = "fleet-status"; params = Json.Null }
        with
        | st -> (
          match Option.bind (List.assoc_opt "healthy" st.Protocol.data) Json.get_int with
          | Some 0 -> true
          | _ -> false)
      in
      while (not (all_degraded ())) && Unix.gettimeofday () < deadline do
        Thread.delay 0.05
      done;
      Alcotest.(check bool) "every slot degraded" true (all_degraded ());
      let c = Fleet.counters fleet in
      Alcotest.(check bool) "replacements were attempted" true (c.Fleet.replaced >= 1);
      (* Routing with no healthy workers contains, it does not hang. *)
      let resp = Fleet.handle fleet (predict_req ~id:9 ~name:"x.mc" "int main(){ return 0; }") in
      Alcotest.(check bool) "contained" false resp.Protocol.ok;
      Alcotest.(check int) "exit-code-2 semantics" 2 resp.Protocol.code)

(* --- Overload: framing edges, admission ladder, deadlines, sweeper --- *)

let busy_response_units () =
  let r = Protocol.busy_response ~rid:5 ~retry_after_ms:40 "at capacity" in
  Alcotest.(check bool) "not ok" false r.Protocol.ok;
  Alcotest.(check int) "exit-code-2 semantics" 2 r.Protocol.code;
  Alcotest.(check (option int)) "retry hint" (Some 40) (Protocol.retry_after_ms r);
  (match List.assoc_opt "diagnostic" r.Protocol.data with
  | Some d ->
    Alcotest.(check (option string)) "kind" (Some "busy") (Json.mem_string "kind" d)
  | None -> Alcotest.fail "busy response has no diagnostic");
  (* The hint survives the wire codec. *)
  (match Protocol.decode_response (Protocol.encode_response r) with
  | Ok r' ->
    Alcotest.(check (option int)) "hint on the wire" (Some 40)
      (Protocol.retry_after_ms r')
  | Error msg -> Alcotest.failf "decode: %s" msg);
  (* Only a failing response with a well-formed hint reads as busy. *)
  let ok_resp =
    { Protocol.rid = 1; ok = true; code = 0; out = ""; err = "";
      data = [ ("retry_after_ms", Json.Int 10) ] }
  in
  Alcotest.(check (option int)) "ok response is not busy" None
    (Protocol.retry_after_ms ok_resp);
  Alcotest.(check (option int)) "plain error is not busy" None
    (Protocol.retry_after_ms (Protocol.error_response ~rid:1 ~kind:"crashed" "x"))

(* A peer dying inside the 4-byte header is a torn frame, not a clean EOF
   and not a hang. *)
let frame_partial_header_eof () =
  with_socketpair (fun a b ->
      ignore (Unix.write a (Bytes.of_string "\x00\x00") 0 2);
      Unix.close a;
      match Protocol.read_frame b with
      | exception Failure _ -> ()
      | Some _ -> Alcotest.fail "partial header produced a frame"
      | None -> Alcotest.fail "partial header read as clean EOF")

(* An adversarial length prefix must not cost its claimed size up front:
   the payload is read in bounded chunks, so a 32 MiB claim followed by a
   disconnect allocates chunk-order memory, not 32 MiB. *)
let frame_oversize_prefix_bounded_alloc () =
  with_socketpair (fun a b ->
      let header = Bytes.of_string "\x02\x00\x00\x00" (* 32 MiB *) in
      ignore (Unix.write a header 0 4);
      Unix.close a;
      let before = Gc.allocated_bytes () in
      (match Protocol.read_frame b with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "torn 32 MiB frame accepted");
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "bounded allocation (%.0f bytes)" allocated)
        true
        (allocated < 4_000_000.))

let overload_sock tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "vrpd-%s-%d.sock" tag (Unix.getpid ()))

(* Run a server on a live Unix socket with the given admission limits. *)
let with_live_server ?settings ~tag f =
  let sock = overload_sock tag in
  (try Sys.remove sock with _ -> ());
  with_server ?settings (fun server ->
      let listen_fd = Server.listen_unix sock in
      let th = Thread.create (fun () -> Server.serve server listen_fd) () in
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          Thread.join th;
          (try Unix.close listen_fd with _ -> ());
          try Sys.remove sock with _ -> ())
        (fun () -> f server sock))

(* An oversize length prefix on a live connection is answered with a
   structured bad-frame response (rid 0), only that connection dies, and
   the daemon keeps serving. *)
let oversize_prefix_contained_live () =
  with_live_server ~tag:"oversize" (fun _server sock ->
      let fd = Client.connect_fd sock in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          (* 64 MiB + 1: one past the cap. *)
          ignore (Unix.write fd (Bytes.of_string "\x04\x00\x00\x01") 0 4);
          match Protocol.read_frame fd with
          | Some payload -> (
            match Protocol.decode_response payload with
            | Ok resp ->
              Alcotest.(check bool) "refused" false resp.Protocol.ok;
              Alcotest.(check int) "rid 0 (no request read)" 0 resp.Protocol.rid;
              (match List.assoc_opt "diagnostic" resp.Protocol.data with
              | Some d ->
                Alcotest.(check (option string)) "bad-frame" (Some "bad-frame")
                  (Json.mem_string "kind" d)
              | None -> Alcotest.fail "no diagnostic")
            | Error msg -> Alcotest.failf "undecodable answer: %s" msg)
          | None -> Alcotest.fail "connection closed without a bad-frame answer");
      (* The daemon survived; a fresh connection analyses normally. *)
      let resp = Client.request_retry ~addr:sock ~op:"ping" () in
      Alcotest.(check bool) "daemon alive after bad frame" true resp.Protocol.ok)

(* A peer dying mid-payload kills only its own connection. *)
let eof_mid_payload_contained_live () =
  with_live_server ~tag:"midframe" (fun _server sock ->
      let fd = Client.connect_fd sock in
      ignore (Unix.write fd (Bytes.of_string "\x00\x00\x00\x0aabc") 0 7);
      Unix.close fd;
      let qsort = bench_source "qsort" in
      let want = Ops.predict ~opts:Ops.default_opts ~source:qsort () in
      let resp =
        Client.request_retry ~addr:sock ~op:"predict"
          ~params:
            (Json.Obj
               [ ("source", Json.String qsort); ("name", Json.String "qsort.mc") ])
          ()
      in
      Alcotest.(check bool) "served after torn peer" true resp.Protocol.ok;
      Alcotest.(check string) "byte-identical" want.Ops.out resp.Protocol.out)

let admit_shed_ladder_units () =
  let limits =
    { Admit.max_conns = 2; max_inflight = 1; max_queue = 0; queue_wait_ms = 10;
      idle_timeout_ms = 0 }
  in
  let a = Admit.create ~limits () in
  (match Admit.admit a () with
  | Admit.Admitted -> ()
  | _ -> Alcotest.fail "idle admit refused");
  (* Slot taken, zero queue: immediate shed with a positive hint. *)
  (match Admit.admit a () with
  | Admit.Shed ms -> Alcotest.(check bool) "positive hint" true (ms > 0)
  | _ -> Alcotest.fail "over-capacity admit not shed");
  (* A request already past its deadline is expired, not queued. *)
  (match Admit.admit a ~deadline:(Unix.gettimeofday () -. 1.) () with
  | Admit.Expired -> ()
  | _ -> Alcotest.fail "dead request not expired");
  Admit.release a;
  (match Admit.admit a () with
  | Admit.Admitted -> Admit.release a
  | _ -> Alcotest.fail "released slot not reusable");
  let c = Admit.counters a in
  Alcotest.(check int) "admitted" 2 c.Admit.admitted;
  Alcotest.(check int) "shed requests" 1 c.Admit.shed_requests;
  Alcotest.(check int) "expired" 1 c.Admit.expired;
  Alcotest.(check int) "peak inflight" 1 c.Admit.peak_inflight;
  (* Connection ladder: two slots, then shed. *)
  Alcotest.(check bool) "conn 1" true (Admit.try_conn a);
  Alcotest.(check bool) "conn 2" true (Admit.try_conn a);
  Alcotest.(check bool) "conn 3 shed" false (Admit.try_conn a);
  Admit.conn_closed a;
  Alcotest.(check bool) "slot freed" true (Admit.try_conn a)

(* deadline_ms is charged from arrival: a request whose budget is already
   gone is shed as deadline-expired, never dispatched. *)
let deadline_expired_before_dispatch () =
  with_server (fun server ->
      let req =
        {
          Protocol.id = 11;
          op = "predict";
          params =
            Json.Obj
              [
                ("source", Json.String "int main(){ return 0; }");
                ("name", Json.String "x.mc");
                ("deadline_ms", Json.Int 0);
              ];
        }
      in
      let resp = Server.handle server req in
      Alcotest.(check bool) "refused" false resp.Protocol.ok;
      Alcotest.(check int) "exit-code-2 semantics" 2 resp.Protocol.code;
      (match List.assoc_opt "diagnostic" resp.Protocol.data with
      | Some d ->
        Alcotest.(check (option string)) "kind" (Some "deadline-expired")
          (Json.mem_string "kind" d)
      | None -> Alcotest.fail "no diagnostic");
      let a = Admit.counters (Server.admit server) in
      Alcotest.(check int) "counted as expired" 1 a.Admit.expired;
      (* The same request without the dead budget is served. *)
      let ok =
        Server.handle server
          {
            Protocol.id = 12;
            op = "predict";
            params =
              Json.Obj
                [
                  ("source", Json.String "int main(){ return 0; }");
                  ("name", Json.String "x.mc");
                  ("deadline_ms", Json.Int 60_000);
                ];
          }
      in
      Alcotest.(check bool) "live budget served" true ok.Protocol.ok)

(* Accept-then-shed: the connection over max_conns gets one structured busy
   frame (rid 0) with a retry hint, and the admitted connection is
   undisturbed. *)
let max_conns_accept_shed () =
  let settings =
    { Server.default_settings with
      Server.limits = { Admit.default_limits with Admit.max_conns = 1 } }
  in
  with_live_server ~settings ~tag:"maxconns" (fun _server sock ->
      Client.with_connection sock (fun conn ->
          (* Ensure the first connection is accepted and registered. *)
          let resp = Client.request conn ~op:"ping" () in
          Alcotest.(check bool) "first conn admitted" true resp.Protocol.ok;
          let fd = Client.connect_fd sock in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              match Protocol.read_frame fd with
              | Some payload -> (
                match Protocol.decode_response payload with
                | Ok busy ->
                  Alcotest.(check int) "rid 0" 0 busy.Protocol.rid;
                  Alcotest.(check bool) "retry hint" true
                    (Protocol.retry_after_ms busy <> None)
                | Error msg -> Alcotest.failf "undecodable shed frame: %s" msg)
              | None -> Alcotest.fail "shed connection closed without a busy frame");
          (* The admitted connection still works. *)
          let resp = Client.request conn ~op:"ping" () in
          Alcotest.(check bool) "survivor still served" true resp.Protocol.ok))

(* The slow-loris drill: a client that sends 3 header bytes and stalls is
   disconnected by the idle sweeper; a well-behaved client on the same
   daemon is untouched. *)
let idle_sweeper_closes_stalled () =
  let settings =
    { Server.default_settings with
      Server.limits = { Admit.default_limits with Admit.idle_timeout_ms = 150 } }
  in
  with_live_server ~settings ~tag:"sweeper" (fun server sock ->
      let fd = Client.connect_fd sock in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          ignore (Unix.write fd (Bytes.of_string "\x00\x00\x00") 0 3);
          (* The sweeper (or SO_RCVTIMEO) must cut us off well within 5s. *)
          match Unix.select [ fd ] [] [] 5.0 with
          | [], _, _ -> Alcotest.fail "stalled connection was not disconnected"
          | _ ->
            let n = Unix.read fd (Bytes.create 64) 0 64 in
            Alcotest.(check int) "EOF, not data" 0 n);
      (* Normal traffic was never disturbed. *)
      let resp = Client.request_retry ~addr:sock ~op:"ping" () in
      Alcotest.(check bool) "daemon healthy" true resp.Protocol.ok;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        (Admit.counters (Server.admit server)).Admit.idle_closed = 0
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.02
      done;
      Alcotest.(check bool) "stall counted" true
        ((Admit.counters (Server.admit server)).Admit.idle_closed >= 1))

(* A handler that raises is contained by the accept loop: each client reads
   one [internal] error frame for its request at once (not its own read
   timeout), every such request is counted contained, and the connection
   count returns to 0 once the clients close. *)
let raising_handler_releases_conn () =
  let module Accept = Vrp_server.Accept in
  let admit = Admit.create () in
  let acc = Accept.create ~family:"raising" ~ops:[] ~samples:(fun () -> []) admit in
  let sock = overload_sock "raising" in
  (try Sys.remove sock with _ -> ());
  let listen_fd = Server.listen_unix sock in
  let th =
    Thread.create
      (fun () -> Accept.serve acc ~handle:(fun _ -> failwith "handler bug") listen_fd)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Accept.stop acc;
      Thread.join th;
      Accept.close acc;
      (try Unix.close listen_fd with _ -> ());
      try Sys.remove sock with _ -> ())
    (fun () ->
      let fds = List.init 5 (fun _ -> Client.connect_fd sock) in
      Fun.protect
        ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with _ -> ()) fds)
        (fun () ->
          List.iter
            (fun fd ->
              Protocol.write_frame fd
                (Protocol.encode_request { Protocol.id = 1; op = "ping"; params = Json.Null }))
            fds;
          List.iter
            (fun fd ->
              match Unix.select [ fd ] [] [] 5.0 with
              | [], _, _ -> Alcotest.fail "client got no answer from a raising handler"
              | _ -> (
                match Option.map Protocol.decode_response (Protocol.read_frame fd) with
                | Some (Ok r) ->
                  Alcotest.(check bool) "not ok" false r.Protocol.ok;
                  Alcotest.(check int) "request id echoed" 1 r.Protocol.rid;
                  Alcotest.(check (option string)) "kind" (Some "internal")
                    (Option.bind (List.assoc_opt "diagnostic" r.Protocol.data)
                       (Json.mem_string "kind"))
                | Some (Error msg) -> Alcotest.failf "undecodable answer: %s" msg
                | None -> Alcotest.fail "EOF instead of an internal error"))
            fds);
      Alcotest.(check int) "contained" 5 (Accept.counters acc).Accept.contained;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Admit.conns admit > 0 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check int) "connections released" 0 (Admit.conns admit))

(* The acceptance scenario: a daemon capped at 2 in-flight requests, 16
   concurrent remote clients. Shed clients honor retry_after_ms and every
   one of them ends with the byte-identical one-shot answer. *)
let saturation_16_clients_byte_identical () =
  let settings =
    { Server.default_settings with
      Server.jobs = 2;
      Server.limits =
        { Admit.default_limits with
          Admit.max_inflight = 2; max_queue = 2; queue_wait_ms = 30 } }
  in
  with_live_server ~settings ~tag:"saturate" (fun server sock ->
      let qsort = bench_source "qsort" in
      let want = Ops.predict ~opts:Ops.default_opts ~source:qsort () in
      (* Deterministic shed first: pin both in-flight slots directly, so the
         wire request must climb the busy ladder. *)
      let admit = Server.admit server in
      (match (Admit.admit admit (), Admit.admit admit ()) with
      | Admit.Admitted, Admit.Admitted -> ()
      | _ -> Alcotest.fail "could not pin the in-flight slots");
      let busy =
        Client.with_connection sock (fun conn ->
            Client.request conn ~op:"predict"
              ~params:
                (Json.Obj
                   [ ("source", Json.String qsort); ("name", Json.String "qsort.mc") ])
              ())
      in
      Alcotest.(check bool) "saturated daemon sheds" true
        (Protocol.retry_after_ms busy <> None);
      Admit.release admit;
      Admit.release admit;
      (* Now the fleet of clients; request_retry rides out every shed. *)
      let n_clients = 16 in
      let results = Array.make n_clients None in
      let threads =
        List.init n_clients (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Some
                    (Client.request_retry ~attempts:12 ~seed:i ~addr:sock
                       ~op:"predict"
                       ~params:
                         (Json.Obj
                            [ ("source", Json.String qsort);
                              ("name", Json.String "qsort.mc") ])
                       ()))
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i resp ->
          match resp with
          | None -> Alcotest.failf "client %d lost" i
          | Some (resp : Protocol.response) ->
            Alcotest.(check bool) (Printf.sprintf "client %d ok" i) true
              resp.Protocol.ok;
            Alcotest.(check string)
              (Printf.sprintf "client %d byte-identical" i)
              want.Ops.out resp.Protocol.out)
        results;
      let c = Admit.counters admit in
      Alcotest.(check bool) "every dispatch admitted" true (c.Admit.admitted >= 16);
      Alcotest.(check bool) "shed ladder exercised" true (c.Admit.shed_requests >= 1);
      Alcotest.(check bool) "bounded peak" true (c.Admit.peak_inflight <= 2))

(* request_retry treats a busy answer as a delay, not a result: it sleeps
   the hint and replays, and only returns the busy response once out of
   tries. *)
let request_retry_honors_busy () =
  let sock = overload_sock "busyretry" in
  (try Sys.remove sock with _ -> ());
  let listen_fd = Server.listen_unix sock in
  let served_busy = ref 0 in
  let th =
    Thread.create
      (fun () ->
        (* First connection: shed with a 30ms hint. Second: answer. *)
        for round = 0 to 1 do
          let fd, _ = Unix.accept listen_fd in
          (match Protocol.read_frame fd with
          | Some payload -> (
            match Protocol.decode_request payload with
            | Ok req ->
              let resp =
                if round = 0 then begin
                  incr served_busy;
                  Protocol.busy_response ~rid:req.Protocol.id ~retry_after_ms:30
                    "shedding"
                end
                else
                  { Protocol.rid = req.Protocol.id; ok = true; code = 0;
                    out = "pong\n"; err = ""; data = [] }
              in
              Protocol.write_frame fd (Protocol.encode_response resp)
            | Error _ -> ())
          | None | (exception _) -> ());
          try Unix.close fd with _ -> ()
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join th;
      (try Unix.close listen_fd with _ -> ());
      try Sys.remove sock with _ -> ())
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let resp = Client.request_retry ~addr:sock ~op:"ping" () in
      let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      Alcotest.(check bool) "retried through busy" true resp.Protocol.ok;
      Alcotest.(check string) "real answer" "pong\n" resp.Protocol.out;
      Alcotest.(check int) "was shed once" 1 !served_busy;
      Alcotest.(check bool) "waited the hint" true (elapsed_ms >= 25.))

(* The session table is bounded: minting fresh session ids evicts the
   least-recently-used session instead of growing without bound. *)
let session_lru_bound () =
  let t = Session.create ~max_sessions:2 () in
  ignore (Session.find_or_create t "a");
  ignore (Session.find_or_create t "b");
  (* Touch [a] so [b] is the LRU victim. *)
  ignore (Session.find_or_create t "a");
  ignore (Session.find_or_create t "c");
  Alcotest.(check int) "bounded" 2 (Session.count t);
  let ids = List.sort compare (Session.ids t) in
  Alcotest.(check (list string)) "LRU evicted" [ "a"; "c" ] ids

(* --- One bookkeeping path: status and scrape read the same records --- *)

(* A scrape's samples by series, e.g. [vrp_cache_hits_total] or
   [vrpd_fleet_worker_up{worker="0"}]. *)
let scraped text series =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.rindex_opt line ' ' with
         | Some i when line <> "" && line.[0] <> '#' && String.sub line 0 i = series ->
           float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> None)
  |> function
  | Some v -> v
  | None -> Alcotest.failf "series %s not in scrape" series

let local_op handle op = handle { Protocol.id = 1; op; params = Json.Null }
let data_int (r : Protocol.response) k = Option.bind (List.assoc_opt k r.Protocol.data) Json.get_int

let check_contained_frame sock =
  let fd = Client.connect_fd sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Protocol.write_frame fd "{ not a request";
      match Option.map Protocol.decode_response (Protocol.read_frame fd) with
      | Some (Ok r) -> Alcotest.(check bool) "malformed frame refused" false r.Protocol.ok
      | _ -> Alcotest.fail "no answer to a malformed frame")

(* A malformed frame is contained once, and the scrape counts it from the
   same record as the status text — on a server and on a fleet front door. *)
let malformed_frame_accounting () =
  with_live_server ~tag:"malformed" (fun _server sock ->
      check_contained_frame sock;
      let st = Client.request_retry ~addr:sock ~op:"status" () in
      let m = Client.request_retry ~addr:sock ~op:"metrics" () in
      Alcotest.(check (option int)) "server status contained" (Some 1) (data_int st "contained");
      Alcotest.(check (float 0.)) "server scrape = status" 1.
        (scraped m.Protocol.out "vrpd_requests_contained_total"));
  with_fleet ~tag:"malformed"
    (fun s -> { s with Fleet.size = 1 })
    (fun fleet ->
      let front = Filename.concat (Fleet.settings fleet).Fleet.dir "front.sock" in
      let listen_fd = Server.listen_unix front in
      let th = Thread.create (fun () -> Fleet.serve fleet listen_fd) () in
      Fun.protect
        ~finally:(fun () ->
          Fleet.stop fleet;
          Thread.join th;
          (try Unix.close listen_fd with _ -> ());
          try Sys.remove front with _ -> ())
        (fun () ->
          check_contained_frame front;
          let st = Client.request_retry ~addr:front ~op:"fleet-status" () in
          let m = Client.request_retry ~addr:front ~op:"metrics" () in
          Alcotest.(check (option int)) "fleet status contained" (Some 1)
            (data_int st "contained");
          Alcotest.(check (float 0.)) "fleet scrape = status" 1.
            (scraped m.Protocol.out "vrpd_fleet_contained_total")))

(* The status line, the status JSON and the scrape report one daemon-wide
   cache total — the server-wide cache plus every session's — and evicting
   never makes it drop. *)
let cache_totals_agree () =
  with_server (fun server ->
      let handle = Server.handle server in
      let sieve = bench_source "sieve" in
      for id = 1 to 2 do
        let r = handle (analyze_req ~id ~session:"dev" ~name:"sieve.mc" sieve) in
        Alcotest.(check bool) "analyze ok" true r.Protocol.ok
      done;
      for _ = 1 to 2 do
        ignore (handle (predict_req ~name:"qsort.mc" (bench_source "qsort")))
      done;
      let totals () =
        let st = local_op handle "status" in
        let line =
          List.find
            (fun l -> Astring.String.is_prefix ~affix:"summary cache:" l)
            (String.split_on_char '\n' st.Protocol.out)
        in
        let hits, misses, inval, file_hits =
          Scanf.sscanf line
            "summary cache: %d hits (%d from disk), %d misses, %d invalidations, %d \
             quarantined, %d file hits"
            (fun h _ m i _ f -> (h, m, i, f))
        in
        let compile_hits, compile_misses =
          List.find
            (fun l -> Astring.String.is_prefix ~affix:"compile cache:" l)
            (String.split_on_char '\n' st.Protocol.out)
          |> fun l -> Scanf.sscanf l "compile cache: %d hits, %d misses" (fun h m -> (h, m))
        in
        let json = Option.get (List.assoc_opt "cache" st.Protocol.data) in
        let scrape = (local_op handle "metrics").Protocol.out in
        List.iter
          (fun (key, series, v) ->
            Alcotest.(check (option int)) ("json " ^ key) (Some v) (Json.mem_int key json);
            Alcotest.(check (float 0.)) series (float_of_int v) (scraped scrape series))
          [
            ("hits", "vrp_cache_hits_total", hits);
            ("misses", "vrp_cache_misses_total", misses);
            ("invalidations", "vrp_cache_invalidations_total", inval);
            ("file_hits", "vrp_cache_file_hits_total", file_hits);
            ("compile_hits", "vrp_cache_compile_hits_total", compile_hits);
            ("compile_misses", "vrp_cache_compile_misses_total", compile_misses);
          ];
        (hits, misses, file_hits)
      in
      let ((hits, _, file_hits) as before) = totals () in
      Alcotest.(check bool) "session hits counted" true (hits > 0);
      Alcotest.(check int) "the repeated predict is a file hit" 1 file_hits;
      ignore (local_op handle "evict");
      Alcotest.(check (triple int int int)) "evict keeps the total" before (totals ()))

(* Dropping or LRU-evicting a session retires its cache counters into the
   table's total instead of losing them, including the traffic of a request
   still running on the session when it was evicted. *)
let session_cache_totals_survive_eviction () =
  let t = Session.create ~max_sessions:1 () in
  let _, fn = Helpers.compile_main "int main(int n, int s) { if (n > 3) { return 1; } return 0; }" in
  let lookup s key =
    ignore
      (Vrp_cache.Summary_cache.find_or_compute (Session.cache s) ~slot:("s.mc", "main") ~stamp:"s" ~key
         (fun () -> Engine.analyze fn))
  in
  let touch sid key = lookup (Session.find_or_create t sid) key in
  let misses () = (Session.cache_totals t).Vrp_cache.Summary_cache.misses in
  touch "a" "k1";
  touch "a" "k1";
  Alcotest.(check int) "one miss" 1 (misses ());
  touch "b" "k2";
  Alcotest.(check (list string)) "a evicted" [ "b" ] (Session.ids t);
  Alcotest.(check int) "LRU eviction keeps a's miss" 2 (misses ());
  Alcotest.(check int) "hits kept" 1 (Session.cache_totals t).Vrp_cache.Summary_cache.hits;
  let c = Session.find_or_create t "c" in
  Session.with_lock c (fun () ->
      ignore (Session.find_or_create t "d");
      Alcotest.(check (list string)) "c evicted" [ "d" ] (Session.ids t);
      lookup c "k3");
  Alcotest.(check int) "c's lookup after eviction kept" 3 (misses ());
  Alcotest.(check int) "c's store after eviction kept" 3
    (Session.cache_totals t).Vrp_cache.Summary_cache.stores

(* An in-process fleet's workers share the front door's process but not
   its records: the front door's admission line and its scrape agree. *)
let fleet_admission_line_matches_scrape () =
  with_fleet ~tag:"admission"
    (fun s -> { s with Fleet.size = 2 })
    (fun fleet ->
      let handle = Fleet.handle fleet in
      List.iteri
        (fun id name ->
          let r = handle (predict_req ~id ~name:(name ^ ".mc") (bench_source name)) in
          Alcotest.(check bool) "proxied ok" true r.Protocol.ok)
        [ "qsort"; "sieve"; "calc" ];
      let st = local_op handle "fleet-status" in
      let scrape = (local_op handle "metrics").Protocol.out in
      let line =
        List.find
          (fun l -> Astring.String.is_prefix ~affix:"admission:" l)
          (String.split_on_char '\n' st.Protocol.out)
      in
      Scanf.sscanf line
        "admission: %d inflight (peak %d), %d queued, %d shed (%d conns, %d requests), %d expired, %d idle-closed"
        (fun inflight peak _ _ conns requests expired idle ->
          List.iter
            (fun (series, v) ->
              Alcotest.(check (float 0.)) series (float_of_int v) (scraped scrape series))
            [
              ("vrpd_inflight", inflight);
              ("vrpd_peak_inflight", peak);
              ("vrpd_admission_shed_conns_total", conns);
              ("vrpd_admission_shed_requests_total", requests);
              ("vrpd_admission_expired_total", expired);
              ("vrpd_admission_idle_closed_total", idle);
            ]);
      Alcotest.(check (float 0.)) "admitted"
        (float_of_int (Admit.counters (Fleet.admit fleet)).Admit.admitted)
        (scraped scrape "vrpd_admission_admitted_total"))

(* --- File-level reply tier --- *)

let cache_count handle key =
  match
    Option.bind (List.assoc_opt "cache" (local_op handle "status").Protocol.data)
      (Json.mem_int key)
  with
  | Some n -> n
  | None -> Alcotest.failf "status has no cache.%s" key

let file_hits handle = cache_count handle "file_hits"

let check_outcome what (want : Ops.outcome) (r : Protocol.response) =
  Alcotest.(check bool) (what ^ " ok") true r.Protocol.ok;
  Alcotest.(check string) (what ^ " stdout") want.Ops.out r.Protocol.out;
  Alcotest.(check string) (what ^ " stderr") want.Ops.err r.Protocol.err;
  Alcotest.(check int) (what ^ " code") want.Ops.code r.Protocol.code

(* Every suite program under every {numeric, diagnostics, strict}: the first
   request compiles and fills the tier, the second is served from it, and
   both carry the one-shot bytes. *)
let reply_tier_byte_identical () =
  let flags = [ false; true ] in
  let combos =
    List.concat_map
      (fun numeric ->
        List.concat_map
          (fun diagnostics -> List.map (fun strict -> (numeric, diagnostics, strict)) flags)
          flags)
      flags
  in
  with_server (fun server ->
      let handle = Server.handle server in
      List.iter
        (fun (b : Suite.benchmark) ->
          List.iter
            (fun (numeric, diagnostics, strict) ->
              let opts = { Ops.default_opts with Ops.numeric; diagnostics; strict } in
              let want = Ops.predict ~opts ~source:b.Suite.source () in
              let params =
                [
                  ("numeric", Json.Bool numeric);
                  ("diagnostics", Json.Bool diagnostics);
                  ("strict", Json.Bool strict);
                ]
              in
              let what =
                Printf.sprintf "%s numeric=%b diagnostics=%b strict=%b" b.Suite.name numeric
                  diagnostics strict
              in
              let before = file_hits handle in
              List.iter
                (fun round ->
                  check_outcome (what ^ " " ^ round) want
                    (handle (predict_req ~name:b.Suite.name ~params b.Suite.source)))
                [ "first"; "second" ];
              Alcotest.(check int) (what ^ ": second served by the tier") (before + 1)
                (file_hits handle))
            combos)
        Suite.benchmarks)

(* Diagnostics are part of a summary, so every request kind serves them
   from the summary cache and renders what the one-shot command does —
   every widening note and algebraic proof, not a count: a session's cold
   and warm analyze, and a predict with diagnostics answered from the
   summaries a plain predict stored. *)
let warm_diagnostics_repeat_cold () =
  let source = List.assoc "algebra_affine.mc" (corpus_sources ()) in
  let diagnostics = [ ("diagnostics", Json.Bool true) ] in
  let want = Ops.predict ~opts:{ Ops.default_opts with Ops.diagnostics = true } ~source () in
  Alcotest.(check bool) "one-shot reports widenings" true
    (Astring.String.is_infix ~affix:"widened to ⊥: exceeded" want.Ops.err);
  with_server (fun server ->
      let handle = Server.handle server in
      let analyze () =
        handle (analyze_req ~session:"diag" ~name:"affine.mc" ~params:diagnostics source)
      in
      let cold = analyze () in
      let warm = analyze () in
      check_outcome "cold analyze" want cold;
      check_outcome "warm analyze" want warm;
      Alcotest.(check int) "warm analyze misses nothing" 0
        (cint (get_cache_delta warm) "misses");
      ignore (handle (predict_req ~name:"affine.mc" source));
      let hits = cache_count handle "hits" and misses = cache_count handle "misses" in
      check_outcome "predict with diagnostics" want
        (handle (predict_req ~name:"affine.mc" ~params:diagnostics source));
      Alcotest.(check (pair bool int)) "predict with diagnostics served from summaries"
        (true, misses)
        (cache_count handle "hits" > hits, cache_count handle "misses"))

(* The key covers everything a reply depends on. *)
let reply_key_covers_inputs () =
  let key ?(source_md5 = "s") ?(config_digest = "c") ?(diagnostics = false) ?(strict = false)
      () =
    Vrp_cache.Digest_key.reply_key ~source_md5 ~config_digest ~diagnostics ~strict
  in
  let keys =
    [
      key ();
      key ~source_md5:"t" ();
      key ~config_digest:"d" ();
      key ~diagnostics:true ();
      key ~strict:true ();
    ]
  in
  Alcotest.(check int) "all distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check string) "deterministic" (key ()) (key ())

let reply_tier_after_evict () =
  with_server (fun server ->
      let handle = Server.handle server in
      let source = bench_source "qsort" in
      let want = Ops.predict ~opts:Ops.default_opts ~source () in
      let ask () = handle (predict_req ~name:"qsort.mc" source) in
      check_outcome "cold" want (ask ());
      check_outcome "warm" want (ask ());
      Alcotest.(check int) "warm read served by the tier" 1 (file_hits handle);
      ignore (local_op handle "evict");
      check_outcome "after evict" want (ask ());
      Alcotest.(check int) "evicted: the tier misses" 1 (file_hits handle);
      check_outcome "refilled" want (ask ());
      Alcotest.(check int) "refilled tier serves again" 2 (file_hits handle))

(* A deadline cut is not a function of the reply key: the cut reply is not
   stored, so the next unbudgeted predict gets the full table. *)
let deadline_cut_reply_not_stored () =
  let source = Vrp_suite.Synth.generate ~units:160 ~seed:1 () in
  let want = Ops.predict ~opts:Ops.default_opts ~source () in
  with_server (fun server ->
      let handle = Server.handle server in
      (* A 2 ms deadline may pass before dispatch on a stalled box, so ask
         until one is dispatched. *)
      let rec cut tries =
        let r = handle (predict_req ~name:"big.mc" ~params:[ ("deadline_ms", Json.Int 2) ] source) in
        if r.Protocol.ok || tries = 0 then r else cut (tries - 1)
      in
      let r = cut 20 in
      Alcotest.(check bool) "budgeted predict dispatched" true r.Protocol.ok;
      Alcotest.(check bool) "budgeted predict was cut short" true (r.Protocol.out <> want.Ops.out);
      check_outcome "unbudgeted" want (handle (predict_req ~name:"big.mc" source));
      Alcotest.(check int) "no cut reply was served" 0 (file_hits handle))

(* Each slot keeps only its latest stamp's summaries: a long editing
   session holds one entry per function, not one per edit. *)
let session_cache_bounded_under_edits () =
  with_server (fun server ->
      let handle = Server.handle server in
      for k = 1 to 100 do
        let r = handle (analyze_req ~id:k ~session:"long" ~name:"fan.mc" (fan_src (100 + k))) in
        Alcotest.(check bool) "edit ok" true r.Protocol.ok
      done;
      let e = local_op handle "evict" in
      match (data_int e "evicted", data_int e "evicted_parsed") with
      | Some n, Some parsed ->
        Alcotest.(check bool)
          (Printf.sprintf "%d entries for 13 functions after 100 edits" n)
          true (n <= 13 + 2);
        (* one parse entry per item group of the last submission *)
        Alcotest.(check int) "parse entries" 13 parsed
      | _ -> Alcotest.fail "no evicted counts")

(* Nameless predicts are slotted by their source digest: alternating edits
   of two nameless programs hit exactly as often as two named ones. *)
let nameless_predicts_own_slots () =
  let traffic ~named =
    with_server (fun server ->
        let handle = Server.handle server in
        for k = 1 to 5 do
          List.iter
            (fun (name, source) ->
              let name = if named then Some name else None in
              let r = handle (predict_req ?name source) in
              Alcotest.(check string) "bytes" (Ops.predict ~opts:Ops.default_opts ~source ()).Ops.out
                r.Protocol.out)
            [ ("fan.mc", fan_src (10 + k)); ("inc.mc", inc_src (10 + k)) ]
        done;
        let json = Option.get (List.assoc_opt "cache" (local_op handle "status").Protocol.data) in
        (Json.mem_int "hits" json, Json.mem_int "misses" json))
  in
  let named = traffic ~named:true and nameless = traffic ~named:false in
  Alcotest.(check (pair (option int) (option int))) "hits, misses" named nameless

(* --- Compile memo --- *)

(* A session edit of one function of a 48-unit program rebuilds that
   function alone, although the edit inserts a line above it (and so moves
   every later function down), and the reply keeps the one-shot bytes. *)
let session_edit_rebuilds_one_function () =
  let source = Vrp_suite.Synth.generate ~units:48 ~seed:7 () in
  let header = "int unit20(int a, int b) {\n" in
  let at = Option.get (Astring.String.find_sub ~sub:header source) in
  let edited =
    String.sub source 0 at ^ "\n" ^ header ^ "  a = a + 3;\n"
    ^ String.sub source (at + String.length header) (String.length source - at - String.length header)
  in
  with_server (fun server ->
      let call src = Server.handle server (analyze_req ~session:"ed" ~name:"big.mc" src) in
      let r1 = call source in
      let functions = cint (get_plan r1) "functions" in
      let d1 = get_cache_delta r1 in
      Alcotest.(check (pair int int)) "cold: every function built" (0, functions)
        (cint d1 "compile_hits", cint d1 "compile_misses");
      let r2 = call edited in
      let d2 = get_cache_delta r2 in
      Alcotest.(check (list string)) "changed" [ "unit20" ] (names (get_plan r2) "changed");
      Alcotest.(check (pair int int)) "edit: one function built" (functions - 1, 1)
        (cint d2 "compile_hits", cint d2 "compile_misses");
      check_outcome "edit" (Ops.predict ~opts:Ops.default_opts ~source:edited ()) r2)

(* Random one-function edits of a session's file, each with a line
   inserted somewhere (so later groups move), some of them reverts to an
   earlier version, and now and then a source whose type error sits in an
   unchanged group: the parse memo serves the unchanged groups, and every
   reply carries the one-shot bytes of the same source. *)
let session_edits_match_one_shot () =
  let base = Vrp_suite.Synth.generate ~units:12 ~seed:11 () in
  let rng = Vrp_util.Prng.create 27 in
  let insert src at text =
    String.sub src 0 at ^ text ^ String.sub src at (String.length src - at)
  in
  let line_starts src =
    0 :: List.filter_map (fun i -> if src.[i] = '\n' && i + 1 < String.length src then Some (i + 1) else None)
           (List.init (String.length src) Fun.id)
  in
  let edit src k =
    let unit = Vrp_util.Prng.int rng 12 in
    let header = Printf.sprintf "int unit%d(int a, int b) {\n" unit in
    let at = Option.get (Astring.String.find_sub ~sub:header src) + String.length header in
    let src = insert src at (Printf.sprintf "  a = a + %d;\n" k) in
    let starts = Array.of_list (line_starts src) in
    let filler = [| "\n"; "// { ; }\n"; "/* } */\n" |] in
    insert src starts.(Vrp_util.Prng.int rng (Array.length starts)) filler.(k mod 3)
  in
  with_server (fun server ->
      let history = ref [ base ] in
      let current = ref base in
      for k = 1 to 100 do
        let src =
          if k mod 4 = 0 then List.nth !history (Vrp_util.Prng.int rng (List.length !history))
          else edit !current k
        in
        current := src;
        history := src :: !history;
        let r = Server.handle server (analyze_req ~id:k ~session:"ed" ~name:"walk.mc" src) in
        check_outcome (Printf.sprintf "edit %d" k) (Ops.predict ~opts:Ops.default_opts ~source:src ()) r;
        if k mod 10 = 0 then begin
          (* A type error inside a reused group, which moved down a line:
             the error names the line where it now is. *)
          let at = Option.get (Astring.String.find_sub ~sub:"int rng;" src) in
          let broken = "\n" ^ insert src (at + 7) "x" in
          let r = Server.handle server (analyze_req ~id:k ~session:"ed" ~name:"walk.mc" broken) in
          check_outcome (Printf.sprintf "broken %d" k) (Ops.predict ~opts:Ops.default_opts ~source:broken ()) r
        end
      done)

(* Served functions are shared with every later request, so predict and
   analyze must leave each memoised function exactly as the memo stored
   it: its digest, every block, [preds] included, and its baseline
   columns. *)
let memoised_fns_read_only () =
  let module Summary_cache = Vrp_cache.Summary_cache in
  let module Digest_key = Vrp_cache.Digest_key in
  let cache = Summary_cache.create () and sessions = Session.create () in
  let digests keys =
    List.sort compare (Hashtbl.fold (fun f (k : Digest_key.fn_key) acc -> (f, k.Digest_key.digest) :: acc) keys [])
  in
  let snapshot (c : Pipeline.compiled) =
    Marshal.to_string c.Pipeline.baselines [ Marshal.No_sharing ]
    :: List.map (fun fn -> Marshal.to_string fn [ Marshal.No_sharing ]) c.Pipeline.ssa.Vrp_ir.Ir.fns
  in
  List.iter
    (fun (b : Suite.benchmark) ->
      let compile () =
        match Summary_cache.compile ~file:b.Suite.name cache b.Suite.source with
        | Ok r -> r
        | Error d -> Alcotest.failf "%s: %s" b.Suite.name d.Diag.message
      in
      let c, keys = compile () in
      let before = snapshot c in
      let analyze_fn () = Summary_cache.memoized ~file:b.Suite.name cache keys in
      (* predict, with the diagnostics rendering *)
      ignore
        (Ops.predict_compiled ~analyze_fn:(analyze_fn ())
           ~opts:{ Ops.default_opts with Ops.diagnostics = true }
           c);
      (* analyze: a session plan, then the memoised analysis *)
      ignore (Session.plan (Session.find_or_create sessions "ro") ~name:b.Suite.name keys);
      ignore (Ops.predict_compiled ~analyze_fn:(analyze_fn ()) ~opts:Ops.default_opts c);
      let c', _ = compile () in
      Alcotest.(check bool) (b.Suite.name ^ ": served the stored functions") true
        (List.for_all2 ( == ) c.Pipeline.ssa.Vrp_ir.Ir.fns c'.Pipeline.ssa.Vrp_ir.Ir.fns
        && List.for_all2 ( == ) (Option.get c.Pipeline.baselines) (Option.get c'.Pipeline.baselines));
      Alcotest.(check (list (pair string string))) (b.Suite.name ^ ": digests") (digests keys)
        (digests (Digest_key.fn_keys c'.Pipeline.ssa));
      Alcotest.(check bool) (b.Suite.name ^ ": functions untouched") true (before = snapshot c'))
    Suite.benchmarks

(* Compiled entries share the memory tier's capacity (4096 by default):
   10 000 distinct nameless predicts leave it at or under capacity. Each
   source is its own slot; an evicted slot's binding goes with its last
   entry, so the slot table stays under capacity too. *)
let memo_bounded_under_nameless_predicts () =
  with_server (fun server ->
      let handle = Server.handle server in
      for k = 1 to 10_000 do
        let source = Printf.sprintf "int main(int n, int s) { if (n > %d) { return 1; } return 0; }" k in
        let r = handle (predict_req source) in
        if not r.Protocol.ok then Alcotest.failf "predict %d failed" k
      done;
      let e = local_op handle "evict" in
      match (data_int e "evicted", data_int e "evicted_compiled", data_int e "evicted_slots") with
      | Some results, Some compiled, Some slots ->
        Alcotest.(check bool)
          (Printf.sprintf "%d results + %d compiled <= 4096" results compiled)
          true
          (compiled > 0 && results + compiled <= 4096);
        Alcotest.(check bool) (Printf.sprintf "0 < %d slots <= 4096" slots) true
          (slots > 0 && slots <= 4096)
      | _ -> Alcotest.fail "no evicted counts")

(* The families CI and the benchmark read, by name and type. *)
let exposition_families_pinned () =
  let check_types scrape families =
    List.iter
      (fun (name, kind) ->
        let want = Printf.sprintf "# TYPE %s %s" name kind in
        if not (List.mem want (String.split_on_char '\n' scrape)) then
          Alcotest.failf "scrape lacks %S" want)
      families
  in
  with_server (fun server ->
      let handle = Server.handle server in
      ignore (handle (predict_req ~name:"qsort.mc" (bench_source "qsort")));
      ignore (handle (analyze_req ~session:"pin" ~name:"sieve.mc" (bench_source "sieve")));
      check_types (local_op handle "metrics").Protocol.out
        [
          ("vrpd_requests_total", "counter");
          ("vrpd_request_seconds", "histogram");
          ("vrpd_requests_contained_total", "counter");
          ("vrpd_admission_admitted_total", "counter");
          ("vrpd_admission_shed_conns_total", "counter");
          ("vrpd_admission_shed_requests_total", "counter");
          ("vrpd_admission_idle_closed_total", "counter");
          ("vrpd_inflight", "gauge");
          ("vrpd_peak_inflight", "gauge");
          ("vrp_cache_hits_total", "counter");
          ("vrp_cache_misses_total", "counter");
          ("vrp_cache_invalidations_total", "counter");
          ("vrp_cache_file_hits_total", "counter");
          ("vrp_engine_runs_total", "counter");
          ("vrp_engine_run_seconds", "histogram");
          ("vrp_engine_evaluations_total", "counter");
          ("vrp_engine_sub_ops_total", "counter");
          ("vrp_engine_widenings_total", "counter");
          ("vrp_interproc_rounds_total", "counter");
          ("vrpd_session_dirty_functions", "histogram");
          ("vrpd_session_reused_functions", "histogram");
        ]);
  with_fleet ~tag:"pin"
    (fun s -> { s with Fleet.size = 1 })
    (fun fleet ->
      let handle = Fleet.handle fleet in
      ignore (handle (predict_req ~name:"qsort.mc" (bench_source "qsort")));
      check_types (local_op handle "metrics").Protocol.out
        [
          ("vrpd_fleet_requests_total", "counter");
          ("vrpd_fleet_worker_up", "gauge");
          ("vrpd_fleet_workers_healthy", "gauge");
          ("vrpd_admission_admitted_total", "counter");
          ("vrpd_admission_shed_conns_total", "counter");
          ("vrpd_admission_idle_closed_total", "counter");
        ])

(* Perfbench-shaped session edits of a 48-unit calls-mix program: each
   puts [a = a + k;] at the top of a random unit of the original, so one or
   two functions change from the previous submission and every later line
   moves. Every reply equals one-shot [Ops.predict] of the same bytes, and
   its cache delta (hits/misses/stores) is pinned, and so are the driver's
   waves, tasks, rounds and reused results: the interprocedural driver
   schedules and looks up exactly what it always has. *)
let edits_48_cache_deltas =
  "0/53/53 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 \
   51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 50/3/3 50/3/3 51/2/2 \
   51/2/2 51/2/2 50/3/3 50/3/3 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 \
   51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 \
   51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2 51/2/2"

let session_edits_48_units () =
  let weights = { Vrp_suite.Synth.default_weights with Vrp_suite.Synth.calls = 1; affine = 1 } in
  let base = Vrp_suite.Synth.generate ~weights ~units:48 ~seed:4242 () in
  let rng = Vrp_util.Prng.create 48 in
  let edit k =
    let header = Printf.sprintf "int unit%d(int a, int b) {\n" (Vrp_util.Prng.int rng 48) in
    let at = Option.get (Astring.String.find_sub ~sub:header base) + String.length header in
    String.sub base 0 at ^ Printf.sprintf "  a = a + %d;\n" k ^ String.sub base at (String.length base - at)
  in
  let counters =
    List.map Vrp_obs.Metrics.counter
      [ "vrp_sched_waves_total"; "vrp_sched_tasks_total"; "vrp_interproc_rounds_total";
        "vrp_interproc_reused_total" ]
  in
  let work = ref [] in
  let deltas =
    with_server (fun server ->
        List.init 50 (fun k ->
            let src = edit (k + 1) in
            let before = List.map Vrp_obs.Metrics.value counters in
            let r = Server.handle server (analyze_req ~id:k ~session:"e48" ~name:"u48.mc" src) in
            work := List.map2 (fun c b -> Vrp_obs.Metrics.value c - b) counters before :: !work;
            check_outcome (Printf.sprintf "edit %d" k) (Ops.predict ~opts:Ops.default_opts ~source:src ()) r;
            let c = Option.get (List.assoc_opt "cache" r.Protocol.data) in
            let n key = Option.get (Json.mem_int key c) in
            Printf.sprintf "%d/%d/%d" (n "hits") (n "misses") (n "stores")))
  in
  Alcotest.(check string) "cache deltas" edits_48_cache_deltas (String.concat " " deltas);
  (* waves, tasks, rounds and reused results of the 50 requests: 98, 102,
     2 and 49 each *)
  Alcotest.(check (list int)) "driver counts" [ 4900; 5100; 100; 2450 ]
    (List.fold_left (List.map2 ( + )) [ 0; 0; 0; 0 ] !work)

(* Random edit sequences under one session, each reply checked against
   one-shot [Ops.predict] of the same bytes: the session skips the type
   check of unchanged function bodies only while the global tables are
   unchanged, and raises the error a whole-program check raises. A source
   is a base program plus a float-parameter callee and its caller in their
   own groups, and a global. An edit toggles one of: an undeclared
   assignment at the top of one base function (an error in a changed
   group), the callee's parameter type int/float (float is what the
   unchanged caller passes, so int makes the caller fail), a duplicate of
   the callee, a duplicate of the global, a blank line above a function;
   or it reverts to an earlier state. *)
type tc_state = { bad : int option; callee_int : bool; dup_fn : bool; dup_global : bool; blank : int option }

let tc_render base st =
  let lines = String.split_on_char '\n' base in
  let headers = ref 0 in
  let body =
    List.concat_map
      (fun line ->
        let is_header =
          String.length line > 0
          && (String.starts_with ~prefix:"int " line || String.starts_with ~prefix:"void " line
             || String.starts_with ~prefix:"float " line)
          && String.contains line '(' && String.ends_with ~suffix:"{" line
        in
        if not is_header then [ line ]
        else begin
          let i = !headers in
          incr headers;
          (if st.blank = Some i then [ "" ] else [])
          @ [ line ]
          @ if st.bad = Some i then [ "  zq_undeclared = 1;" ] else []
        end)
      lines
  in
  String.concat "\n" body
  ^ Printf.sprintf "\nint zq_callee(%s v) {\n  return 1;\n}\n" (if st.callee_int then "int" else "float")
  ^ "int zq_caller(float w) {\n  return zq_callee(w);\n}\nint zq_g;\n"
  ^ (if st.dup_fn then "int zq_callee(float v) {\n  return 2;\n}\n" else "")
  ^ if st.dup_global then "int zq_g;\n" else ""

let gen_tc_walk =
  let open QCheck2.Gen in
  let bases =
    Vrp_suite.Synth.generate ~units:12 ~seed:5 ()
    :: List.map
         (fun n -> (Option.get (Suite.find n)).Suite.source)
         [ "qsort"; "proto"; "calc" ]
  in
  (* First, a fixed walk: a blank line above the first function, removed
     again (the unchanged [zq_caller] is now served from the parse where it
     stood a line lower), then the callee's parameter turned [int], a type
     error in that unchanged caller, whose line only a cold check gets
     right. *)
  graft_corners
    (pair (oneofl bases) (list_size (int_range 4 10) (pair (int_range 0 5) (int_range 0 11))))
    [ (List.hd bases, [ (4, 0); (4, 0); (1, 0) ]) ]
    ()

let session_typecheck_memo_matches_one_shot =
  Helpers.qtest ~count:25 "session type-check memo: replies equal one-shot"
    ~print:(fun (_, ops) -> String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) ops))
    gen_tc_walk
    (fun (base, ops) ->
      let start = { bad = None; callee_int = false; dup_fn = false; dup_global = false; blank = None } in
      with_server (fun server ->
          let history = ref [ start ] in
          List.for_all
            (fun (op, arg) ->
              let st = List.hd !history in
              let toggle cur = if cur = Some arg then None else Some arg in
              let st =
                match op with
                | 0 -> { st with bad = toggle st.bad }
                | 1 -> { st with callee_int = not st.callee_int }
                | 2 -> { st with dup_fn = not st.dup_fn }
                | 3 -> { st with dup_global = not st.dup_global }
                | 4 -> { st with blank = toggle st.blank }
                | _ -> List.nth !history (arg mod List.length !history)
              in
              history := st :: !history;
              let src = tc_render base st in
              let want = Ops.predict ~opts:Ops.default_opts ~source:src () in
              let r = Server.handle server (analyze_req ~session:"tc" ~name:"tc.mc" src) in
              r.Protocol.ok && r.Protocol.out = want.Ops.out && r.Protocol.err = want.Ops.err
              && r.Protocol.code = want.Ops.code)
            ops))

(* Slots are keyed by (file, function): file "ab" with [main] and file
   "a" with [bmain] never share one, so analysing "a" neither invalidates
   "ab"'s summaries nor drops its compiled [main]. *)
let slots_keyed_by_file () =
  let ab = "int main(int n, int s) {\n  if (n > 3) { return 1; }\n  return 0;\n}\n" in
  let a =
    "int bmain(int x) {\n  if (x > 2) { return 1; }\n  return 0;\n}\n"
    ^ "int main(int n, int s) {\n  return bmain(n);\n}\n"
  in
  with_server (fun server ->
      let call name source = Server.handle server (analyze_req ~session:"slots" ~name source) in
      ignore (call "ab" ab);
      let r = call "a" a in
      Alcotest.(check bool) "a ok" true r.Protocol.ok;
      Alcotest.(check int) "analysing a invalidates nothing" 0 (cint (get_cache_delta r) "invalidations");
      let r = call "ab" ab in
      Alcotest.(check int) "ab's compiled main kept" 0 (cint (get_cache_delta r) "compile_misses"))

(* A batch request's [jobs] is clamped to [1, settings.jobs]: each job is
   a domain of a transient pool, and a spawn past the runtime's domain
   limit raises. The stderr line names the width the batch ran at. *)
let batch_jobs_clamped () =
  with_server ~settings:{ Server.default_settings with Server.jobs = 2 } (fun server ->
      let file =
        Json.Obj
          [ ("name", Json.String "a.mc");
            ("source", Json.String "int main(int n, int s) { if (n > 3) { return 1; } return 0; }") ]
      in
      let req jobs =
        { Protocol.id = 1;
          op = "batch";
          params =
            Json.Obj
              (("files", Json.List [ file ])
              :: Option.fold ~none:[] ~some:(fun j -> [ ("jobs", Json.Int j) ]) jobs) }
      in
      List.iter
        (fun (jobs, want) ->
          let r = Server.handle server (req jobs) in
          Alcotest.(check bool) "batch ok" true r.Protocol.ok;
          if not (Astring.String.is_infix ~affix:want r.Protocol.err) then
            Alcotest.failf "jobs %s: stderr %S lacks %S"
              (Option.fold ~none:"absent" ~some:string_of_int jobs)
              r.Protocol.err want)
        [ (Some 10_000, "with 2 jobs ("); (None, "with 2 jobs ("); (Some 1, "with 1 job (");
          (Some 0, "with 1 job ("); (Some (-5), "with 1 job (") ])

(* A batch request's deadline_ms bounds every function of the batch, on a
   daemon without --deadline-ms and under a looser one: the hung function
   is cut at the request's deadline, not by the hang's 5 s safety cap. *)
let batch_honours_request_deadline () =
  let file =
    Json.Obj
      [ ("name", Json.String "h.mc");
        ("source", Json.String "int f(int x) { return x + 1; }\nint main(int n, int s) { return f(n); }") ]
  in
  let req =
    { Protocol.id = 1;
      op = "batch";
      params =
        Json.Obj
          [ ("files", Json.List [ file ]); ("fault", Json.String "hang:f");
            ("deadline_ms", Json.Int 300) ] }
  in
  List.iter
    (fun deadline_ms ->
      with_server ~settings:{ Server.default_settings with Server.deadline_ms } (fun server ->
          let t0 = Unix.gettimeofday () in
          let r = Server.handle server req in
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool) "batch ok" true r.Protocol.ok;
          if not (Astring.String.is_infix ~affix:"demoted: f (deadline exceeded)" r.Protocol.out)
          then Alcotest.failf "f not cut by the request's deadline:\n%s" r.Protocol.out;
          Alcotest.(check bool) (Printf.sprintf "answered in %.2fs, under 3s" elapsed) true
            (elapsed < 3.0)))
    [ None; Some 60_000 ]

(* A fleet worker that answers every predict with nothing, recording the
   deadline_ms each request carried; [tables] collects each worker's op
   table. *)
let recording_spawner seen tables : Fleet.spawner =
 fun ~wid:_ ~incarnation:_ ~sock ->
  let acc =
    Accept.create ~family:"probe" ~samples:(fun () -> []) (Admit.create ())
      ~ops:
        [ ( "predict",
            fun () ~deadline:_ (req : Protocol.request) ->
              seen := Json.mem_int "deadline_ms" req.Protocol.params :: !seen;
              Accept.reply { Ops.out = ""; err = ""; code = 0 } ) ]
  in
  tables := acc :: !tables;
  let listen_fd = Server.listen_unix sock in
  let dead = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         (try Accept.serve acc ~handle:(Accept.handle acc ()) listen_fd with _ -> ());
         (try Unix.close listen_fd with _ -> ());
         (try Unix.unlink sock with _ -> ());
         Accept.close acc;
         Atomic.set dead true)
       ());
  { Fleet.sock; describe = "recording worker"; kill = (fun () -> Accept.stop acc);
    alive = (fun () -> not (Atomic.get dead)) }

let with_recording_fleet ~tag settings_of f =
  let seen = ref [] and tables = ref [] in
  let dir = fleet_dir tag in
  let fleet =
    Fleet.create ~settings:(settings_of (Fleet.default_settings ~dir))
      ~spawner:(recording_spawner seen tables) ()
  in
  (* The monitor's first health check has pinged the worker: from here on
     a killed worker stays dead until the next check. *)
  let pinged () = List.for_all (fun acc -> (Accept.counters acc).Accept.served > 0) !tables in
  let give_up = Unix.gettimeofday () +. 5.0 in
  while (not (pinged ())) && Unix.gettimeofday () < give_up do
    Thread.delay 0.005
  done;
  Fun.protect
    ~finally:(fun () ->
      Fleet.shutdown fleet;
      try Unix.rmdir dir with _ -> ())
    (fun () -> f fleet seen)

(* The front door forwards the time that remains on every replay: the
   killed worker's replacement gets the client's deadline net of the
   failover backoff (at least 40 ms), never a fresh budget. *)
let fleet_replay_forwards_remaining_deadline () =
  with_recording_fleet ~tag:"remain"
    (fun s ->
      { s with Fleet.size = 1; ping_interval_ms = 50; fault = Some (Diag.Fault.Kill_worker 1) })
    (fun fleet seen ->
      let r = Fleet.handle fleet (predict_req ~params:[ ("deadline_ms", Json.Int 60_000) ] "x") in
      Alcotest.(check bool) "served by the replacement" true r.Protocol.ok;
      match !seen with
      | [ Some ms ] ->
        Alcotest.(check bool) (Printf.sprintf "forwarded %d ms, 0 < it <= 59960" ms) true
          (ms > 0 && ms <= 59_960)
      | _ -> Alcotest.fail "the replacement saw no single deadline_ms")

(* Once a replayed request's deadline is spent the front door answers
   deadline-expired, without backing off past it: no worker is replaced
   in time (pings every minute), and the failover ladder alone would take
   2.2 s. *)
let fleet_spent_deadline_expires () =
  with_recording_fleet ~tag:"spent"
    (fun s ->
      { s with Fleet.size = 1; ping_interval_ms = 60_000; fault = Some (Diag.Fault.Kill_worker 1) })
    (fun fleet seen ->
      let t0 = Unix.gettimeofday () in
      let r = Fleet.handle fleet (predict_req ~params:[ ("deadline_ms", Json.Int 200) ] "x") in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "refused" false r.Protocol.ok;
      Alcotest.(check (option string)) "kind" (Some "deadline-expired")
        (Option.bind (List.assoc_opt "diagnostic" r.Protocol.data) (Json.mem_string "kind"));
      Alcotest.(check bool) (Printf.sprintf "answered in %.2fs, under 1s" elapsed) true
        (elapsed < 1.0);
      Alcotest.(check int) "no worker answered" 0 (List.length !seen))

let suite =
  ( "server",
    [
      tc "json round-trip" `Quick json_roundtrip;
      tc "json byte-lossless strings" `Quick json_bytes_lossless;
      tc "json parse errors" `Quick json_parse_errors;
      tc "frame round-trip" `Quick frame_roundtrip;
      tc "frame rejects oversize" `Quick frame_rejects_oversize;
      tc "frame detects torn" `Quick frame_detects_torn;
      tc "request/response codec" `Quick request_response_codec;
      tc "error response shape" `Quick error_response_shape;
      tc "predict byte-identical (jobs 1 and 4)" `Quick server_predict_byte_identical;
      tc "wire corpus replay + shutdown" `Quick wire_corpus_replay;
      tc "metrics scrape live daemon" `Quick metrics_scrape_live;
      tc "16 concurrent mixed, one crash" `Quick concurrent_mixed_with_crash;
      tc "session incremental edit" `Quick session_incremental_edit;
      tc "interproc beat demotes between functions" `Quick beat_demotes_between_functions;
      tc "status, evict, unknown op" `Quick status_and_evict;
      tc "version single-sourced" `Quick version_matches_dune_project;
      tc "parse_hostport last-colon + ipv6" `Quick parse_hostport_units;
      tc "client parse_addr" `Quick client_parse_addr_units;
      tc "fault specs kill/slow-worker" `Quick fault_spec_units;
      tc "listen_unix live-daemon probe" `Quick listen_unix_live_probe;
      tc "ping op" `Quick ping_op;
      tc "tcp wire round-trip + shutdown" `Quick tcp_wire_round_trip;
      tc "request_retry failover" `Quick request_retry_failover;
      tc "fleet routing + fleet-status" `Quick fleet_routing_and_status;
      tc "fleet kill-worker failover, 16 clients" `Quick fleet_kill_failover_16_clients;
      tc "fleet wedged workers degrade" `Quick fleet_wedged_worker_degrades;
      tc "busy response + retry_after_ms" `Quick busy_response_units;
      tc "frame partial header EOF" `Quick frame_partial_header_eof;
      tc "frame oversize prefix, bounded alloc" `Quick frame_oversize_prefix_bounded_alloc;
      tc "oversize prefix contained live" `Quick oversize_prefix_contained_live;
      tc "EOF mid-payload contained live" `Quick eof_mid_payload_contained_live;
      tc "admit shed ladder" `Quick admit_shed_ladder_units;
      tc "deadline expired before dispatch" `Quick deadline_expired_before_dispatch;
      tc "max-conns accept-then-shed" `Quick max_conns_accept_shed;
      tc "idle sweeper closes stalled conn" `Quick idle_sweeper_closes_stalled;
      tc "saturation: 16 clients, 2 in-flight" `Quick saturation_16_clients_byte_identical;
      tc "request_retry honors busy" `Quick request_retry_honors_busy;
      tc "session table LRU-bounded" `Quick session_lru_bound;
      tc "malformed frame: status = scrape" `Quick malformed_frame_accounting;
      tc "cache totals: status = scrape, across evict" `Quick cache_totals_agree;
      tc "session cache totals survive eviction" `Quick session_cache_totals_survive_eviction;
      tc "fleet admission line = scrape" `Quick fleet_admission_line_matches_scrape;
      tc "exposition families pinned" `Quick exposition_families_pinned;
      tc "reply tier byte-identical (suite x flags)" `Quick reply_tier_byte_identical;
      tc "warm diagnostics repeat the cold run" `Quick warm_diagnostics_repeat_cold;
      tc "reply key covers its inputs" `Quick reply_key_covers_inputs;
      tc "reply tier after evict" `Quick reply_tier_after_evict;
      tc "deadline-cut reply not stored" `Quick deadline_cut_reply_not_stored;
      tc "session cache bounded under edits" `Quick session_cache_bounded_under_edits;
      tc "nameless predicts own slots" `Quick nameless_predicts_own_slots;
      tc "compile memo: session edit rebuilds one function" `Quick session_edit_rebuilds_one_function;
      tc "compile memo: consumers leave served IR untouched" `Quick memoised_fns_read_only;
      tc "compile memo: bounded under nameless predicts" `Quick memo_bounded_under_nameless_predicts;
      tc "raising handler releases its connection" `Quick raising_handler_releases_conn;
      tc "json nesting bounded" `Quick json_nesting_bounded;
      tc "json \\u takes four hex digits" `Quick json_unicode_escapes;
      tc "json rejects non-finite numbers" `Quick json_rejects_non_finite;
      json_printer_matches_reference;
      json_parser_matches_reference;
      json_round_trip_prop;
      json_only_errors_escape;
      tc "session edits match one-shot" `Quick session_edits_match_one_shot;
      tc "session edits of 48 units: one-shot output, pinned cache deltas" `Quick session_edits_48_units;
      session_typecheck_memo_matches_one_shot;
      tc "slots keyed by file and function" `Quick slots_keyed_by_file;
      tc "batch jobs clamped to the daemon's" `Quick batch_jobs_clamped;
      read_frame_only_fails;
      read_frame_inverts_write_frame;
      tc "batch honours the request's deadline" `Quick batch_honours_request_deadline;
      tc "fleet replay forwards the remaining deadline" `Quick
        fleet_replay_forwards_remaining_deadline;
      tc "fleet answers a spent deadline as expired" `Quick fleet_spent_deadline_expires;
    ] )
