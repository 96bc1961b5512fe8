(** Minimal JSON codec (see the interface). *)

type t =
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

(* --- Accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let get_string = function String s -> Some s | _ -> None
let get_int = function Int n -> Some n | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
let get_list = function List xs -> Some xs | _ -> None

let mem_string key v = Option.bind (member key v) get_string
let mem_int key v = Option.bind (member key v) get_int
let mem_bool key v = Option.bind (member key v) get_bool
let mem_list key v = Option.bind (member key v) get_list
