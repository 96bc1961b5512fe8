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

(* The escape of every byte value, or "" for a byte that prints as itself:
   printable ASCII but '"' and '\\'. Every other byte is escaped, so any
   byte string round-trips (see the interface). *)
let escapes =
  Array.init 256 (fun code ->
      match Char.chr code with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | '\b' -> "\\b"
      | '\012' -> "\\f"
      | _ when code < 0x20 || code >= 0x7f -> Printf.sprintf "\\u%04x" code
      | _ -> "")

(* One table lookup per byte; each run of plain bytes is copied whole. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let e = Array.unsafe_get escapes (Char.code (String.unsafe_get s i)) in
    if String.length e > 0 then begin
      Buffer.add_substring buf s !run (i - !run);
      Buffer.add_string buf e;
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (String.length s - !run);
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

(* --- Parsing: recursive descent that scans the byte string by index --- *)

exception Bad of string

type state = { s : string; mutable pos : int }

(* Containers nest at most this deep. Real frames nest 4 deep; the bound
   keeps a frame of '[' (up to the 64 MiB frame cap) from holding the
   parser millions of calls deep, for a time that grows faster than the
   frame. *)
let max_depth = 512

let error st msg = raise (Bad (Printf.sprintf "byte %d: %s" st.pos msg))

let at_end st = st.pos >= String.length st.s

(* The byte at [pos]; callers check [at_end] first. *)
let cur st = String.unsafe_get st.s st.pos

let skip_ws st =
  while
    (not (at_end st)) && match cur st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  if at_end st then error st (Printf.sprintf "expected %C, got end of input" c);
  let c' = cur st in
  if c' <> c then error st (Printf.sprintf "expected %C, got %C" c c');
  st.pos <- st.pos + 1

let literal st word value =
  let n = String.length word in
  let rec matches i = i = n || (st.s.[st.pos + i] = word.[i] && matches (i + 1)) in
  if st.pos + n <= String.length st.s && matches 0 then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Exactly four hex digits. *)
let hex4 st =
  if st.pos + 4 > String.length st.s then error st "truncated \\u escape";
  let n = ref 0 in
  for i = 0 to 3 do
    let d = hex_digit st.s.[st.pos + i] in
    if d < 0 then error st "bad \\u escape";
    n := (!n lsl 4) lor d
  done;
  st.pos <- st.pos + 4;
  !n

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

(* The index of the first '"' or '\\' at or after [i], or the length. *)
let scan_plain s i =
  let n = String.length s in
  let i = ref i in
  while !i < n && match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true do
    incr i
  done;
  !i

(* An escape-free string is one [String.sub]; otherwise the runs between
   escapes are copied into a buffer one blit each. *)
let parse_string st =
  expect st '"';
  let s = st.s in
  let stop = scan_plain s st.pos in
  if stop < String.length s && s.[stop] = '"' then begin
    let v = String.sub s st.pos (stop - st.pos) in
    st.pos <- stop + 1;
    v
  end
  else begin
    let buf = Buffer.create 64 in
    let rec runs stop =
      if stop >= String.length s then begin
        st.pos <- stop;
        error st "unterminated string"
      end;
      Buffer.add_substring buf s st.pos (stop - st.pos);
      st.pos <- stop + 1;
      if s.[stop] = '\\' then begin
        if at_end st then error st "unterminated escape";
        let c = cur st in
        st.pos <- st.pos + 1;
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
        runs (scan_plain s st.pos)
      end
    in
    runs stop;
    Buffer.contents buf
  end

let parse_number st =
  let start = st.pos in
  while
    (not (at_end st))
    && match cur st with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done;
  let tok = String.sub st.s start (st.pos - start) in
  let is_float = String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok in
  if is_float then
    match float_of_string_opt tok with
    | Some f when Float.is_finite f -> Float f
    | _ -> error st (Printf.sprintf "bad number %S" tok)
  else
    match int_of_string_opt tok with
    | Some n -> Int n
    | None -> error st (Printf.sprintf "bad number %S" tok)

(* [sep_by st close item] parses [item (',' item)*] up to [close], the
   opening byte already consumed. *)
let sep_by st close item =
  skip_ws st;
  if (not (at_end st)) && cur st = close then begin
    st.pos <- st.pos + 1;
    []
  end
  else begin
    let items = ref [ item () ] in
    skip_ws st;
    while (not (at_end st)) && cur st = ',' do
      st.pos <- st.pos + 1;
      items := item () :: !items;
      skip_ws st
    done;
    expect st close;
    List.rev !items
  end

let rec parse_value st depth =
  skip_ws st;
  if at_end st then error st "unexpected end of input";
  match cur st with
  | 'n' -> literal st "null" Null
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | '"' -> String (parse_string st)
  | ('[' | '{') when depth >= max_depth ->
    error st (Printf.sprintf "nesting deeper than %d" max_depth)
  | '[' ->
    st.pos <- st.pos + 1;
    List (sep_by st ']' (fun () -> parse_value st (depth + 1)))
  | '{' ->
    st.pos <- st.pos + 1;
    Obj
      (sep_by st '}' (fun () ->
           skip_ws st;
           let k = parse_string st in
           skip_ws st;
           expect st ':';
           (k, parse_value st (depth + 1))))
  | '-' | '0' .. '9' -> parse_number st
  | c -> error st (Printf.sprintf "unexpected %C" c)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st 0 with
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
