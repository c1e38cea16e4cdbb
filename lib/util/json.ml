(* Deterministic JSON encoder/parser shared by every JSON surface in
   the repo (telemetry, analyzer reports, the service protocol). The
   repo deliberately avoids external dependencies, and hand-rolled
   per-module emitters had started to drift; this is the one place
   escaping and number formatting are decided. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of int * float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Appends [s]'s JSON string body to [buf]. Almost every string needs
   no escaping, so one scan finds the first byte that does: the bytes
   before it are added whole, the rest escaped straight into [buf]. *)
let add_escaped buf s =
  let n = String.length s in
  let rec clean i =
    if i = n then n
    else
      match s.[i] with
      | '"' | '\\' | '\000' .. '\031' -> i
      | _ -> clean (i + 1)
  in
  let first = clean 0 in
  Buffer.add_substring buf s 0 first;
  for i = first to n - 1 do
    match s.[i] with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\b' -> Buffer.add_string buf "\\b"
    | '\012' -> Buffer.add_string buf "\\f"
    | '\000' .. '\031' as c ->
      Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    | c -> Buffer.add_char buf c
  done

(* Canonical number rendering: integral floats print without a
   fractional part, everything else as %.12g — both are deterministic
   across runs, which is all the byte-identity contracts need. *)
let float_to_string f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | Fixed (places, f) ->
    if Float.is_nan f || Float.abs f = Float.infinity then
      Buffer.add_string buf "null"
    else Buffer.add_string buf (Printf.sprintf "%.*f" places f)
  | Str s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
         if i > 0 then Buffer.add_char buf ',';
         emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char buf ',';
         Buffer.add_char buf '"';
         add_escaped buf k;
         Buffer.add_string buf "\":";
         emit buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string doc =
  let buf = Buffer.create 256 in
  emit buf doc;
  Buffer.contents buf

let rec emit_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | Fixed _ | Str _) as v -> emit buf v
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
    let pad = String.make indent ' ' and inner = String.make (indent + 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i x ->
         if i > 0 then Buffer.add_string buf ",\n";
         Buffer.add_string buf inner;
         emit_pretty buf (indent + 2) x)
      xs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj kvs ->
    let pad = String.make indent ' ' and inner = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_string buf ",\n";
         Buffer.add_string buf inner;
         Buffer.add_char buf '"';
         add_escaped buf k;
         Buffer.add_string buf "\": ";
         emit_pretty buf (indent + 2) v)
      kvs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf '}'

let to_string_pretty doc =
  let buf = Buffer.create 1024 in
  emit_pretty buf 0 doc;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: strict, no recovery. Used for one-line protocol requests
   and the interpreter's [JSON.parse], so error messages carry the
   offset. *)

exception Parse_error of string

type parser_state = { text : string; mutable pos : int }

let fail p msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let peek p = if p.pos < String.length p.text then p.text.[p.pos] else '\000'

let skip_ws p =
  while
    p.pos < String.length p.text
    && (match p.text.[p.pos] with
        | ' ' | '\t' | '\n' | '\r' -> true
        | _ -> false)
  do
    p.pos <- p.pos + 1
  done

let expect p c =
  if peek p = c then p.pos <- p.pos + 1
  else fail p (Printf.sprintf "expected '%c'" c)

let parse_string_body p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | '\000' -> fail p "unterminated string"
    | '"' -> p.pos <- p.pos + 1
    | '\\' ->
      p.pos <- p.pos + 1;
      let c = peek p in
      p.pos <- p.pos + 1;
      (match c with
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | 'r' -> Buffer.add_char buf '\r'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | '/' -> Buffer.add_char buf '/'
       | '\\' -> Buffer.add_char buf '\\'
       | '"' -> Buffer.add_char buf '"'
       | 'u' ->
         if p.pos + 4 > String.length p.text then fail p "truncated \\u";
         let hex = String.sub p.text p.pos 4 in
         p.pos <- p.pos + 4;
         (match int_of_string_opt ("0x" ^ hex) with
          | None -> fail p "bad \\u escape"
          | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
          | Some code when code < 0x800 ->
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          | Some code ->
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
       | _ -> fail p "bad escape");
      go ()
    | c ->
      Buffer.add_char buf c;
      p.pos <- p.pos + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let fractional = ref false in
  if peek p = '-' then p.pos <- p.pos + 1;
  while (match peek p with '0' .. '9' -> true | _ -> false) do
    p.pos <- p.pos + 1
  done;
  if peek p = '.' then begin
    fractional := true;
    p.pos <- p.pos + 1;
    while (match peek p with '0' .. '9' -> true | _ -> false) do
      p.pos <- p.pos + 1
    done
  end;
  (match peek p with
   | 'e' | 'E' ->
     fractional := true;
     p.pos <- p.pos + 1;
     (match peek p with '+' | '-' -> p.pos <- p.pos + 1 | _ -> ());
     while (match peek p with '0' .. '9' -> true | _ -> false) do
       p.pos <- p.pos + 1
     done
   | _ -> ());
  let lexeme = String.sub p.text start (p.pos - start) in
  if not !fractional then
    match int_of_string_opt lexeme with
    | Some 0 when lexeme.[0] = '-' -> Float (-0.) (* keep the sign *)
    | Some i -> Int i
    | None -> (
        match float_of_string_opt lexeme with
        | Some f -> Float f
        | None -> fail p "malformed number")
  else
    match float_of_string_opt lexeme with
    | Some f -> Float f
    | None -> fail p "malformed number"

let literal p word value =
  let n = String.length word in
  if p.pos + n <= String.length p.text && String.sub p.text p.pos n = word
  then begin
    p.pos <- p.pos + n;
    value
  end
  else fail p "bad literal"

let rec parse_value p =
  skip_ws p;
  match peek p with
  | '"' -> Str (parse_string_body p)
  | '{' ->
    p.pos <- p.pos + 1;
    skip_ws p;
    if peek p = '}' then begin
      p.pos <- p.pos + 1;
      Obj []
    end
    else begin
      let members = ref [] in
      let rec go () =
        skip_ws p;
        let key = parse_string_body p in
        skip_ws p;
        expect p ':';
        let v = parse_value p in
        members := (key, v) :: !members;
        skip_ws p;
        match peek p with
        | ',' ->
          p.pos <- p.pos + 1;
          go ()
        | '}' -> p.pos <- p.pos + 1
        | _ -> fail p "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !members)
    end
  | '[' ->
    p.pos <- p.pos + 1;
    skip_ws p;
    if peek p = ']' then begin
      p.pos <- p.pos + 1;
      List []
    end
    else begin
      let items = ref [] in
      let rec go () =
        let v = parse_value p in
        items := v :: !items;
        skip_ws p;
        match peek p with
        | ',' ->
          p.pos <- p.pos + 1;
          go ()
        | ']' -> p.pos <- p.pos + 1
        | _ -> fail p "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  | 't' -> literal p "true" (Bool true)
  | 'f' -> literal p "false" (Bool false)
  | 'n' -> literal p "null" Null
  | '-' | '0' .. '9' -> parse_number p
  | _ -> fail p "unexpected character"

let of_string text =
  let p = { text; pos = 0 } in
  match parse_value p with
  | v ->
    skip_ws p;
    if p.pos <> String.length text then
      Error (Printf.sprintf "trailing characters at offset %d" p.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let string_opt = function Str s -> Some s | _ -> None

let int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let float_opt = function
  | Float f -> Some f
  | Fixed (_, f) -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
