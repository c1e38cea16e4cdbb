(* Hand-rolled pull scanner for MiniJS: [next] scans one token on
   demand and records its span; [tokenize] loops over it. See
   lexer.mli. *)

type token =
  | NUMBER of float
  | STRING of string
  | IDENT of string
  | KW_var | KW_function | KW_return | KW_if | KW_else
  | KW_while | KW_do | KW_for | KW_break | KW_continue
  | KW_new | KW_delete | KW_typeof | KW_instanceof | KW_in
  | KW_this | KW_throw | KW_try | KW_catch | KW_finally
  | KW_true | KW_false | KW_null | KW_undefined | KW_void
  | KW_switch | KW_case | KW_default
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | DOT | COLON | QUESTION
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | ASSIGN | PLUS_ASSIGN | MINUS_ASSIGN | STAR_ASSIGN | SLASH_ASSIGN
  | PERCENT_ASSIGN | AND_ASSIGN | OR_ASSIGN | XOR_ASSIGN
  | SHL_ASSIGN | SHR_ASSIGN | USHR_ASSIGN
  | EQ | NEQ | SEQ | SNEQ | LT | LE | GT | GE
  | ANDAND | OROR | BANG
  | AMP | PIPE | CARET | TILDE | SHL | SHR | USHR
  | PLUSPLUS | MINUSMINUS
  | EOF

exception Lex_error of string * Ast.pos

let keywords =
  [ "var", KW_var; "function", KW_function; "return", KW_return;
    "if", KW_if; "else", KW_else; "while", KW_while; "do", KW_do;
    "for", KW_for; "break", KW_break; "continue", KW_continue;
    "new", KW_new; "delete", KW_delete; "typeof", KW_typeof;
    "instanceof", KW_instanceof; "in", KW_in; "this", KW_this;
    "throw", KW_throw; "try", KW_try; "catch", KW_catch;
    "finally", KW_finally; "true", KW_true; "false", KW_false;
    "null", KW_null; "undefined", KW_undefined; "void", KW_void;
    "switch", KW_switch; "case", KW_case; "default", KW_default ]

(* The same table as a [match], which compiles to a string decision
   tree: no hashing and no polymorphic comparison per identifier. *)
let keyword_or_ident = function
  | "var" -> KW_var | "function" -> KW_function | "return" -> KW_return
  | "if" -> KW_if | "else" -> KW_else | "while" -> KW_while | "do" -> KW_do
  | "for" -> KW_for | "break" -> KW_break | "continue" -> KW_continue
  | "new" -> KW_new | "delete" -> KW_delete | "typeof" -> KW_typeof
  | "instanceof" -> KW_instanceof | "in" -> KW_in | "this" -> KW_this
  | "throw" -> KW_throw | "try" -> KW_try | "catch" -> KW_catch
  | "finally" -> KW_finally | "true" -> KW_true | "false" -> KW_false
  | "null" -> KW_null | "undefined" -> KW_undefined | "void" -> KW_void
  | "switch" -> KW_switch | "case" -> KW_case | "default" -> KW_default
  | text -> IDENT text

let token_name = function
  | NUMBER f -> Printf.sprintf "number %g" f
  | STRING s -> Printf.sprintf "string %S" s
  | IDENT s -> Printf.sprintf "identifier %s" s
  | EOF -> "end of input"
  | tok ->
    let rec find = function
      | [] -> None
      | (name, t) :: rest -> if t = tok then Some name else find rest
    in
    (match find keywords with
     | Some name -> Printf.sprintf "keyword %s" name
     | None ->
       (match tok with
        | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
        | LBRACKET -> "[" | RBRACKET -> "]" | SEMI -> ";" | COMMA -> ","
        | DOT -> "." | COLON -> ":" | QUESTION -> "?"
        | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/"
        | PERCENT -> "%" | ASSIGN -> "=" | PLUS_ASSIGN -> "+="
        | MINUS_ASSIGN -> "-=" | STAR_ASSIGN -> "*=" | SLASH_ASSIGN -> "/="
        | PERCENT_ASSIGN -> "%=" | AND_ASSIGN -> "&=" | OR_ASSIGN -> "|="
        | XOR_ASSIGN -> "^=" | SHL_ASSIGN -> "<<=" | SHR_ASSIGN -> ">>="
        | USHR_ASSIGN -> ">>>=" | EQ -> "==" | NEQ -> "!=" | SEQ -> "==="
        | SNEQ -> "!==" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
        | ANDAND -> "&&" | OROR -> "||" | BANG -> "!" | AMP -> "&"
        | PIPE -> "|" | CARET -> "^" | TILDE -> "~" | SHL -> "<<"
        | SHR -> ">>" | USHR -> ">>>" | PLUSPLUS -> "++"
        | MINUSMINUS -> "--"
        | NUMBER _ | STRING _ | IDENT _ | EOF
        | KW_var | KW_function | KW_return | KW_if | KW_else
        | KW_while | KW_do | KW_for | KW_break | KW_continue
        | KW_new | KW_delete | KW_typeof | KW_instanceof | KW_in
        | KW_this | KW_throw | KW_try | KW_catch | KW_finally
        | KW_true | KW_false | KW_null | KW_undefined | KW_void
        | KW_switch | KW_case | KW_default -> assert false))

type scanner = {
  src : string;
  len : int;
  mutable off : int;
  mutable line : int;
  mutable col : int;
  mutable span : Ast.span; (* of the token [next] returned last *)
}

let pos sc : Ast.pos = { line = sc.line; col = sc.col }

let peek sc = if sc.off >= sc.len then '\000' else sc.src.[sc.off]

let peek2 sc =
  if sc.off + 1 >= sc.len then '\000' else sc.src.[sc.off + 1]

let peek3 sc =
  if sc.off + 2 >= sc.len then '\000' else sc.src.[sc.off + 2]

let advance sc =
  if sc.off < sc.len then begin
    if sc.src.[sc.off] = '\n' then begin
      sc.line <- sc.line + 1;
      sc.col <- 1
    end
    else sc.col <- sc.col + 1;
    sc.off <- sc.off + 1
  end

let error sc msg = raise (Lex_error (msg, pos sc))

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || is_digit c

let rec skip_trivia sc =
  match peek sc with
  | ' ' | '\t' | '\r' | '\n' ->
    advance sc;
    skip_trivia sc
  | '/' when peek2 sc = '/' ->
    while peek sc <> '\n' && peek sc <> '\000' do advance sc done;
    skip_trivia sc
  | '/' when peek2 sc = '*' ->
    advance sc;
    advance sc;
    let rec close () =
      match peek sc with
      | '\000' -> error sc "unterminated block comment"
      | '*' when peek2 sc = '/' ->
        advance sc;
        advance sc
      | _ ->
        advance sc;
        close ()
    in
    close ();
    skip_trivia sc
  | _ -> ()

let scan_number sc =
  let start = sc.off in
  if peek sc = '0' && (peek2 sc = 'x' || peek2 sc = 'X') then begin
    advance sc;
    advance sc;
    if not (is_hex (peek sc)) then error sc "malformed hex literal";
    while is_hex (peek sc) do advance sc done;
    let text = String.sub sc.src start (sc.off - start) in
    float_of_string text
  end
  else begin
    while is_digit (peek sc) do advance sc done;
    if peek sc = '.' && is_digit (peek2 sc) then begin
      advance sc;
      while is_digit (peek sc) do advance sc done
    end
    else if peek sc = '.' && not (is_ident_start (peek2 sc)) then
      advance sc;
    if peek sc = 'e' || peek sc = 'E' then begin
      advance sc;
      if peek sc = '+' || peek sc = '-' then advance sc;
      if not (is_digit (peek sc)) then error sc "malformed exponent";
      while is_digit (peek sc) do advance sc done
    end;
    let text = String.sub sc.src start (sc.off - start) in
    float_of_string text
  end

let scan_string sc quote =
  advance sc;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek sc with
    | '\000' -> error sc "unterminated string literal"
    | '\n' -> error sc "newline in string literal"
    | c when c = quote -> advance sc
    | '\\' ->
      advance sc;
      let c = peek sc in
      advance sc;
      (match c with
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | 'r' -> Buffer.add_char buf '\r'
       | 'b' -> Buffer.add_char buf '\b'
       | '0' -> Buffer.add_char buf '\000'
       | '\\' -> Buffer.add_char buf '\\'
       | '\'' -> Buffer.add_char buf '\''
       | '"' -> Buffer.add_char buf '"'
       | 'x' ->
         let h1 = peek sc in
         advance sc;
         let h2 = peek sc in
         advance sc;
         if not (is_hex h1 && is_hex h2) then
           error sc "malformed \\x escape";
         let code = int_of_string (Printf.sprintf "0x%c%c" h1 h2) in
         Buffer.add_char buf (Char.chr code)
       | c -> Buffer.add_char buf c);
      go ()
    | c ->
      Buffer.add_char buf c;
      advance sc;
      go ()
  in
  go ();
  Buffer.contents buf

(* Scan one token, assuming trivia has been skipped. *)
let scan_token sc =
  let c = peek sc in
  if c = '\000' then EOF
  else if is_digit c || (c = '.' && is_digit (peek2 sc)) then
    NUMBER (scan_number sc)
  else if c = '\'' || c = '"' then STRING (scan_string sc c)
  else if is_ident_start c then begin
    (* An identifier never spans a newline: only the column moves. *)
    let start = sc.off in
    let stop = ref (start + 1) in
    while !stop < sc.len && is_ident_char (String.unsafe_get sc.src !stop) do
      incr stop
    done;
    sc.off <- !stop;
    sc.col <- sc.col + (!stop - start);
    keyword_or_ident (String.sub sc.src start (!stop - start))
  end
  else begin
    let adv n =
      for _ = 1 to n do advance sc done
    in
    match c, peek2 sc, peek3 sc with
    | '>', '>', '>' when sc.off + 3 < sc.len && sc.src.[sc.off + 3] = '=' ->
      adv 4; USHR_ASSIGN
    | '>', '>', '>' -> adv 3; USHR
    | '<', '<', '=' -> adv 3; SHL_ASSIGN
    | '>', '>', '=' -> adv 3; SHR_ASSIGN
    | '=', '=', '=' -> adv 3; SEQ
    | '!', '=', '=' -> adv 3; SNEQ
    | '=', '=', _ -> adv 2; EQ
    | '!', '=', _ -> adv 2; NEQ
    | '<', '=', _ -> adv 2; LE
    | '>', '=', _ -> adv 2; GE
    | '<', '<', _ -> adv 2; SHL
    | '>', '>', _ -> adv 2; SHR
    | '&', '&', _ -> adv 2; ANDAND
    | '|', '|', _ -> adv 2; OROR
    | '+', '+', _ -> adv 2; PLUSPLUS
    | '-', '-', _ -> adv 2; MINUSMINUS
    | '+', '=', _ -> adv 2; PLUS_ASSIGN
    | '-', '=', _ -> adv 2; MINUS_ASSIGN
    | '*', '=', _ -> adv 2; STAR_ASSIGN
    | '/', '=', _ -> adv 2; SLASH_ASSIGN
    | '%', '=', _ -> adv 2; PERCENT_ASSIGN
    | '&', '=', _ -> adv 2; AND_ASSIGN
    | '|', '=', _ -> adv 2; OR_ASSIGN
    | '^', '=', _ -> adv 2; XOR_ASSIGN
    | '(', _, _ -> adv 1; LPAREN
    | ')', _, _ -> adv 1; RPAREN
    | '{', _, _ -> adv 1; LBRACE
    | '}', _, _ -> adv 1; RBRACE
    | '[', _, _ -> adv 1; LBRACKET
    | ']', _, _ -> adv 1; RBRACKET
    | ';', _, _ -> adv 1; SEMI
    | ',', _, _ -> adv 1; COMMA
    | '.', _, _ -> adv 1; DOT
    | ':', _, _ -> adv 1; COLON
    | '?', _, _ -> adv 1; QUESTION
    | '+', _, _ -> adv 1; PLUS
    | '-', _, _ -> adv 1; MINUS
    | '*', _, _ -> adv 1; STAR
    | '/', _, _ -> adv 1; SLASH
    | '%', _, _ -> adv 1; PERCENT
    | '=', _, _ -> adv 1; ASSIGN
    | '<', _, _ -> adv 1; LT
    | '>', _, _ -> adv 1; GT
    | '!', _, _ -> adv 1; BANG
    | '&', _, _ -> adv 1; AMP
    | '|', _, _ -> adv 1; PIPE
    | '^', _, _ -> adv 1; CARET
    | '~', _, _ -> adv 1; TILDE
    | _ -> error sc (Printf.sprintf "unexpected character %C" c)
  end

let no_span : Ast.span =
  { left = { line = 1; col = 1 }; right = { line = 1; col = 1 } }

let scanner src =
  { src; len = String.length src; off = 0; line = 1; col = 1; span = no_span }

let next sc =
  skip_trivia sc;
  let left = pos sc in
  let tok = scan_token sc in
  sc.span <- { left; right = pos sc };
  tok

let span sc = sc.span

let rec drain sc = if next sc <> EOF then drain sc

let tokenize src =
  let sc = scanner src in
  let rec loop acc =
    let tok = next sc in
    let acc = (tok, sc.span) :: acc in
    if tok = EOF then List.rev acc else loop acc
  in
  loop []
