(** Hand-rolled scanner for MiniJS source text.

    A pull scanner: {!Parser} asks {!next} for one token at a time, so
    no token list or array is ever built for a parse. {!tokenize} is a
    loop over the same scanner. Covers decimal,
    hexadecimal and exponent number literals, single/double quoted
    strings with the usual escapes, line and block comments, and the
    full pre-ES6 operator set (no regex literals — the workloads do not
    need them and dropping them removes the classic [/] ambiguity). *)

type token =
  | NUMBER of float
  | STRING of string
  | IDENT of string
  (* keywords *)
  | KW_var | KW_function | KW_return | KW_if | KW_else
  | KW_while | KW_do | KW_for | KW_break | KW_continue
  | KW_new | KW_delete | KW_typeof | KW_instanceof | KW_in
  | KW_this | KW_throw | KW_try | KW_catch | KW_finally
  | KW_true | KW_false | KW_null | KW_undefined | KW_void
  | KW_switch | KW_case | KW_default
  (* punctuation *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | DOT | COLON | QUESTION
  (* operators *)
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
(** Raised on malformed input, with a message and the offending
    position. *)

val keywords : (string * token) list
(** Reserved words and their tokens; exposed so the printer can avoid
    emitting a keyword as a bare property name. *)

val token_name : token -> string
(** Printable token description for error messages. *)

type scanner
(** Scanning state over one source string. *)

val scanner : string -> scanner

val next : scanner -> token
(** Skip whitespace and comments, then scan one token. At the end of
    the input it returns [EOF], and keeps returning it.
    @raise Lex_error on malformed input. *)

val span : scanner -> Ast.span
(** The span of the token {!next} returned last. *)

val drain : scanner -> unit
(** Scan to the end of the input, discarding the tokens.
    @raise Lex_error if the rest of the input is malformed. *)

val tokenize : string -> (token * Ast.span) list
(** Scan an entire source string. The resulting list always ends with
    an [EOF] token. @raise Lex_error on malformed input. *)
