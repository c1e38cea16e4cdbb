(* Recursive-descent parser over a pull scanner: the state holds the
   current token and at most one token of look-ahead (labels and
   [for (x in o)] need it), pulled from {!Lexer.next} on demand. No
   token list or array is built, so a token dies young unless the AST
   keeps its span. Every lex error still wins over an earlier parse
   error: {!parse_program} drains the scanner before it reports a parse
   error, so the answer is the one a lex-everything-first parser gives. *)

open Ast

exception Parse_error of string * Ast.pos

type state = {
  sc : Lexer.scanner;
  mutable tok : Lexer.token;
  mutable span : span;
  mutable ahead : bool; (* [next_tok]/[next_span] hold the look-ahead *)
  mutable next_tok : Lexer.token;
  mutable next_span : span;
  mutable loops : int;
}

let peek st = st.tok
let peek_span st = st.span

(* The token after the current one; [EOF] repeats at the end. *)
let peek_next st =
  if st.tok == Lexer.EOF then Lexer.EOF
  else begin
    if not st.ahead then begin
      st.next_tok <- Lexer.next st.sc;
      st.next_span <- Lexer.span st.sc;
      st.ahead <- true
    end;
    st.next_tok
  end

let advance st =
  if st.ahead then begin
    st.tok <- st.next_tok;
    st.span <- st.next_span;
    st.ahead <- false
  end
  else if st.tok != Lexer.EOF then begin
    st.tok <- Lexer.next st.sc;
    st.span <- Lexer.span st.sc
  end

let error st msg = raise (Parse_error (msg, (peek_span st).left))

let expect st tok =
  if peek st = tok then advance st
  else
    error st
      (Printf.sprintf "expected %s but found %s" (Lexer.token_name tok)
         (Lexer.token_name (peek st)))

let fresh_loop st =
  let id = st.loops in
  st.loops <- st.loops + 1;
  id

(* Lenient statement terminator: a real semicolon, or nothing when the
   next token closes a block / ends the input. *)
let expect_semi st =
  match peek st with
  | Lexer.SEMI -> advance st
  | Lexer.RBRACE | Lexer.EOF -> ()
  | tok ->
    error st
      (Printf.sprintf "expected ';' but found %s" (Lexer.token_name tok))

let ident_name st =
  match peek st with
  | Lexer.IDENT name ->
    advance st;
    name
  | tok ->
    error st
      (Printf.sprintf "expected identifier but found %s"
         (Lexer.token_name tok))

let assign_op_of_token : Lexer.token -> assign_op option = function
  | Lexer.ASSIGN -> Some None
  | Lexer.PLUS_ASSIGN -> Some (Some Add)
  | Lexer.MINUS_ASSIGN -> Some (Some Sub)
  | Lexer.STAR_ASSIGN -> Some (Some Mul)
  | Lexer.SLASH_ASSIGN -> Some (Some Div)
  | Lexer.PERCENT_ASSIGN -> Some (Some Mod)
  | Lexer.AND_ASSIGN -> Some (Some Band)
  | Lexer.OR_ASSIGN -> Some (Some Bor)
  | Lexer.XOR_ASSIGN -> Some (Some Bxor)
  | Lexer.SHL_ASSIGN -> Some (Some Lshift)
  | Lexer.SHR_ASSIGN -> Some (Some Rshift)
  | Lexer.USHR_ASSIGN -> Some (Some Urshift)
  | _ -> None

let target_of_expr st (e : expr) : target =
  match e.e with
  | Ident x -> Tgt_ident x
  | Member (obj, f) -> Tgt_member (obj, f)
  | Index (obj, i) -> Tgt_index (obj, i)
  | _ -> error st "invalid assignment target"

(* Binary operator precedence; higher binds tighter. [in] is only an
   operator when [allow_in] holds (it is a keyword inside for-heads). *)
let binop_of_token ~allow_in : Lexer.token -> (binop * int) option = function
  | Lexer.OROR | Lexer.ANDAND -> None (* handled as Logical *)
  | Lexer.PIPE -> Some (Bor, 3)
  | Lexer.CARET -> Some (Bxor, 4)
  | Lexer.AMP -> Some (Band, 5)
  | Lexer.EQ -> Some (Eq, 6)
  | Lexer.NEQ -> Some (Neq, 6)
  | Lexer.SEQ -> Some (Strict_eq, 6)
  | Lexer.SNEQ -> Some (Strict_neq, 6)
  | Lexer.LT -> Some (Lt, 7)
  | Lexer.LE -> Some (Le, 7)
  | Lexer.GT -> Some (Gt, 7)
  | Lexer.GE -> Some (Ge, 7)
  | Lexer.KW_instanceof -> Some (Instanceof, 7)
  | Lexer.KW_in when allow_in -> Some (In, 7)
  | Lexer.SHL -> Some (Lshift, 8)
  | Lexer.SHR -> Some (Rshift, 8)
  | Lexer.USHR -> Some (Urshift, 8)
  | Lexer.PLUS -> Some (Add, 9)
  | Lexer.MINUS -> Some (Sub, 9)
  | Lexer.STAR -> Some (Mul, 10)
  | Lexer.SLASH -> Some (Div, 10)
  | Lexer.PERCENT -> Some (Mod, 10)
  | _ -> None

let logop_of_token : Lexer.token -> (logop * int) option = function
  | Lexer.OROR -> Some (Or, 1)
  | Lexer.ANDAND -> Some (And, 2)
  | _ -> None

let rec parse_assign ?(allow_in = true) st : expr =
  let left = parse_conditional ~allow_in st in
  match assign_op_of_token (peek st) with
  | Some op ->
    let at = peek_span st in
    advance st;
    let tgt = target_of_expr st left in
    let rhs = parse_assign ~allow_in st in
    { e = Assign (tgt, op, rhs); at; lex = lex_unresolved }
  | None -> left

and parse_conditional ~allow_in st : expr =
  let cond = parse_binary ~allow_in st 1 in
  if peek st = Lexer.QUESTION then begin
    let at = peek_span st in
    advance st;
    let then_e = parse_assign ~allow_in:true st in
    expect st Lexer.COLON;
    let else_e = parse_assign ~allow_in st in
    { e = Cond (cond, then_e, else_e); at; lex = lex_unresolved }
  end
  else cond

and parse_binary ~allow_in st min_prec : expr =
  let left = ref (parse_unary ~allow_in st) in
  let continue = ref true in
  while !continue do
    match logop_of_token (peek st) with
    | Some (op, prec) when prec >= min_prec ->
      let at = peek_span st in
      advance st;
      let right = parse_binary ~allow_in st (prec + 1) in
      left := { e = Logical (op, !left, right); at; lex = lex_unresolved }
    | Some _ -> continue := false
    | None ->
      (match binop_of_token ~allow_in (peek st) with
       | Some (op, prec) when prec >= min_prec ->
         let at = peek_span st in
         advance st;
         let right = parse_binary ~allow_in st (prec + 1) in
         left := { e = Binop (op, !left, right); at; lex = lex_unresolved }
       | Some _ | None -> continue := false)
  done;
  !left

and parse_unary ~allow_in st : expr =
  let at = peek_span st in
  match peek st with
  | Lexer.MINUS ->
    advance st;
    { e = Unop (Neg, parse_unary ~allow_in st); at; lex = lex_unresolved }
  | Lexer.PLUS ->
    advance st;
    { e = Unop (Positive, parse_unary ~allow_in st); at; lex = lex_unresolved }
  | Lexer.BANG ->
    advance st;
    { e = Unop (Not, parse_unary ~allow_in st); at; lex = lex_unresolved }
  | Lexer.TILDE ->
    advance st;
    { e = Unop (Bitnot, parse_unary ~allow_in st); at; lex = lex_unresolved }
  | Lexer.KW_typeof ->
    advance st;
    { e = Unop (Typeof, parse_unary ~allow_in st); at; lex = lex_unresolved }
  | Lexer.KW_void ->
    advance st;
    { e = Unop (Void, parse_unary ~allow_in st); at; lex = lex_unresolved }
  | Lexer.KW_delete ->
    advance st;
    { e = Unop (Delete, parse_unary ~allow_in st); at; lex = lex_unresolved }
  | Lexer.PLUSPLUS ->
    advance st;
    let operand = parse_unary ~allow_in st in
    { e = Update (Incr, true, target_of_expr st operand); at; lex = lex_unresolved }
  | Lexer.MINUSMINUS ->
    advance st;
    let operand = parse_unary ~allow_in st in
    { e = Update (Decr, true, target_of_expr st operand); at; lex = lex_unresolved }
  | _ -> parse_postfix ~allow_in st

and parse_postfix ~allow_in st : expr =
  let e = parse_call ~allow_in st in
  match peek st with
  | Lexer.PLUSPLUS ->
    let at = peek_span st in
    advance st;
    { e = Update (Incr, false, target_of_expr st e); at; lex = lex_unresolved }
  | Lexer.MINUSMINUS ->
    let at = peek_span st in
    advance st;
    { e = Update (Decr, false, target_of_expr st e); at; lex = lex_unresolved }
  | _ -> e

and parse_call ~allow_in st : expr =
  let base = parse_primary ~allow_in st in
  parse_call_tail st base

and parse_call_tail st base : expr =
  match peek st with
  | Lexer.DOT ->
    let at = peek_span st in
    advance st;
    let field = ident_name st in
    parse_call_tail st { e = Member (base, field); at; lex = lex_unresolved }
  | Lexer.LBRACKET ->
    let at = peek_span st in
    advance st;
    let index = parse_assign st in
    expect st Lexer.RBRACKET;
    parse_call_tail st { e = Index (base, index); at; lex = lex_unresolved }
  | Lexer.LPAREN ->
    let at = peek_span st in
    let args = parse_args st in
    parse_call_tail st { e = Call (base, args); at; lex = lex_unresolved }
  | _ -> base

and parse_args st : expr list =
  expect st Lexer.LPAREN;
  if peek st = Lexer.RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let arg = parse_assign st in
      if peek st = Lexer.COMMA then begin
        advance st;
        go (arg :: acc)
      end
      else begin
        expect st Lexer.RPAREN;
        List.rev (arg :: acc)
      end
    in
    go []
  end

and parse_new st : expr =
  let at = peek_span st in
  expect st Lexer.KW_new;
  (* Constructor expression: a primary followed by member accesses, but
     no call (parenthesised arguments belong to [new]). *)
  let callee =
    let base =
      if peek st = Lexer.KW_new then parse_new st
      else parse_primary_nocall st
    in
    let rec members acc =
      match peek st with
      | Lexer.DOT ->
        let mat = peek_span st in
        advance st;
        let field = ident_name st in
        members { e = Member (acc, field); at = mat; lex = lex_unresolved }
      | Lexer.LBRACKET ->
        let mat = peek_span st in
        advance st;
        let index = parse_assign st in
        expect st Lexer.RBRACKET;
        members { e = Index (acc, index); at = mat; lex = lex_unresolved }
      | _ -> acc
    in
    members base
  in
  let args = if peek st = Lexer.LPAREN then parse_args st else [] in
  { e = New (callee, args); at; lex = lex_unresolved }

and parse_primary_nocall st : expr =
  let at = peek_span st in
  match peek st with
  | Lexer.IDENT name ->
    advance st;
    { e = Ident name; at; lex = lex_unresolved }
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr_seq st in
    expect st Lexer.RPAREN;
    e
  | Lexer.KW_this ->
    advance st;
    { e = This; at; lex = lex_unresolved }
  | tok ->
    error st
      (Printf.sprintf "expected constructor expression but found %s"
         (Lexer.token_name tok))

and parse_primary ~allow_in st : expr =
  let at = peek_span st in
  match peek st with
  | Lexer.NUMBER f ->
    advance st;
    { e = Number f; at; lex = lex_unresolved }
  | Lexer.STRING s ->
    advance st;
    { e = String s; at; lex = lex_unresolved }
  | Lexer.KW_true ->
    advance st;
    { e = Bool true; at; lex = lex_unresolved }
  | Lexer.KW_false ->
    advance st;
    { e = Bool false; at; lex = lex_unresolved }
  | Lexer.KW_null ->
    advance st;
    { e = Null; at; lex = lex_unresolved }
  | Lexer.KW_undefined ->
    advance st;
    { e = Undefined; at; lex = lex_unresolved }
  | Lexer.KW_this ->
    advance st;
    { e = This; at; lex = lex_unresolved }
  | Lexer.IDENT name ->
    advance st;
    { e = Ident name; at; lex = lex_unresolved }
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr_seq st in
    expect st Lexer.RPAREN;
    e
  | Lexer.LBRACKET ->
    advance st;
    let rec elems acc =
      if peek st = Lexer.RBRACKET then begin
        advance st;
        List.rev acc
      end
      else begin
        let e = parse_assign st in
        if peek st = Lexer.COMMA then begin
          advance st;
          (* trailing comma *)
          if peek st = Lexer.RBRACKET then begin
            advance st;
            List.rev (e :: acc)
          end
          else elems (e :: acc)
        end
        else begin
          expect st Lexer.RBRACKET;
          List.rev (e :: acc)
        end
      end
    in
    { e = Array_lit (elems []); at; lex = lex_unresolved }
  | Lexer.LBRACE ->
    advance st;
    let rec props acc =
      if peek st = Lexer.RBRACE then begin
        advance st;
        List.rev acc
      end
      else begin
        let key =
          match peek st with
          | Lexer.IDENT name ->
            advance st;
            name
          | Lexer.STRING s ->
            advance st;
            s
          | Lexer.NUMBER f ->
            advance st;
            Printer.number_to_string f
          | tok ->
            error st
              (Printf.sprintf "expected property name but found %s"
                 (Lexer.token_name tok))
        in
        expect st Lexer.COLON;
        let value = parse_assign st in
        if peek st = Lexer.COMMA then begin
          advance st;
          (* trailing comma *)
          if peek st = Lexer.RBRACE then begin
            advance st;
            List.rev ((key, value) :: acc)
          end
          else props ((key, value) :: acc)
        end
        else begin
          expect st Lexer.RBRACE;
          List.rev ((key, value) :: acc)
        end
      end
    in
    { e = Object_lit (props []); at; lex = lex_unresolved }
  | Lexer.KW_function ->
    let f = parse_function st in
    { e = Function_expr f; at; lex = lex_unresolved }
  | Lexer.KW_new -> parse_new st
  | tok ->
    ignore allow_in;
    error st
      (Printf.sprintf "unexpected %s in expression" (Lexer.token_name tok))

and parse_function st : func =
  let fspan = peek_span st in
  expect st Lexer.KW_function;
  let fname =
    match peek st with
    | Lexer.IDENT name ->
      advance st;
      Some name
    | _ -> None
  in
  expect st Lexer.LPAREN;
  let rec params acc =
    match peek st with
    | Lexer.RPAREN ->
      advance st;
      List.rev acc
    | Lexer.IDENT name ->
      advance st;
      if peek st = Lexer.COMMA then begin
        advance st;
        params (name :: acc)
      end
      else begin
        expect st Lexer.RPAREN;
        List.rev (name :: acc)
      end
    | tok ->
      error st
        (Printf.sprintf "expected parameter name but found %s"
           (Lexer.token_name tok))
  in
  let params = params [] in
  expect st Lexer.LBRACE;
  let body = parse_stmts_until st Lexer.RBRACE in
  expect st Lexer.RBRACE;
  { fname; params; body; fspan; layout = None }

and parse_var_decls st : (string * expr option) list =
  let rec go acc =
    let name = ident_name st in
    let init =
      if peek st = Lexer.ASSIGN then begin
        advance st;
        Some (parse_assign ~allow_in:false st)
      end
      else None
    in
    if peek st = Lexer.COMMA then begin
      advance st;
      go ((name, init) :: acc)
    end
    else List.rev ((name, init) :: acc)
  in
  go []

(* Comma-separated expression list folded into [Seq]; used in for-loop
   heads where the comma operator is genuinely common. *)
and parse_expr_seq st : expr =
  let e = parse_assign st in
  if peek st = Lexer.COMMA then begin
    let at = peek_span st in
    advance st;
    let rest = parse_expr_seq st in
    { e = Seq (e, rest); at; lex = lex_unresolved }
  end
  else e

and parse_stmt st : stmt =
  let sat = peek_span st in
  match peek st with
  | Lexer.SEMI ->
    advance st;
    mk_stmt ~at:sat Empty
  | Lexer.LBRACE ->
    advance st;
    let body = parse_stmts_until st Lexer.RBRACE in
    expect st Lexer.RBRACE;
    mk_stmt ~at:sat (Block body)
  | Lexer.KW_var ->
    advance st;
    let decls = parse_var_decls st in
    expect_semi st;
    mk_stmt ~at:sat (Var_decl decls)
  | Lexer.KW_function ->
    let f = parse_function st in
    mk_stmt ~at:sat (Func_decl f)
  | Lexer.KW_if ->
    advance st;
    expect st Lexer.LPAREN;
    let cond = parse_expr_seq st in
    expect st Lexer.RPAREN;
    let then_s = parse_stmt st in
    let else_s =
      if peek st = Lexer.KW_else then begin
        advance st;
        Some (parse_stmt st)
      end
      else None
    in
    mk_stmt ~at:sat (If (cond, then_s, else_s))
  | Lexer.KW_while ->
    advance st;
    let id = fresh_loop st in
    expect st Lexer.LPAREN;
    let cond = parse_expr_seq st in
    expect st Lexer.RPAREN;
    let body = parse_stmt st in
    mk_stmt ~at:sat (While (id, cond, body))
  | Lexer.KW_do ->
    advance st;
    let id = fresh_loop st in
    let body = parse_stmt st in
    expect st Lexer.KW_while;
    expect st Lexer.LPAREN;
    let cond = parse_expr_seq st in
    expect st Lexer.RPAREN;
    expect_semi st;
    mk_stmt ~at:sat (Do_while (id, body, cond))
  | Lexer.KW_for -> parse_for st sat
  | Lexer.KW_return ->
    advance st;
    let value =
      match peek st with
      | Lexer.SEMI | Lexer.RBRACE | Lexer.EOF -> None
      | _ -> Some (parse_expr_seq st)
    in
    expect_semi st;
    mk_stmt ~at:sat (Return value)
  | Lexer.KW_break ->
    advance st;
    let label =
      match peek st with
      | Lexer.IDENT name ->
        advance st;
        Some name
      | _ -> None
    in
    expect_semi st;
    mk_stmt ~at:sat (Break label)
  | Lexer.KW_continue ->
    advance st;
    let label =
      match peek st with
      | Lexer.IDENT name ->
        advance st;
        Some name
      | _ -> None
    in
    expect_semi st;
    mk_stmt ~at:sat (Continue label)
  | Lexer.KW_throw ->
    advance st;
    let e = parse_expr_seq st in
    expect_semi st;
    mk_stmt ~at:sat (Throw e)
  | Lexer.KW_try ->
    advance st;
    expect st Lexer.LBRACE;
    let body = parse_stmts_until st Lexer.RBRACE in
    expect st Lexer.RBRACE;
    let catch =
      if peek st = Lexer.KW_catch then begin
        advance st;
        expect st Lexer.LPAREN;
        let name = ident_name st in
        expect st Lexer.RPAREN;
        expect st Lexer.LBRACE;
        let cbody = parse_stmts_until st Lexer.RBRACE in
        expect st Lexer.RBRACE;
        Some (name, cbody)
      end
      else None
    in
    let finally =
      if peek st = Lexer.KW_finally then begin
        advance st;
        expect st Lexer.LBRACE;
        let fbody = parse_stmts_until st Lexer.RBRACE in
        expect st Lexer.RBRACE;
        Some fbody
      end
      else None
    in
    if catch = None && finally = None then
      error st "try requires catch or finally";
    mk_stmt ~at:sat (Try (body, catch, finally))
  | Lexer.KW_switch ->
    advance st;
    expect st Lexer.LPAREN;
    let scrutinee = parse_expr_seq st in
    expect st Lexer.RPAREN;
    expect st Lexer.LBRACE;
    let rec cases acc =
      match peek st with
      | Lexer.RBRACE ->
        advance st;
        List.rev acc
      | Lexer.KW_case ->
        advance st;
        let guard = parse_expr_seq st in
        expect st Lexer.COLON;
        let body = parse_case_body st in
        cases ((Some guard, body) :: acc)
      | Lexer.KW_default ->
        advance st;
        expect st Lexer.COLON;
        let body = parse_case_body st in
        cases ((None, body) :: acc)
      | tok ->
        error st
          (Printf.sprintf "expected case/default but found %s"
             (Lexer.token_name tok))
    in
    mk_stmt ~at:sat (Switch (scrutinee, cases []))
  | Lexer.IDENT name when peek_next st = Lexer.COLON ->
    (* labeled statement: "name: stmt" *)
    advance st;
    advance st;
    let body = parse_stmt st in
    mk_stmt ~at:sat (Labeled (name, body))
  | _ ->
    let e = parse_expr_seq st in
    expect_semi st;
    mk_stmt ~at:sat (Expr_stmt e)

and parse_case_body st : stmt list =
  let rec go acc =
    match peek st with
    | Lexer.KW_case | Lexer.KW_default | Lexer.RBRACE -> List.rev acc
    | _ -> go (parse_stmt st :: acc)
  in
  go []

and parse_for st sat : stmt =
  expect st Lexer.KW_for;
  let id = fresh_loop st in
  expect st Lexer.LPAREN;
  (* Disambiguate for(;;) / for(init;;) / for(x in o) / for(var x in o) *)
  match peek st with
  | Lexer.KW_var ->
    advance st;
    let first_name = ident_name st in
    if peek st = Lexer.KW_in then begin
      advance st;
      let obj = parse_expr_seq st in
      expect st Lexer.RPAREN;
      let body = parse_stmt st in
      mk_stmt ~at:sat (For_in (id, Binder_var first_name, obj, body))
    end
    else begin
      let first_init =
        if peek st = Lexer.ASSIGN then begin
          advance st;
          Some (parse_assign ~allow_in:false st)
        end
        else None
      in
      let decls =
        if peek st = Lexer.COMMA then begin
          advance st;
          (first_name, first_init) :: parse_var_decls st
        end
        else [ (first_name, first_init) ]
      in
      expect st Lexer.SEMI;
      parse_for_classic st sat id (Some (Init_var decls))
    end
  | Lexer.SEMI ->
    advance st;
    parse_for_classic st sat id None
  | Lexer.IDENT name when peek_next st = Lexer.KW_in ->
    advance st;
    advance st;
    let obj = parse_expr_seq st in
    expect st Lexer.RPAREN;
    let body = parse_stmt st in
    mk_stmt ~at:sat (For_in (id, Binder_ident name, obj, body))
  | _ ->
    let init = parse_expr_seq st in
    expect st Lexer.SEMI;
    parse_for_classic st sat id (Some (Init_expr init))

and parse_for_classic st sat id init : stmt =
  let cond =
    if peek st = Lexer.SEMI then None else Some (parse_expr_seq st)
  in
  expect st Lexer.SEMI;
  let update =
    if peek st = Lexer.RPAREN then None else Some (parse_expr_seq st)
  in
  expect st Lexer.RPAREN;
  let body = parse_stmt st in
  mk_stmt ~at:sat (For (id, init, cond, update, body))

and parse_stmts_until st closing : stmt list =
  let rec go acc =
    if peek st = closing || peek st = Lexer.EOF then List.rev acc
    else go (parse_stmt st :: acc)
  in
  go []

(* Run [parse] over a fresh scanner. A lex error anywhere in the
   source wins over a parse error, as if the whole input had been
   scanned first. *)
let with_scanner src parse =
  let sc = Lexer.scanner src in
  try
    let tok = Lexer.next sc in
    let st =
      { sc; tok; span = Lexer.span sc; ahead = false; next_tok = Lexer.EOF;
        next_span = Lexer.span sc; loops = 0 }
    in
    try parse st
    with Parse_error _ as e ->
      Lexer.drain sc;
      raise e
  with Lexer.Lex_error (msg, pos) -> raise (Parse_error (msg, pos))

let parse_program src =
  with_scanner src (fun st ->
      let stmts = parse_stmts_until st Lexer.EOF in
      expect st Lexer.EOF;
      { stmts; loop_count = st.loops; glayout = None; resolved_for = None })

let parse_expression src =
  with_scanner src (fun st ->
      let e = parse_expr_seq st in
      expect st Lexer.EOF;
      e)
