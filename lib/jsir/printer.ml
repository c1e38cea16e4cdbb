open Ast

let number_to_string f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "Infinity"
  else if f = Float.neg_infinity then "-Infinity"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else begin
    (* Shortest decimal representation that parses back to the same
       double, as JavaScript engines print numbers. *)
    let rec shortest precision =
      if precision > 17 then Printf.sprintf "%.17g" f
      else begin
        let s = Printf.sprintf "%.*g" precision f in
        if float_of_string s = f then s else shortest (precision + 1)
      end
    in
    shortest 12
  end

let string_to_source s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\r' -> Buffer.add_string buf "\\r"
       | c when Char.code c < 32 ->
         Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Operator precedence levels for parenthesisation, mirroring the
   parser's grammar. *)
let prec_of_binop = function
  | Bor -> 5
  | Bxor -> 6
  | Band -> 7
  | Eq | Neq | Strict_eq | Strict_neq -> 8
  | Lt | Le | Gt | Ge | Instanceof | In -> 9
  | Lshift | Rshift | Urshift -> 10
  | Add | Sub -> 11
  | Mul | Div | Mod -> 12

let prec_of_expr (e : expr) =
  match e.e with
  | Seq _ -> 0
  | Assign _ -> 1
  | Cond _ -> 2
  | Logical (Or, _, _) -> 3
  | Logical (And, _, _) -> 4
  | Binop (op, _, _) -> prec_of_binop op
  | Unop _ | Update (_, true, _) -> 13
  | Update (_, false, _) -> 14
  | New _ -> 16
  | Call _ | Intrinsic _ -> 15
  | Member _ | Index _ -> 17
  | Number _ | String _ | Bool _ | Null | Undefined | Ident _ | This
  | Array_lit _ | Object_lit _ | Function_expr _ -> 18

let is_valid_ident s =
  s <> ""
  && (let c = s.[0] in
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$')
  && String.for_all
       (fun c ->
          (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9') || c = '_' || c = '$')
       s
  && not (List.mem_assoc s Lexer.keywords)

let rec expr_buf buf ctx (e : expr) =
  let own = prec_of_expr e in
  let wrap = own < ctx in
  if wrap then Buffer.add_char buf '(';
  (match e.e with
   | Number f ->
     if f < 0. || (f = 0. && 1. /. f < 0.) then begin
       (* Negative literals print via unary minus to re-parse identically. *)
       Buffer.add_char buf '(';
       Buffer.add_string buf (number_to_string f);
       Buffer.add_char buf ')'
     end
     else Buffer.add_string buf (number_to_string f)
   | String s -> Buffer.add_string buf (string_to_source s)
   | Bool b -> Buffer.add_string buf (if b then "true" else "false")
   | Null -> Buffer.add_string buf "null"
   | Undefined -> Buffer.add_string buf "undefined"
   | Ident x -> Buffer.add_string buf x
   | This -> Buffer.add_string buf "this"
   | Array_lit elems ->
     Buffer.add_char buf '[';
     List.iteri
       (fun i el ->
          if i > 0 then Buffer.add_string buf ", ";
          expr_buf buf 1 el)
       elems;
     Buffer.add_char buf ']'
   | Object_lit props ->
     Buffer.add_char buf '{';
     List.iteri
       (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          if is_valid_ident k then Buffer.add_string buf k
          else Buffer.add_string buf (string_to_source k);
          Buffer.add_string buf ": ";
          expr_buf buf 1 v)
       props;
     Buffer.add_char buf '}'
   | Function_expr f -> func_buf buf 0 f
   | Member (obj, field) ->
     expr_buf buf 15 obj;
     Buffer.add_char buf '.';
     Buffer.add_string buf field
   | Index (obj, idx) ->
     expr_buf buf 15 obj;
     Buffer.add_char buf '[';
     expr_buf buf 0 idx;
     Buffer.add_char buf ']'
   | Call (callee, args) ->
     expr_buf buf 15 callee;
     args_buf buf args
   | Intrinsic i ->
     let name, args = intrinsic_call i in
     Buffer.add_string buf name;
     args_buf buf args
   | New (callee, args) ->
     Buffer.add_string buf "new ";
     expr_buf buf 17 callee;
     args_buf buf args
   | Unop (op, operand) ->
     let name = unop_name op in
     Buffer.add_string buf name;
     if String.length name > 1 then Buffer.add_char buf ' '
     else begin
       (* Avoid "--x" printing for Neg(Neg x) / Neg(negative literal). *)
       match op, operand.e with
       | Neg, (Unop (Neg, _) | Number _) -> Buffer.add_char buf ' '
       | Positive, (Unop (Positive, _) | Update (Incr, true, _)) ->
         Buffer.add_char buf ' '
       | _ -> ()
     end;
     expr_buf buf 13 operand
   | Binop (op, l, r) ->
     let prec = prec_of_binop op in
     expr_buf buf prec l;
     Buffer.add_char buf ' ';
     Buffer.add_string buf (binop_name op);
     Buffer.add_char buf ' ';
     expr_buf buf (prec + 1) r
   | Logical (op, l, r) ->
     let prec = match op with Or -> 3 | And -> 4 in
     expr_buf buf prec l;
     Buffer.add_char buf ' ';
     Buffer.add_string buf (logop_name op);
     Buffer.add_char buf ' ';
     expr_buf buf (prec + 1) r
   | Cond (c, t, f) ->
     expr_buf buf 3 c;
     Buffer.add_string buf " ? ";
     expr_buf buf 1 t;
     Buffer.add_string buf " : ";
     expr_buf buf 1 f
   | Assign (tgt, op, rhs) ->
     target_buf buf tgt;
     Buffer.add_char buf ' ';
     (match op with
      | None -> Buffer.add_char buf '='
      | Some bop ->
        Buffer.add_string buf (binop_name bop);
        Buffer.add_char buf '=');
     Buffer.add_char buf ' ';
     expr_buf buf 1 rhs
   | Update (kind, prefix, tgt) ->
     let sym = match kind with Incr -> "++" | Decr -> "--" in
     if prefix then begin
       Buffer.add_string buf sym;
       target_buf buf tgt
     end
     else begin
       target_buf buf tgt;
       Buffer.add_string buf sym
     end
   | Seq (l, r) ->
     expr_buf buf 1 l;
     Buffer.add_string buf ", ";
     expr_buf buf 0 r);
  if wrap then Buffer.add_char buf ')'

and args_buf buf args =
  Buffer.add_char buf '(';
  List.iteri
    (fun i a ->
       if i > 0 then Buffer.add_string buf ", ";
       expr_buf buf 1 a)
    args;
  Buffer.add_char buf ')'

and target_buf buf = function
  | Tgt_ident x -> Buffer.add_string buf x
  | Tgt_member (obj, field) ->
    expr_buf buf 15 obj;
    Buffer.add_char buf '.';
    Buffer.add_string buf field
  | Tgt_index (obj, idx) ->
    expr_buf buf 15 obj;
    Buffer.add_char buf '[';
    expr_buf buf 0 idx;
    Buffer.add_char buf ']'

and func_buf buf indent f =
  Buffer.add_string buf "function";
  (match f.fname with
   | Some name ->
     Buffer.add_char buf ' ';
     Buffer.add_string buf name
   | None -> ());
  Buffer.add_char buf '(';
  List.iteri
    (fun i p ->
       if i > 0 then Buffer.add_string buf ", ";
       Buffer.add_string buf p)
    f.params;
  Buffer.add_string buf ") {\n";
  List.iter (fun s -> stmt_buf buf (indent + 1) s) f.body;
  add_indent buf indent;
  Buffer.add_char buf '}'

and add_indent buf n = Buffer.add_string buf (String.make (2 * n) ' ')

(* Expression statements beginning with "function" or "{" would parse
   as declarations/blocks; protect them with parentheses. *)
and statement_needs_parens (e : expr) =
  let rec leftmost (e : expr) =
    match e.e with
    | Function_expr _ | Object_lit _ -> true
    | Member (obj, _) | Index (obj, _) | Call (obj, _) -> leftmost obj
    | Binop (_, l, _) | Logical (_, l, _) | Cond (l, _, _) | Seq (l, _) ->
      leftmost l
    | Update (_, false, (Tgt_member (obj, _) | Tgt_index (obj, _))) ->
      leftmost obj
    | Assign ((Tgt_member (obj, _) | Tgt_index (obj, _)), _, _) -> leftmost obj
    | _ -> false
  in
  leftmost e

and stmt_buf buf indent (st : stmt) =
  add_indent buf indent;
  match st.s with
  | Empty -> Buffer.add_string buf ";\n"
  | Break (Some label) ->
    Buffer.add_string buf ("break " ^ label ^ ";\n")
  | Continue (Some label) ->
    Buffer.add_string buf ("continue " ^ label ^ ";\n")
  | Expr_stmt e ->
    if statement_needs_parens e then begin
      Buffer.add_char buf '(';
      expr_buf buf 0 e;
      Buffer.add_char buf ')'
    end
    else expr_buf buf 0 e;
    Buffer.add_string buf ";\n"
  | Var_decl decls ->
    Buffer.add_string buf "var ";
    List.iteri
      (fun i (name, init) ->
         if i > 0 then Buffer.add_string buf ", ";
         Buffer.add_string buf name;
         match init with
         | None -> ()
         | Some e ->
           Buffer.add_string buf " = ";
           expr_buf buf 1 e)
      decls;
    Buffer.add_string buf ";\n"
  | Func_decl f ->
    func_buf buf indent f;
    Buffer.add_char buf '\n'
  | If (cond, then_s, else_s) ->
    Buffer.add_string buf "if (";
    expr_buf buf 0 cond;
    Buffer.add_string buf ")";
    (* Brace the then-branch whenever an else follows: otherwise a
       trailing if-without-else (or do/for ending in one) inside it
       would capture our else on re-parse (dangling else). *)
    let then_s =
      match (else_s, then_s.s) with
      | Some _, Block _ -> then_s
      | Some _, _ -> mk_stmt ~at:then_s.sat (Block [ then_s ])
      | None, _ -> then_s
    in
    block_like buf indent then_s;
    (match else_s with
     | None -> Buffer.add_char buf '\n'
     | Some s ->
       Buffer.add_string buf " else";
       (match s.s with
        | If _ ->
          Buffer.add_char buf ' ';
          let sub = Buffer.create 64 in
          stmt_buf sub indent s;
          (* Drop the indentation the nested call produced. *)
          let text = Buffer.contents sub in
          let trimmed =
            let i = ref 0 in
            while !i < String.length text && text.[!i] = ' ' do incr i done;
            String.sub text !i (String.length text - !i)
          in
          Buffer.add_string buf trimmed
        | _ ->
          block_like buf indent s;
          Buffer.add_char buf '\n'))
  | While (_, cond, body) ->
    Buffer.add_string buf "while (";
    expr_buf buf 0 cond;
    Buffer.add_string buf ")";
    block_like buf indent body;
    Buffer.add_char buf '\n'
  | Do_while (_, body, cond) ->
    Buffer.add_string buf "do";
    block_like buf indent body;
    Buffer.add_string buf " while (";
    expr_buf buf 0 cond;
    Buffer.add_string buf ");\n"
  | For (_, init, cond, update, body) ->
    Buffer.add_string buf "for (";
    (match init with
     | None -> ()
     | Some (Init_expr e) -> expr_buf buf 0 e
     | Some (Init_var decls) ->
       Buffer.add_string buf "var ";
       List.iteri
         (fun i (name, ie) ->
            if i > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf name;
            match ie with
            | None -> ()
            | Some e ->
              Buffer.add_string buf " = ";
              expr_buf buf 1 e)
         decls);
    Buffer.add_string buf "; ";
    (match cond with None -> () | Some e -> expr_buf buf 0 e);
    Buffer.add_string buf "; ";
    (match update with None -> () | Some e -> expr_buf buf 0 e);
    Buffer.add_string buf ")";
    block_like buf indent body;
    Buffer.add_char buf '\n'
  | For_in (_, binder, obj, body) ->
    Buffer.add_string buf "for (";
    (match binder with
     | Binder_var name ->
       Buffer.add_string buf "var ";
       Buffer.add_string buf name
     | Binder_ident name -> Buffer.add_string buf name);
    Buffer.add_string buf " in ";
    expr_buf buf 0 obj;
    Buffer.add_string buf ")";
    block_like buf indent body;
    Buffer.add_char buf '\n'
  | Labeled (name, body) ->
    Buffer.add_string buf name;
    Buffer.add_string buf ": ";
    let sub = Buffer.create 64 in
    stmt_buf sub indent body;
    (* drop the duplicated indentation of the nested statement *)
    let text = Buffer.contents sub in
    let i = ref 0 in
    while !i < String.length text && text.[!i] = ' ' do incr i done;
    Buffer.add_string buf (String.sub text !i (String.length text - !i))
  | Return None -> Buffer.add_string buf "return;\n"
  | Return (Some e) ->
    Buffer.add_string buf "return ";
    expr_buf buf 0 e;
    Buffer.add_string buf ";\n"
  | Break None -> Buffer.add_string buf "break;\n"
  | Continue None -> Buffer.add_string buf "continue;\n"
  | Throw e ->
    Buffer.add_string buf "throw ";
    expr_buf buf 0 e;
    Buffer.add_string buf ";\n"
  | Try (body, catch, finally) ->
    Buffer.add_string buf "try {\n";
    List.iter (fun s -> stmt_buf buf (indent + 1) s) body;
    add_indent buf indent;
    Buffer.add_char buf '}';
    (match catch with
     | None -> ()
     | Some (name, cbody) ->
       Buffer.add_string buf (" catch (" ^ name ^ ") {\n");
       List.iter (fun s -> stmt_buf buf (indent + 1) s) cbody;
       add_indent buf indent;
       Buffer.add_char buf '}');
    (match finally with
     | None -> ()
     | Some fbody ->
       Buffer.add_string buf " finally {\n";
       List.iter (fun s -> stmt_buf buf (indent + 1) s) fbody;
       add_indent buf indent;
       Buffer.add_char buf '}');
    Buffer.add_char buf '\n'
  | Block body ->
    Buffer.add_string buf "{\n";
    List.iter (fun s -> stmt_buf buf (indent + 1) s) body;
    add_indent buf indent;
    Buffer.add_string buf "}\n"
  | Switch (scrutinee, cases) ->
    Buffer.add_string buf "switch (";
    expr_buf buf 0 scrutinee;
    Buffer.add_string buf ") {\n";
    List.iter
      (fun (guard, body) ->
         add_indent buf (indent + 1);
         (match guard with
          | Some g ->
            Buffer.add_string buf "case ";
            expr_buf buf 0 g;
            Buffer.add_string buf ":\n"
          | None -> Buffer.add_string buf "default:\n");
         List.iter (fun s -> stmt_buf buf (indent + 2) s) body)
      cases;
    add_indent buf indent;
    Buffer.add_string buf "}\n"

and block_like buf indent (st : stmt) =
  match st.s with
  | Block body ->
    Buffer.add_string buf " {\n";
    List.iter (fun s -> stmt_buf buf (indent + 1) s) body;
    add_indent buf indent;
    Buffer.add_char buf '}'
  | _ ->
    Buffer.add_char buf '\n';
    let sub = Buffer.create 64 in
    stmt_buf sub (indent + 1) st;
    let text = Buffer.contents sub in
    (* Drop the trailing newline so callers control spacing. *)
    Buffer.add_string buf (String.sub text 0 (String.length text - 1))

let expr_to_string e =
  let buf = Buffer.create 64 in
  expr_buf buf 0 e;
  Buffer.contents buf

let stmt_to_string ?(indent = 0) s =
  let buf = Buffer.create 128 in
  stmt_buf buf indent s;
  Buffer.contents buf

let program_to_string (p : program) =
  let buf = Buffer.create 1024 in
  List.iter (fun s -> stmt_buf buf 0 s) p.stmts;
  Buffer.contents buf

