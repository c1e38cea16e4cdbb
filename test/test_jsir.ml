(* Tests for the MiniJS front end: lexer, parser, printer, loop index.
   Includes a random-program generator driving the print/parse
   round-trip property. *)

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Lexer *)

let toks src = List.map fst (Jsir.Lexer.tokenize src)

let test_lexer_numbers () =
  Alcotest.(check bool) "decimal" true
    (toks "42" = [ Jsir.Lexer.NUMBER 42.; Jsir.Lexer.EOF ]);
  Alcotest.(check bool) "float" true
    (toks "3.5" = [ Jsir.Lexer.NUMBER 3.5; Jsir.Lexer.EOF ]);
  Alcotest.(check bool) "exponent" true
    (toks "1e3" = [ Jsir.Lexer.NUMBER 1000.; Jsir.Lexer.EOF ]);
  Alcotest.(check bool) "negative exponent" true
    (toks "2.5e-2" = [ Jsir.Lexer.NUMBER 0.025; Jsir.Lexer.EOF ]);
  Alcotest.(check bool) "hex" true
    (toks "0xFF" = [ Jsir.Lexer.NUMBER 255.; Jsir.Lexer.EOF ]);
  Alcotest.(check bool) "leading dot" true
    (toks ".5" = [ Jsir.Lexer.NUMBER 0.5; Jsir.Lexer.EOF ])

let test_lexer_strings () =
  Alcotest.(check bool) "double quoted" true
    (toks {|"hi"|} = [ Jsir.Lexer.STRING "hi"; Jsir.Lexer.EOF ]);
  Alcotest.(check bool) "single quoted" true
    (toks "'a b'" = [ Jsir.Lexer.STRING "a b"; Jsir.Lexer.EOF ]);
  Alcotest.(check bool) "escapes" true
    (toks {|"a\n\t\\\""|} = [ Jsir.Lexer.STRING "a\n\t\\\""; Jsir.Lexer.EOF ]);
  Alcotest.(check bool) "hex escape" true
    (toks {|"\x41"|} = [ Jsir.Lexer.STRING "A"; Jsir.Lexer.EOF ])

let test_lexer_comments () =
  Alcotest.(check bool) "line comment" true
    (toks "1 // two\n 3" =
       [ Jsir.Lexer.NUMBER 1.; Jsir.Lexer.NUMBER 3.; Jsir.Lexer.EOF ]);
  Alcotest.(check bool) "block comment" true
    (toks "1 /* x \n y */ 3" =
       [ Jsir.Lexer.NUMBER 1.; Jsir.Lexer.NUMBER 3.; Jsir.Lexer.EOF ])

let test_lexer_operators () =
  Alcotest.(check bool) "three-char ops" true
    (toks "a >>> b === c !== d" =
       Jsir.Lexer.[ IDENT "a"; USHR; IDENT "b"; SEQ; IDENT "c"; SNEQ;
                    IDENT "d"; EOF ]);
  Alcotest.(check bool) ">>>= is one token" true
    (toks "x >>>= 1" =
       Jsir.Lexer.[ IDENT "x"; USHR_ASSIGN; NUMBER 1.; EOF ])

let test_lexer_errors () =
  let raises src =
    match Jsir.Lexer.tokenize src with
    | exception Jsir.Lexer.Lex_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unterminated string" true (raises "\"abc");
  Alcotest.(check bool) "unterminated comment" true (raises "/* abc");
  Alcotest.(check bool) "bad char" true (raises "a # b")

let test_lexer_positions () =
  let tokens = Jsir.Lexer.tokenize "a\n  b" in
  match tokens with
  | [ (_, sa); (_, sb); _ ] ->
    Alcotest.(check int) "a line" 1 sa.Jsir.Ast.left.line;
    Alcotest.(check int) "b line" 2 sb.Jsir.Ast.left.line;
    Alcotest.(check int) "b col" 3 sb.Jsir.Ast.left.col
  | _ -> Alcotest.fail "expected two tokens"

let test_lexer_keywords () =
  (* [Printer] reads the [keywords] table; the scanner matches words
     by a [match]: the two must agree, word for word. *)
  List.iter
    (fun (word, tok) ->
       Alcotest.(check bool) word true (toks word = [ tok; Jsir.Lexer.EOF ]);
       Alcotest.(check bool) (word ^ "_ is an identifier") true
         (toks (word ^ "_") = [ Jsir.Lexer.IDENT (word ^ "_"); Jsir.Lexer.EOF ]))
    Jsir.Lexer.keywords;
  Alcotest.(check bool) "case matters" true
    (toks "Var IN" = Jsir.Lexer.[ IDENT "Var"; IDENT "IN"; EOF ])

(* The tokens [Lexer.next] pulls one at a time, with their spans, or
   the lex error that stops them. *)
let pulled src =
  let sc = Jsir.Lexer.scanner src in
  let rec go acc =
    match Jsir.Lexer.next sc with
    | tok ->
      let acc = (tok, Jsir.Lexer.span sc) :: acc in
      if tok = Jsir.Lexer.EOF then Ok (List.rev acc) else go acc
    | exception Jsir.Lexer.Lex_error (msg, pos) -> Error (msg, pos)
  in
  go []

let tokenized src =
  match Jsir.Lexer.tokenize src with
  | toks -> Ok toks
  | exception Jsir.Lexer.Lex_error (msg, pos) -> Error (msg, pos)

(* Every word token's span covers exactly its text in the source. *)
let word_spans_match src toks =
  let starts =
    let acc = ref [ 0 ] in
    String.iteri (fun i c -> if c = '\n' then acc := (i + 1) :: !acc) src;
    Array.of_list (List.rev !acc)
  in
  let off (p : Jsir.Ast.pos) = starts.(p.line - 1) + p.col - 1 in
  List.for_all
    (fun (tok, (sp : Jsir.Ast.span)) ->
       let text () = String.sub src (off sp.left) (off sp.right - off sp.left) in
       match tok with
       | Jsir.Lexer.IDENT name -> text () = name
       | tok -> (
           match List.find_opt (fun (_, t) -> t = tok) Jsir.Lexer.keywords with
           | Some (word, _) -> text () = word
           | None -> true))
    toks

(* What a parse answers: the program or expression, or the error. *)
let parse_outcome parse src =
  match parse src with
  | _ -> Ok ()
  | exception Jsir.Parser.Parse_error (msg, pos) -> Error (Some (msg, pos))
  | exception _ -> Error None

(* The 12 workload sources, each with a few random edits: cuts,
   duplicated spans and inserted characters that open strings and
   comments or are not MiniJS at all. *)
let gen_mutated_source =
  let open QCheck.Gen in
  let sources =
    List.map (fun (w : Workloads.Workload.t) -> w.source) Workloads.Registry.all
  in
  let edit src =
    let n = String.length src in
    let* i = int_bound n in
    let* kind = int_bound 2 in
    match kind with
    | 0 ->
      let* len = int_bound (min 40 (n - i)) in
      return (String.sub src 0 i ^ String.sub src (i + len) (n - i - len))
    | 1 ->
      let* len = int_bound (min 40 (n - i)) in
      return (String.sub src 0 i ^ String.sub src i len ^ String.sub src i (n - i))
    | _ ->
      let* c =
        oneofl [ '"'; '\''; '/'; '*'; '@'; '#'; '\n'; '{'; '}'; '('; ';';
                 ':'; '.'; 'x'; '0'; '\\'; '`' ]
      in
      return (String.sub src 0 i ^ String.make 1 c ^ String.sub src i (n - i))
  in
  let* src = oneofl sources in
  let* edits = int_range 0 3 in
  let rec apply k src = if k = 0 then return src else edit src >>= apply (k - 1) in
  apply edits src

let prop_pull_matches_tokenize =
  QCheck.Test.make ~name:"pulled tokens = tokenize; lex errors win parses"
    ~count:150
    (QCheck.make ~print:(fun s -> s) gen_mutated_source)
    (fun src ->
       let reference = tokenized src in
       pulled src = reference
       && (match reference with
           | Ok toks -> word_spans_match src toks
           | Error _ -> true)
       && List.for_all
            (fun parse ->
               match (parse_outcome parse src, reference) with
               | Error None, _ -> false (* only [Parse_error] escapes *)
               | Error (Some err), Error lex -> err = lex
               | (Ok () | Error (Some _)), _ -> true)
            [ (fun s -> ignore (Jsir.Parser.parse_program s));
              (fun s -> ignore (Jsir.Parser.parse_expression s)) ])

(* ------------------------------------------------------------------ *)
(* Parser *)

let parse = Jsir.Parser.parse_program
let pexpr = Jsir.Parser.parse_expression

let expr_str src = Jsir.Printer.expr_to_string (pexpr src)

let test_parser_precedence () =
  (* the printer parenthesises exactly where precedence demands *)
  Alcotest.(check string) "mul over add" "1 + 2 * 3" (expr_str "1+2*3");
  Alcotest.(check string) "explicit parens survive" "(1 + 2) * 3"
    (expr_str "(1+2)*3");
  Alcotest.(check string) "comparison over logic" "a < b && c > d"
    (expr_str "a<b&&c>d");
  Alcotest.(check string) "or under and" "a || b && c" (expr_str "a||b&&c");
  Alcotest.(check string) "ternary" "a ? b : c ? d : e"
    (expr_str "a?b:(c?d:e)");
  Alcotest.(check string) "assignment right-assoc" "a = b = c"
    (expr_str "a=b=c");
  Alcotest.(check string) "unary binds tight" "-a * b" (expr_str "-a*b");
  Alcotest.(check string) "member/call chain" "a.b[c](d).e"
    (expr_str "a.b[c](d).e")

let test_parser_statements () =
  let p = parse "var a = 1, b; if (a) { b = 2; } else b = 3;" in
  Alcotest.(check int) "no loops" 0 p.loop_count;
  let p = parse "for (var i = 0; i < 3; i++) ; while (1) break; do ; while (0);" in
  Alcotest.(check int) "three loops" 3 p.loop_count

let test_parser_loop_ids_in_order () =
  let p = parse "while (a) { for (;;) {} } do {} while (b);" in
  let infos = Jsir.Loops.index p in
  Alcotest.(check int) "loop count" 3 (Array.length infos);
  Alcotest.(check bool) "while is root" true (infos.(0).parent = None);
  Alcotest.(check bool) "for nested in while" true (infos.(1).parent = Some 0);
  Alcotest.(check bool) "do-while is root" true (infos.(2).parent = None);
  Alcotest.(check int) "for depth" 1 infos.(1).depth

let test_parser_for_in_disambiguation () =
  let p = parse "for (var k in o) {} for (k in o) {} for (k = 0; k < o; k++) {}" in
  let kinds =
    Array.to_list (Jsir.Loops.index p)
    |> List.map (fun (i : Jsir.Loops.info) -> i.kind)
  in
  Alcotest.(check bool) "kinds" true
    (kinds = [ Jsir.Ast.Kfor_in; Jsir.Ast.Kfor_in; Jsir.Ast.Kfor ])

let test_parser_in_operator_inside_for_head () =
  (* [in] must not be an operator in the for-init, but must work in the
     condition of a while. *)
  (match (parse "while (\"x\" in o) {}").stmts with
   | [ { s = Jsir.Ast.While (_, cond, _); _ } ] ->
     (match cond.e with
      | Jsir.Ast.Binop (Jsir.Ast.In, _, _) -> ()
      | _ -> Alcotest.fail "expected In binop")
   | _ -> Alcotest.fail "expected while");
  ()

let test_parser_errors () =
  let raises src =
    match parse src with
    | exception Jsir.Parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing paren" true (raises "if (a {}");
  Alcotest.(check bool) "missing semi" true (raises "a = 1 b = 2");
  Alcotest.(check bool) "bad assignment target" true (raises "1 = 2;");
  Alcotest.(check bool) "try without catch/finally" true (raises "try { }");
  Alcotest.(check bool) "reserved word as ident" true (raises "var for = 1;")

let test_parser_switch () =
  match (parse "switch (x) { case 1: a(); case 2: b(); break; default: c(); }").stmts with
  | [ { s = Jsir.Ast.Switch (_, cases); _ } ] ->
    Alcotest.(check int) "three cases" 3 (List.length cases)
  | _ -> Alcotest.fail "expected switch"

let test_parser_trailing_commas () =
  (match (pexpr "[1, 2, 3,]").e with
   | Jsir.Ast.Array_lit es -> Alcotest.(check int) "array" 3 (List.length es)
   | _ -> Alcotest.fail "expected array literal");
  (match (pexpr "{a: 1, b: 2,}").e with
   | Jsir.Ast.Object_lit kvs -> Alcotest.(check int) "object" 2 (List.length kvs)
   | _ -> Alcotest.fail "expected object literal")

let test_parser_lenient_semicolons () =
  (* statements before '}' or EOF do not need the semicolon *)
  let p = parse "function f() { return 1 }\nvar x = f()" in
  Alcotest.(check int) "two statements" 2 (List.length p.stmts)

(* The parser pulls tokens while it parses, but a lex error anywhere in
   the source still wins over an earlier parse error, with the lexer's
   message and position, and no [Lex_error] escapes. *)
let test_parser_lex_error_wins () =
  let answer parse src =
    match parse src with
    | _ -> "parsed"
    | exception Jsir.Parser.Parse_error (msg, pos) ->
      Printf.sprintf "%s at %d:%d" msg pos.line pos.col
  in
  List.iter
    (fun (src, expected) ->
       Alcotest.(check string) (String.escaped src) expected (answer parse src);
       Alcotest.(check string) ("expression " ^ String.escaped src) expected
         (answer pexpr src))
    [ ("var = 1;\nx = \"abc", "unterminated string literal at 2:9");
      ("f(;\n/* open", "unterminated block comment at 2:8");
      ("x = 1 @ 2;", "unexpected character '@' at 1:7");
      ("f(;\n\"abc\" #", "unexpected character '#' at 2:7");
      ("1e", "malformed exponent at 1:3") ];
  Alcotest.(check string) "parse error without a lex error"
    "expected ';' but found identifier b at 2:3" (answer parse "a\n  b c")

(* Allocation budget of a parse: minor words are deterministic, so a
   bound catches a token list or array that comes back. Each bound is
   the measured count plus 10% headroom. *)
let test_parse_allocation_budget () =
  List.iter
    (fun (name, measured) ->
       let src = (Option.get (Workloads.Registry.find name)).source in
       let before = Gc.minor_words () in
       ignore (Sys.opaque_identity (parse src));
       let words = Gc.minor_words () -. before in
       let bound = 1.1 *. measured in
       if words > bound then
         Alcotest.failf "%s: %.0f minor words, over the budget of %.0f" name
           words bound)
    [ ("HAAR.js", 27_898.); ("fluidSim", 30_271.) ]

let test_parse_expression_rejects_trailing () =
  match pexpr "1 + 2 3" with
  | exception Jsir.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

(* ------------------------------------------------------------------ *)
(* Printer *)

let test_number_to_string () =
  Alcotest.(check string) "integer" "42" (Jsir.Printer.number_to_string 42.);
  Alcotest.(check string) "negative" "-3" (Jsir.Printer.number_to_string (-3.));
  Alcotest.(check string) "fraction" "2.5" (Jsir.Printer.number_to_string 2.5);
  Alcotest.(check string) "NaN" "NaN" (Jsir.Printer.number_to_string Float.nan);
  Alcotest.(check string) "Infinity" "Infinity"
    (Jsir.Printer.number_to_string Float.infinity);
  Alcotest.(check string) "-Infinity" "-Infinity"
    (Jsir.Printer.number_to_string Float.neg_infinity)

let test_string_to_source () =
  Alcotest.(check string) "escapes" {|"a\n\"b\\"|}
    (Jsir.Printer.string_to_source "a\n\"b\\")

let test_statement_ambiguity_protected () =
  (* expression statements that start with { or function must print
     parenthesised to re-parse as expressions *)
  let e = pexpr "function() { return 1; }()" in
  let stmt = Jsir.Ast.expr_stmt e in
  let printed = Jsir.Printer.stmt_to_string stmt in
  Alcotest.(check bool) "wrapped in parens" true (printed.[0] = '(');
  let reparsed = parse printed in
  Alcotest.(check int) "still one statement" 1 (List.length reparsed.stmts)

(* Round-trip on a corpus of tricky handwritten programs. *)
let roundtrip_corpus =
  [ "var a = -1;";
    "x = a - -b;";
    "x = -(-y);";
    "x = + +y;";
    "a = typeof b === \"number\" ? b | 0 : ~c;";
    "o = {a: 1, \"b c\": [2, {d: 3}], f: function(x) { return x; }};";
    "while (a < b) { a += 1; continue; }";
    "for (var i = 0, j = 9; i < j; i++, j--) { if (i === 2) break; }";
    "for (var k in obj) delete obj[k];";
    "try { f(); } catch (e) { g(e); } finally { h(); }";
    "switch (v) { case 1: case 2: f(); break; default: g(); }";
    "a.b.c[d + 1](e, f)(g);";
    "new A(new B().c, d);";
    "x = a >>> 2 << 1 >> 3;";
    "do { i--; } while (i > 0);";
    "s = \"quote \\\" backslash \\\\ newline \\n\";";
    "f(function() { var u; u = 1; }, 2);";
    "x = (1, 2);";
    "if (a) if (b) c(); else d();";
    "outer: for (;;) { inner: while (a) { break outer; continue inner; } }";
    "lab: { x = 1; break lab; }" ]

let test_roundtrip_corpus () =
  List.iter
    (fun src ->
       let p1 = parse src in
       let printed = Jsir.Printer.program_to_string p1 in
       let p2 =
         try parse printed
         with Jsir.Parser.Parse_error (msg, pos) ->
           Alcotest.failf "reparse of %S failed at line %d: %s (printed: %s)"
             src pos.line msg printed
       in
       if not (Jsir.Equal.program p1 p2) then
         Alcotest.failf "round trip changed %S -> %s" src printed)
    roundtrip_corpus

(* ------------------------------------------------------------------ *)
(* Random program generator for the round-trip property *)

let gen_ident =
  QCheck.Gen.oneofl [ "a"; "b"; "cc"; "d0"; "_e"; "$f"; "value"; "obj" ]

let gen_expr : Jsir.Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let open Jsir.Ast in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [ map (fun f -> number (Float.abs f)) (float_bound_inclusive 1000.);
            map (fun i -> number (float_of_int (abs i))) small_int;
            map string_lit (oneofl [ "s"; "two words"; ""; "q\"q" ]);
            map ident gen_ident;
            return (mk Null);
            return (mk Undefined);
            return (mk This);
            map (fun b -> mk (Bool b)) bool ]
      in
      if n <= 0 then leaf
      else
        let sub = self (n / 2) in
        frequency
          [ (3, leaf);
            ( 2,
              map2
                (fun op (l, r) -> mk (Binop (op, l, r)))
                (oneofl
                   [ Add; Sub; Mul; Div; Mod; Eq; Neq; Strict_eq; Lt; Le; Gt;
                     Ge; Band; Bor; Bxor; Lshift; Rshift; Urshift ])
                (pair sub sub) );
            ( 1,
              map2
                (fun op (l, r) -> mk (Logical (op, l, r)))
                (oneofl [ And; Or ])
                (pair sub sub) );
            (1, map2 (fun o f -> mk (Member (o, f))) sub gen_ident);
            (1, map2 (fun o i -> mk (Index (o, i))) sub sub);
            (1, map2 (fun f args -> mk (Call (f, args)))
               sub (list_size (int_range 0 3) sub));
            (1, map (fun (c, (t, f)) -> mk (Cond (c, t, f)))
               (pair sub (pair sub sub)));
            (1, map (fun e -> mk (Unop (Not, e))) sub);
            (1, map (fun e -> mk (Unop (Neg, e))) sub);
            (1, map (fun e -> mk (Unop (Typeof, e))) sub);
            (1, map2 (fun x e -> mk (Assign (Tgt_ident x, None, e)))
               gen_ident sub);
            (1, map (fun es -> mk (Array_lit es))
               (list_size (int_range 0 3) sub));
            (1, map (fun kvs -> mk (Object_lit kvs))
               (list_size (int_range 0 3) (pair gen_ident sub))) ])

let arb_expr =
  QCheck.make ~print:(fun e -> Jsir.Printer.expr_to_string e) gen_expr

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip on random expressions"
    ~count:500 arb_expr (fun e ->
        let printed = Jsir.Printer.expr_to_string e in
        match Jsir.Parser.parse_expression printed with
        | reparsed -> Jsir.Equal.expr e reparsed
        | exception Jsir.Parser.Parse_error _ -> false)

(* Random statements, including loops, for the program round-trip. *)
let gen_stmt : Jsir.Ast.stmt QCheck.Gen.t =
  let open QCheck.Gen in
  let open Jsir.Ast in
  (* loop ids get rewritten by reparsing; generate with id 0 and
     compare ignoring ids *)
  let expr_g = gen_expr in
  sized @@ fix (fun self n ->
      let small_exprs = QCheck.Gen.map (fun e -> expr_stmt e) expr_g in
      if n <= 0 then small_exprs
      else
        let sub = self (n / 3) in
        frequency
          [ (4, small_exprs);
            (2, map (fun decls -> mk_stmt (Var_decl decls))
               (list_size (int_range 1 2)
                  (pair gen_ident (option expr_g))));
            (2, map (fun (c, (t, e)) -> mk_stmt (If (c, t, e)))
               (pair expr_g (pair sub (option sub))));
            (1, map2 (fun c b -> mk_stmt (While (0, c, b))) expr_g sub);
            (1, map2 (fun b c -> mk_stmt (Do_while (0, b, c))) sub expr_g);
            (1, map (fun ((c, u), b) ->
                 mk_stmt (For (0, None, c, u, b)))
               (pair (pair (option expr_g) (option expr_g)) sub));
            (1, map (fun body -> mk_stmt (Block body))
               (list_size (int_range 0 3) sub));
            (1, map (fun e -> mk_stmt (Return e)) (option expr_g));
            (1, map (fun e -> mk_stmt (Throw e)) expr_g);
            (1, map2 (fun body (name, cbody) ->
                 mk_stmt (Try (body, Some (name, cbody), None)))
               (list_size (int_range 0 2) sub)
               (pair gen_ident (list_size (int_range 0 2) sub))) ])

let arb_program =
  QCheck.make
    ~print:(fun (p : Jsir.Ast.program) -> Jsir.Printer.program_to_string p)
    QCheck.Gen.(
      map
        (fun stmts : Jsir.Ast.program ->
           { stmts; loop_count = 0; glayout = None; resolved_for = None })
        (list_size (int_range 1 6) gen_stmt))

let prop_program_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip on random programs"
    ~count:300 arb_program (fun p ->
        let printed = Jsir.Printer.program_to_string p in
        match Jsir.Parser.parse_program printed with
        | reparsed -> Jsir.Equal.program ~ignore_loop_ids:true p reparsed
        | exception Jsir.Parser.Parse_error _ -> false)

(* ------------------------------------------------------------------ *)
(* Loop index *)

let test_loops_in_functions () =
  let p =
    parse
      "function outer() { while (a) { inner(); } }\n\
       function inner() { for (;;) {} }\n\
       while (top) {}"
  in
  let infos = Jsir.Loops.index p in
  Alcotest.(check int) "three loops" 3 (Array.length infos);
  Alcotest.(check (option string)) "while in outer" (Some "outer")
    infos.(0).in_function;
  Alcotest.(check (option string)) "for in inner" (Some "inner")
    infos.(1).in_function;
  Alcotest.(check (option string)) "top-level" None infos.(2).in_function;
  (* loops in a nested function do not belong to the caller's nest *)
  Alcotest.(check bool) "inner for has no parent" true
    (infos.(1).parent = None)

let test_loops_label () =
  let p = parse "\n\nwhile (a) {}" in
  let infos = Jsir.Loops.index p in
  Alcotest.(check string) "label" "while(line 3)"
    (Jsir.Loops.label infos.(0))

(* ------------------------------------------------------------------ *)
(* Traversal *)

(* One program using every statement, expression, target, for-init and
   for-in-binder variant ([Intrinsic], which the parser never builds,
   is appended by hand). *)
let iter_program_src =
  {|var a = 1, b;
if (a) b = 2; else ;
while (a < 3) a++;
do --a; while (a);
for (var i = 0, j; i < 2; i += 1) continue;
for (i = 0; ; ) break;
for (var k in o) ;
for (k in o) { k; }
lbl: for (;;) break lbl;
try { throw "x"; } catch (e) { e; } finally { null; }
switch (a) { case 1: b; break; default: c; }
function f(x) { return this; return; }
g = function h() { return [1, "s", true, undefined]; };
o.p = {q: f(a, b), r: new F(a)};
o[i] -= -a && b || c ? a : (a, b);
o.p++; o[i]--;
typeof o.p + o[i][0];|}

let flat s =
  String.split_on_char '\n' s |> List.map String.trim
  |> List.filter (fun l -> l <> "")
  |> String.concat " "

let show_stmt s = "S " ^ flat (Jsir.Printer.stmt_to_string s)
let show_expr e = "E " ^ flat (Jsir.Printer.expr_to_string e)

(* "node => child | child" for every node with children, pre-order. The
   walk recurses through the iterator itself, so each line is exactly
   one node's immediate children, and any node without a line has
   none. *)
let child_table stmts =
  let out = ref [] in
  let rec node shown iter =
    let kids = ref [] in
    iter
      ~stmt:(fun s -> kids := (show_stmt s, fun () -> stmt s) :: !kids)
      ~expr:(fun e -> kids := (show_expr e, fun () -> expr e) :: !kids);
    let kids = List.rev !kids in
    if kids <> [] then
      out := (shown ^ " => " ^ String.concat " | " (List.map fst kids)) :: !out;
    List.iter (fun (_, walk) -> walk ()) kids
  and stmt s =
    node (show_stmt s) (fun ~stmt ~expr -> Jsir.Ast.iter_stmt ~stmt ~expr s)
  and expr e =
    node (show_expr e) (fun ~stmt ~expr -> Jsir.Ast.iter_expr ~stmt ~expr e)
  in
  List.iter stmt stmts;
  List.rev !out

let test_iter_children () =
  let p = parse iter_program_src in
  let intrinsic =
    Jsir.Ast.(
      expr_stmt
        (intrinsic
           (Prop_read { obj = ident "a"; key = Computed (number 1.); line = 7 })))
  in
  (* Function bodies are children of [function f] and [function h];
     the declarator [j], binders, labels and the catch name are not
     nodes. *)
  let expected =
    {|S var a = 1, b; => E 1
S if (a) { b = 2; } else ; => E a | S b = 2; | S ;
S b = 2; => E b = 2
E b = 2 => E 2
S while (a < 3) a++; => E a < 3 | S a++;
E a < 3 => E a | E 3
S a++; => E a++
S do --a; while (a); => S --a; | E a
S --a; => E --a
S for (var i = 0, j; i < 2; i += 1) continue; => E 0 | E i < 2 | E i += 1 | S continue;
E i < 2 => E i | E 2
E i += 1 => E 1
S for (i = 0; ; ) break; => E i = 0 | S break;
E i = 0 => E 0
S for (var k in o) ; => E o | S ;
S for (k in o) { k; } => E o | S { k; }
S { k; } => S k;
S k; => E k
S lbl: for (; ; ) break lbl; => S for (; ; ) break lbl;
S for (; ; ) break lbl; => S break lbl;
S try { throw "x"; } catch (e) { e; } finally { null; } => S throw "x"; | S e; | S null;
S throw "x"; => E "x"
S e; => E e
S null; => E null
S switch (a) { case 1: b; break; default: c; } => E a | E 1 | S b; | S break; | S c;
S b; => E b
S c; => E c
S function f(x) { return this; return; } => S return this; | S return;
S return this; => E this
S g = function h() { return [1, "s", true, undefined]; }; => E g = function h() { return [1, "s", true, undefined]; }
E g = function h() { return [1, "s", true, undefined]; } => E function h() { return [1, "s", true, undefined]; }
E function h() { return [1, "s", true, undefined]; } => S return [1, "s", true, undefined];
S return [1, "s", true, undefined]; => E [1, "s", true, undefined]
E [1, "s", true, undefined] => E 1 | E "s" | E true | E undefined
S o.p = {q: f(a, b), r: new F(a)}; => E o.p = {q: f(a, b), r: new F(a)}
E o.p = {q: f(a, b), r: new F(a)} => E o | E {q: f(a, b), r: new F(a)}
E {q: f(a, b), r: new F(a)} => E f(a, b) | E new F(a)
E f(a, b) => E f | E a | E b
E new F(a) => E F | E a
S o[i] -= -a && b || c ? a : (a, b); => E o[i] -= -a && b || c ? a : (a, b)
E o[i] -= -a && b || c ? a : (a, b) => E o | E i | E -a && b || c ? a : (a, b)
E -a && b || c ? a : (a, b) => E -a && b || c | E a | E a, b
E -a && b || c => E -a && b | E c
E -a && b => E -a | E b
E -a => E a
E a, b => E a | E b
S o.p++; => E o.p++
E o.p++ => E o
S o[i]--; => E o[i]--
E o[i]-- => E o | E i
S typeof o.p + o[i][0]; => E typeof o.p + o[i][0]
E typeof o.p + o[i][0] => E typeof o.p | E o[i][0]
E typeof o.p => E o.p
E o.p => E o
E o[i][0] => E o[i] | E 0
E o[i] => E o | E i
S __ceres_index_read(a, 1, 7); => E __ceres_index_read(a, 1, 7)
E __ceres_index_read(a, 1, 7) => E a | E 1|} in
  Alcotest.(check (list string))
    "immediate children of every node, in source order"
    (String.split_on_char '\n' expected)
    (child_table (p.stmts @ [ intrinsic ]))

let suite =
  [ ("lexer numbers", `Quick, test_lexer_numbers);
    ("lexer strings", `Quick, test_lexer_strings);
    ("lexer comments", `Quick, test_lexer_comments);
    ("lexer operators", `Quick, test_lexer_operators);
    ("lexer errors", `Quick, test_lexer_errors);
    ("lexer positions", `Quick, test_lexer_positions);
    ("parser precedence", `Quick, test_parser_precedence);
    ("parser statements", `Quick, test_parser_statements);
    ("parser loop ids", `Quick, test_parser_loop_ids_in_order);
    ("parser for-in forms", `Quick, test_parser_for_in_disambiguation);
    ("parser in operator", `Quick, test_parser_in_operator_inside_for_head);
    ("parser errors", `Quick, test_parser_errors);
    ("parser switch", `Quick, test_parser_switch);
    ("parser trailing commas", `Quick, test_parser_trailing_commas);
    ("parser lenient semicolons", `Quick, test_parser_lenient_semicolons);
    ("parse_expression trailing", `Quick, test_parse_expression_rejects_trailing);
    ("printer numbers", `Quick, test_number_to_string);
    ("printer string escape", `Quick, test_string_to_source);
    ("printer statement ambiguity", `Quick, test_statement_ambiguity_protected);
    ("round-trip corpus", `Quick, test_roundtrip_corpus);
    qtest prop_expr_roundtrip;
    qtest prop_program_roundtrip;
    ("loops in functions", `Quick, test_loops_in_functions);
    ("loops label", `Quick, test_loops_label);
    ("iterator children", `Quick, test_iter_children);
    ("lexer keywords", `Quick, test_lexer_keywords);
    qtest prop_pull_matches_tokenize;
    ("parser: a lex error wins", `Quick, test_parser_lex_error_wins);
    ("parse allocation budget", `Quick, test_parse_allocation_budget) ]
