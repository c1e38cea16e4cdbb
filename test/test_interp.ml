(* Interpreter semantics: values, coercions, scoping, control flow,
   prototypes, builtins, the event loop and resource limits. *)

let qtest = QCheck_alcotest.to_alcotest

let check_eval msg expected src =
  Alcotest.check Helpers.value_testable msg expected (Helpers.eval_expr src)

let check_in msg prelude expected src =
  Alcotest.check Helpers.value_testable msg expected
    (Helpers.eval_in prelude src)

(* ------------------------------------------------------------------ *)
(* Arithmetic and coercions *)

let test_arithmetic () =
  check_eval "add" (Helpers.num 7.) "3 + 4";
  check_eval "precedence" (Helpers.num 14.) "2 + 3 * 4";
  check_eval "mod" (Helpers.num 1.) "7 % 3";
  check_eval "negative mod" (Helpers.num (-1.)) "-7 % 3";
  check_eval "division by zero" (Helpers.num Float.infinity) "1 / 0";
  check_eval "nan" (Helpers.num Float.nan) "0 / 0";
  check_eval "string concat" (Helpers.str "12") {|"1" + 2|};
  check_eval "numeric minus coerces" (Helpers.num 1.) {|"3" - "2"|};
  check_eval "unary plus" (Helpers.num 5.) {|+"5"|};
  check_eval "array in addition" (Helpers.str "1,23") "[1,2] + 3"

let test_bitwise () =
  check_eval "and" (Helpers.num 4.) "12 & 6";
  check_eval "or" (Helpers.num 14.) "12 | 6";
  check_eval "xor" (Helpers.num 10.) "12 ^ 6";
  check_eval "shl" (Helpers.num 24.) "3 << 3";
  check_eval "sar negative" (Helpers.num (-2.)) "-8 >> 2";
  check_eval "ushr negative" (Helpers.num 1073741822.) "-8 >>> 2";
  check_eval "bitnot" (Helpers.num (-6.)) "~5";
  check_eval "int32 wrap" (Helpers.num (-2147483648.)) "2147483647 + 1 | 0"

let test_equality () =
  check_eval "loose number/string" (Helpers.boolean true) {|1 == "1"|};
  check_eval "strict number/string" (Helpers.boolean false) {|1 === "1"|};
  check_eval "null == undefined" (Helpers.boolean true) "null == undefined";
  check_eval "null !== undefined" (Helpers.boolean false) "null === undefined";
  check_eval "nan != nan" (Helpers.boolean false) "NaN == NaN";
  check_eval "bool coercion" (Helpers.boolean true) "true == 1";
  check_in "object identity" "var a = {}; var b = {}; var c = a;"
    (Helpers.boolean false) "a == b";
  check_in "same object" "var a = {}; var c = a;" (Helpers.boolean true)
    "a == c"

let test_truthiness () =
  check_eval "empty string falsy" (Helpers.str "f") {|"" ? "t" : "f"|};
  check_eval "zero falsy" (Helpers.str "f") {|0 ? "t" : "f"|};
  check_eval "nan falsy" (Helpers.str "f") {|NaN ? "t" : "f"|};
  check_eval "object truthy" (Helpers.str "t") {|({}) ? "t" : "f"|};
  check_eval "and returns operand" (Helpers.num 2.) "1 && 2";
  check_eval "or returns operand" (Helpers.num 1.) "1 || 2";
  check_eval "or skips to second" (Helpers.str "x") {|0 || "x"|}

let test_typeof () =
  check_eval "number" (Helpers.str "number") "typeof 1";
  check_eval "string" (Helpers.str "string") {|typeof "s"|};
  check_eval "boolean" (Helpers.str "boolean") "typeof true";
  check_eval "undefined" (Helpers.str "undefined") "typeof undefined";
  check_eval "null is object" (Helpers.str "object") "typeof null";
  check_eval "function" (Helpers.str "function") "typeof function() {}";
  check_eval "undeclared variable safe" (Helpers.str "undefined")
    "typeof not_declared_anywhere"

(* Coercion laws as properties. *)
let prop_abstract_eq_reflexive_numbers =
  QCheck.Test.make ~name:"x == x for non-NaN numbers" ~count:200
    QCheck.(float_range (-1e6) 1e6)
    (fun f ->
       let st, _ = Helpers.fresh_state () in
       Interp.Value.abstract_eq st (Num f) (Num f))

let prop_abstract_eq_symmetric =
  QCheck.Test.make ~name:"abstract == is symmetric" ~count:500
    (let open QCheck in
     let base =
       oneof
         [ map (fun f -> Interp.Value.Num f) (float_range (-100.) 100.);
           map (fun s -> Interp.Value.Str s) (oneofl [ ""; "0"; "1"; "x" ]);
           map (fun b -> Interp.Value.Bool b) bool;
           always Interp.Value.Null;
           always Interp.Value.Undefined ]
     in
     pair base base)
    (fun (a, b) ->
       let st, _ = Helpers.fresh_state () in
       Interp.Value.abstract_eq st a b = Interp.Value.abstract_eq st b a)

let prop_to_string_number_roundtrip =
  QCheck.Test.make ~name:"to_number (to_string n) = n" ~count:300
    QCheck.(float_range (-1e9) 1e9)
    (fun f ->
       let st, _ = Helpers.fresh_state () in
       Interp.Value.to_number st (Str (Interp.Value.to_string st (Num f))) = f)

(* ------------------------------------------------------------------ *)
(* Scoping *)

let test_var_hoisting () =
  (* [var] is function-scoped: the block-local declaration is visible
     before its line, holding undefined. *)
  check_in "hoisted var reads undefined"
    "function f() { var seen = typeof x; { var x = 1; } return seen; }\n\
     var r = f();"
    (Helpers.str "undefined") "r";
  check_in "loop-declared var escapes the loop"
    "function g() { for (var i = 0; i < 3; i++) { var t = i * 10; } return t; }\n\
     var r = g();"
    (Helpers.num 20.) "r";
  (* Function declarations nested in loop, try, switch and if bodies
     are bound at function entry, in a function frame and in the global
     frame, on the resolved (slot) and the dynamic (name) path. *)
  let decls =
    "for (var i = 0; i < 1; i++) { function f1() {} }\n\
     try { function f2() {} } catch (e) {}\n\
     switch (1) { case 1: function f3() {} }\n\
     if (true) { function f4() {} }\n"
  in
  let seen = "[typeof f1, typeof f2, typeof f3, typeof f4].join()" in
  let src =
    "function g() { var seen = " ^ seen ^ ";\n" ^ decls
    ^ "return seen; }\nconsole.log(g());\n" ^ decls ^ "console.log(" ^ seen
    ^ ");"
  in
  let four = "function,function,function,function" in
  List.iter
    (fun resolve ->
       let st, _ = Helpers.fresh_state () in
       Interp.Eval.run_program ~resolve st (Jsir.Parser.parse_program src);
       Alcotest.(check (list string))
         (Printf.sprintf "nested declarations bound (resolve=%b)" resolve)
         [ four; four ] (List.rev st.console))
    [ true; false ]

let test_closures () =
  check_in "counter closure"
    "function mk() { var n = 0; return function() { n++; return n; }; }\n\
     var c1 = mk(); var c2 = mk(); c1(); c1(); c2();"
    (Helpers.num 3.) "c1()";
  check_in "closures share the var-scoped loop variable"
    "var fs = [];\n\
     for (var i = 0; i < 3; i++) { fs.push(function() { return i; }); }"
    (Helpers.num 3.) "fs[0]() + fs[1]() - fs[2]()"
  (* all three return 3: 3 + 3 - 3 = 3 *)

let test_implicit_global () =
  check_in "assignment without var creates a global"
    "function f() { leaked = 9; } f();" (Helpers.num 9.) "leaked"

let test_named_function_expression () =
  check_in "name visible inside body only"
    "var f = function fact(n) { return n < 2 ? 1 : n * fact(n - 1); };"
    (Helpers.num 120.) "f(5)";
  let st, _ = Helpers.run "var f = function g() { return 1; };" in
  (match
     Interp.Eval.eval_in_global st (Jsir.Parser.parse_expression "typeof g")
   with
   | Str "undefined" -> ()
   | v -> Alcotest.failf "g leaked: %s" (Interp.Value.to_string st v))

(* ------------------------------------------------------------------ *)
(* Objects and prototypes *)

let test_prototype_chain () =
  check_in "method from prototype"
    "function A() { this.x = 1; }\n\
     A.prototype.get = function() { return this.x + 10; };\n\
     var a = new A();"
    (Helpers.num 11.) "a.get()";
  check_in "instanceof walks the chain"
    "function A() {} function B() {}\n\
     B.prototype = new A();\n\
     var b = new B();"
    (Helpers.boolean true) "b instanceof A && b instanceof B";
  check_in "own property shadows prototype"
    "function A() {} A.prototype.v = 1; var a = new A(); a.v = 2;"
    (Helpers.num 2.) "a.v";
  check_in "constructor returning object overrides this"
    "function A() { return {forced: true}; } var a = new A();"
    (Helpers.boolean true) "a.forced"

let test_this_binding () =
  check_in "method call binds this"
    "var o = {n: 5, f: function() { return this.n; }};" (Helpers.num 5.)
    "o.f()";
  check_in "bare call gets global this"
    "var n = 1; function f() { return typeof this; }" (Helpers.str "object")
    "f()";
  check_in "call/apply rebind this"
    "var o = {n: 7}; function f(a, b) { return this.n + a + b; }"
    (Helpers.num 10.) "f.call(o, 1, 2)";
  check_in "apply with array"
    "var o = {n: 7}; function f(a, b) { return this.n + a + b; }"
    (Helpers.num 10.) "f.apply(o, [1, 2])"

let test_delete_and_in () =
  check_in "delete removes own property" "var o = {a: 1}; delete o.a;"
    (Helpers.boolean false) {|"a" in o|};
  check_in "in sees prototype"
    "function A() {} A.prototype.p = 1; var a = new A();"
    (Helpers.boolean true) {|"p" in a|};
  check_in "hasOwnProperty does not"
    "function A() {} A.prototype.p = 1; var a = new A();"
    (Helpers.boolean false) {|a.hasOwnProperty("p")|}

let test_for_in_order () =
  let out =
    Helpers.run_console
      "var o = {b: 1, a: 2}; o.c = 3;\n\
       var ks = [];\n\
       for (var k in o) { ks.push(k); }\n\
       console.log(ks.join(\",\"));"
  in
  Alcotest.(check (list string)) "insertion order" [ "b,a,c" ] out

(* ------------------------------------------------------------------ *)
(* Control flow *)

let test_try_finally_ordering () =
  let out =
    Helpers.run_console
      "function f() {\n\
      \  try { throw \"boom\"; }\n\
      \  catch (e) { console.log(\"caught\", e); return 1; }\n\
      \  finally { console.log(\"finally\"); }\n\
       }\n\
       console.log(\"ret\", f());"
  in
  Alcotest.(check (list string)) "order"
    [ "caught boom"; "finally"; "ret 1" ]
    out

let test_finally_overrides_return () =
  check_in "finally break discards return... (no labels: use value)"
    "function f() { try { return 1; } finally { g = 2; } } var g = 0; var r = f();"
    (Helpers.num 3.) "r + g"

let test_exception_unwinds_loops () =
  let out =
    Helpers.run_console
      "var reached = 0;\n\
       try {\n\
      \  while (true) { for (var i = 0; ; i++) { if (i === 3) { throw i; } } }\n\
       } catch (e) { reached = e; }\n\
       console.log(reached);"
  in
  Alcotest.(check (list string)) "unwound" [ "3" ] out

let test_break_continue () =
  check_in "break leaves innermost loop"
    "var n = 0;\n\
     for (var i = 0; i < 3; i++) { for (var j = 0; j < 10; j++) { if (j === 2) break; n++; } }"
    (Helpers.num 6.) "n";
  check_in "continue skips"
    "var n = 0; for (var i = 0; i < 10; i++) { if (i % 2 === 0) continue; n++; }"
    (Helpers.num 5.) "n"

let test_labeled_break_continue () =
  check_in "labeled break exits the outer loop"
    "var n = 0;\n\
     outer: for (var i = 0; i < 5; i++) {\n\
     for (var j = 0; j < 5; j++) { if (j === 2 && i === 1) { break outer; } n++; }\n\
     }"
    (Helpers.num 7.) "n";
  check_in "labeled continue skips to the outer loop"
    "var n = 0;\n\
     outer: for (var i = 0; i < 3; i++) {\n\
     for (var j = 0; j < 10; j++) { if (j === 1) { continue outer; } n++; }\n\
     }"
    (Helpers.num 3.) "n";
  check_in "unlabeled break still targets the innermost loop"
    "var n = 0;\n\
     outer: for (var i = 0; i < 3; i++) { while (true) { n++; break; } }"
    (Helpers.num 3.) "n";
  check_in "break out of a labeled block"
    "var n = 1;\n\
     blk: { n = 2; if (n === 2) { break blk; } n = 3; }"
    (Helpers.num 2.) "n"

let test_switch_fallthrough () =
  let src v =
    Printf.sprintf
      "var trace = [];\n\
       switch (%s) {\n\
       case 1: trace.push(\"one\");\n\
       case 2: trace.push(\"two\"); break;\n\
       default: trace.push(\"other\");\n\
       }" v
  in
  check_in "fallthrough 1 -> 2" (src "1") (Helpers.str "one,two")
    "trace.join(\",\")";
  check_in "case 2 only" (src "2") (Helpers.str "two") "trace.join(\",\")";
  check_in "default" (src "9") (Helpers.str "other") "trace.join(\",\")";
  check_in "strict matching" (src "\"1\"") (Helpers.str "other")
    "trace.join(\",\")"

let test_update_expressions () =
  check_in "postfix returns old" "var i = 5; var a = i++;" (Helpers.num 5.) "a";
  check_in "prefix returns new" "var i = 5; var a = ++i;" (Helpers.num 6.) "a";
  check_in "single evaluation of receiver"
    "var calls = 0; var arr = [10, 20];\n\
     function pick() { calls++; return arr; }\n\
     pick()[0] += 5;"
    (Helpers.num 1.) "calls"

(* ------------------------------------------------------------------ *)
(* Builtins *)

let test_array_methods () =
  check_in "push/pop/length" "var a = [1]; a.push(2, 3); a.pop();"
    (Helpers.num 2.) "a.length";
  check_in "shift/unshift" "var a = [2, 3]; a.unshift(1); var s = a.shift();"
    (Helpers.str "1|2,3") {|s + "|" + a.join(",")|};
  check_in "slice negative" "var a = [1, 2, 3, 4];" (Helpers.str "3,4")
    "a.slice(-2).join(\",\")";
  check_in "splice removes and inserts"
    "var a = [1, 2, 3, 4]; var r = a.splice(1, 2, 9);"
    (Helpers.str "1,9,4|2,3") {|a.join(",") + "|" + r.join(",")|};
  check_in "concat" "var a = [1].concat([2, 3], 4);" (Helpers.str "1,2,3,4")
    {|a.join(",")|};
  check_in "indexOf strict" "var a = [1, \"1\", 2];" (Helpers.num 1.)
    {|a.indexOf("1")|};
  check_in "map passes index" "var a = [10, 20].map(function(v, i) { return v + i; });"
    (Helpers.str "10,21") {|a.join(",")|};
  check_in "filter" "var a = [1, 2, 3, 4].filter(function(v) { return v % 2; });"
    (Helpers.str "1,3") {|a.join(",")|};
  check_in "reduce with init" "" (Helpers.num 10.)
    "[1, 2, 3, 4].reduce(function(a, b) { return a + b; }, 0)";
  check_in "reduce without init" "" (Helpers.num 24.)
    "[2, 3, 4].reduce(function(a, b) { return a * b; })";
  check_in "some/every" "" (Helpers.boolean true)
    "[1, 2].some(function(v) { return v > 1; }) && [1, 2].every(function(v) { return v > 0; })";
  check_in "sort default is lexicographic" "var a = [10, 9, 1];"
    (Helpers.str "1,10,9") {|a.sort().join(",")|};
  check_in "sort with comparator" "var a = [10, 9, 1];" (Helpers.str "1,9,10")
    {|a.sort(function(x, y) { return x - y; }).join(",")|};
  check_in "reverse in place" "var a = [1, 2, 3]; a.reverse();"
    (Helpers.str "3,2,1") {|a.join(",")|};
  check_in "length assignment truncates" "var a = [1, 2, 3]; a.length = 1;"
    (Helpers.str "1") {|a.join(",")|};
  check_in "sparse extension" "var a = []; a[3] = 1;" (Helpers.num 4.)
    "a.length";
  check_in "Array.isArray" "" (Helpers.boolean true)
    "Array.isArray([]) && !Array.isArray({})"

(* Array.prototype.sort agrees with List.sort on numbers. *)
let prop_sort_matches_ocaml =
  QCheck.Test.make ~name:"Array sort(comparator) = List.sort" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 25) (int_range (-1000) 1000))
    (fun xs ->
       let js_list =
         String.concat ", " (List.map string_of_int xs)
       in
       let st, _ =
         Helpers.run
           (Printf.sprintf
              "var a = [%s]; a.sort(function(x, y) { return x - y; });"
              js_list)
       in
       let result =
         Interp.Value.to_string st
           (Interp.Eval.eval_in_global st
              (Jsir.Parser.parse_expression {|a.join(",")|}))
       in
       let expected =
         String.concat "," (List.map string_of_int (List.sort compare xs))
       in
       result = expected)

let test_string_methods () =
  check_eval "charAt" (Helpers.str "b") {|"abc".charAt(1)|};
  check_eval "charCodeAt" (Helpers.num 97.) {|"abc".charCodeAt(0)|};
  check_eval "indexOf" (Helpers.num 3.) {|"abcabc".indexOf("ab", 1) >= 0 ? "abcabc".indexOf("ab") + 3 : -1|};
  check_eval "slice" (Helpers.str "bc") {|"abcd".slice(1, 3)|};
  check_eval "substring swaps" (Helpers.str "bc") {|"abcd".substring(3, 1)|};
  check_eval "split" (Helpers.str "a|b|c") {|"a,b,c".split(",").join("|")|};
  check_eval "split empty sep" (Helpers.num 3.) {|"abc".split("").length|};
  check_eval "replace first" (Helpers.str "xbcabc") {|"abcabc".replace("a", "x")|};
  check_eval "toUpperCase" (Helpers.str "AB") {|"ab".toUpperCase()|};
  check_eval "trim" (Helpers.str "x") {|"  x  ".trim()|};
  check_eval "string index access" (Helpers.str "b") {|"abc"[1]|};
  check_eval "length" (Helpers.num 3.) {|"abc".length|};
  check_eval "fromCharCode" (Helpers.str "AB") "String.fromCharCode(65, 66)"

let test_math_and_numbers () =
  check_eval "floor" (Helpers.num 3.) "Math.floor(3.7)";
  check_eval "round half up" (Helpers.num 4.) "Math.round(3.5)";
  check_eval "min of many" (Helpers.num (-1.)) "Math.min(3, -1, 2)";
  check_eval "pow" (Helpers.num 8.) "Math.pow(2, 3)";
  check_eval "parseInt radix" (Helpers.num 255.) {|parseInt("ff", 16)|};
  check_eval "parseInt stops at junk" (Helpers.num 12.) {|parseInt("12px")|};
  check_eval "parseFloat" (Helpers.num 2.5) {|parseFloat(" 2.5 ")|};
  check_eval "isNaN" (Helpers.boolean true) {|isNaN(0 / 0)|};
  check_eval "toFixed" (Helpers.str "3.14") "(3.14159).toFixed(2)";
  check_eval "sign" (Helpers.num (-1.)) "Math.sign(-3)";
  check_eval "trunc" (Helpers.num (-3.)) "Math.trunc(-3.7)";
  check_eval "number toString radix" (Helpers.str "ff") "(255).toString(16)";
  check_eval "number toString default" (Helpers.str "255") "(255).toString()";
  check_eval "lastIndexOf" (Helpers.num 3.) "[1, 2, 1, 2].lastIndexOf(2)"

let test_math_random_seeded () =
  let sample seed =
    let st = Interp.Eval.create ~seed () in
    Interp.Builtins.install st;
    Interp.Eval.run_program st
      (Jsir.Parser.parse_program
         "var xs = []; for (var i = 0; i < 5; i++) { xs.push(Math.random()); }");
    Interp.Value.to_string st
      (Interp.Eval.eval_in_global st (Jsir.Parser.parse_expression "xs.join()"))
  in
  Alcotest.(check string) "same seed, same stream" (sample 5) (sample 5);
  Alcotest.(check bool) "different seeds differ" true (sample 5 <> sample 6)

let test_json_stringify () =
  check_eval "number" (Helpers.str "42") "JSON.stringify(42)";
  check_eval "string escapes" (Helpers.str "\"a\\nb\"")
    "JSON.stringify(\"a\\nb\")";
  check_eval "array" (Helpers.str "[1,null,true]")
    "JSON.stringify([1, null, true])";
  check_eval "object" (Helpers.str {|{"a":1,"b":[2,3]}|})
    "JSON.stringify({a: 1, b: [2, 3]})";
  check_eval "undefined dropped from objects" (Helpers.str {|{"a":1}|})
    "JSON.stringify({a: 1, b: undefined, f: function() {}})";
  check_eval "undefined becomes null in arrays" (Helpers.str "[null,null]")
    "JSON.stringify([undefined, function() {}])";
  check_eval "nan is null" (Helpers.str "[null,null]")
    "JSON.stringify([0 / 0, 1 / 0])";
  check_eval "top-level undefined" Interp.Value.Undefined
    "JSON.stringify(undefined)";
  check_in "cycles throw" "var o = {}; o.self = o;
                           var caught = false;
                           try { JSON.stringify(o); } catch (e) { caught = true; }"
    (Helpers.boolean true) "caught"

let test_json_parse () =
  check_eval "nested structure" (Helpers.num 7.)
    "JSON.parse('{\"a\": [1, {\"b\": 7}]}').a[1].b";
  check_eval "escapes" (Helpers.str "a\nb") "JSON.parse('\"a\\\\nb\"')";
  check_eval "numbers" (Helpers.num (-2.5e3)) {|JSON.parse("-2.5e3")|};
  check_eval "literals" (Helpers.boolean true)
    {|JSON.parse("true") === true && JSON.parse("null") === null|};
  check_in "trailing junk throws"
    {|var caught = false; try { JSON.parse("1 x"); } catch (e) { caught = true; }|}
    (Helpers.boolean true) "caught";
  check_eval "round-trip" (Helpers.str "{\"xs\":[1,2],\"s\":\"q'q\"}")
    "JSON.stringify(JSON.parse(JSON.stringify({xs: [1, 2], s: \"q'q\"})))";
  check_eval "negative zero keeps its sign" (Helpers.boolean true)
    {|1 / JSON.parse("-0") === -Infinity|};
  check_eval "duplicate key: last value, first position"
    (Helpers.str "a,b:3")
    {|(function () { var o = JSON.parse('{"a": 1, "b": 2, "a": 3}');
                     return Object.keys(o).join() + ":" + o.a; })()|};
  check_eval "\\u escape decodes to UTF-8" (Helpers.str "\xc3\xa9")
    {|JSON.parse('"\\u00e9"')|};
  check_eval "raw UTF-8 passes through" (Helpers.str "\xc3\xa9")
    "JSON.parse('\"\xc3\xa9\"')";
  List.iter
    (fun (label, text) ->
       check_in
         (Printf.sprintf "%s throws a SyntaxError" label)
         (Printf.sprintf
            {|var name = "none"; try { JSON.parse(%s); } catch (e) { name = e.name; }|}
            text)
         (Helpers.str "SyntaxError") "name")
    [ ("trailing comma", {|"[1,]"|});
      ("missing colon", {|"{\"a\" 1}"|});
      ("truncated literal", {|"tru"|});
      ("unterminated string", {|"\"abc"|}) ]

(* stringify/parse round-trip on random JSON-safe structures, compared
   structurally via a second stringify. *)
let prop_json_roundtrip =
  let rec gen_json_src depth =
    let open QCheck.Gen in
    if depth = 0 then
      oneof
        [ map string_of_int (int_range (-1000) 1000);
          oneofl [ "true"; "false"; "null"; "\"s\""; "\"two words\"" ] ]
    else
      oneof
        [ map string_of_int (int_range (-1000) 1000);
          (let* elems = list_size (int_range 0 4) (gen_json_src (depth - 1)) in
           return ("[" ^ String.concat ", " elems ^ "]"));
          (let* kvs =
             list_size (int_range 0 4)
               (pair (oneofl [ "a"; "b"; "k1"; "k2"; "x" ])
                  (gen_json_src (depth - 1)))
           in
           (* deduplicate keys to keep stringify(parse(s)) stable *)
           let seen = Hashtbl.create 8 in
           let kvs =
             List.filter
               (fun (k, _) ->
                  if Hashtbl.mem seen k then false
                  else (Hashtbl.replace seen k (); true))
               kvs
           in
           return
             ("{"
              ^ String.concat ", "
                  (List.map (fun (k, v) -> k ^ ": " ^ v) kvs)
              ^ "}")) ]
  in
  QCheck.Test.make ~name:"JSON stringify/parse round-trip" ~count:200
    (QCheck.make (gen_json_src 3))
    (fun src ->
       let once =
         Helpers.eval_expr ("JSON.stringify(" ^ src ^ ")")
       in
       match once with
       | Interp.Value.Str s1 ->
         (match
            Helpers.eval_expr
              ("JSON.stringify(JSON.parse(" ^ Jsir.Printer.string_to_source s1
               ^ "))")
          with
          | Interp.Value.Str s2 -> s1 = s2
          | _ -> false)
       | _ -> false)

let test_object_keys () =
  check_in "keys in insertion order" "var o = {z: 1, a: 2}; o.m = 3;"
    (Helpers.str "z,a,m") {|Object.keys(o).join(",")|};
  check_in "Object.create" "var p = {v: 9}; var o = Object.create(p);"
    (Helpers.num 9.) "o.v"

(* ------------------------------------------------------------------ *)
(* Errors and limits *)

let test_type_errors_catchable () =
  check_in "null access throws catchable"
    "var msg = \"\"; try { null.x; } catch (e) { msg = \"caught\"; }"
    (Helpers.str "caught") "msg";
  check_in "calling a non-function"
    "var ok = false; try { (5)(); } catch (e) { ok = true; }"
    (Helpers.boolean true) "ok"

let test_stack_overflow_is_range_error () =
  check_in "infinite recursion raises catchable RangeError"
    "function f() { return f(); }\n\
     var name = \"\"; try { f(); } catch (e) { name = e.name; }"
    (Helpers.str "RangeError") "name"

let test_budget_exhausted () =
  let st = Interp.Eval.create ~budget:50_000L () in
  Interp.Builtins.install st;
  match
    Interp.Eval.run_program st
      (Jsir.Parser.parse_program "while (true) { var x = 1; }")
  with
  | exception Interp.Value.Budget_exhausted -> ()
  | () -> Alcotest.fail "expected Budget_exhausted"

(* ------------------------------------------------------------------ *)
(* Event loop *)

let test_event_loop_ordering () =
  let st, _ = Helpers.fresh_state () in
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "var order = [];\n\
        setTimeout(function() { order.push(\"late\"); }, 50);\n\
        setTimeout(function() { order.push(\"early\"); }, 10);\n\
        order.push(\"sync\");");
  ignore (Interp.Events.run_until st ~until_ms:100.);
  (* idle time advanced the clock exactly to the window edge *)
  Alcotest.(check (float 1e-6)) "total time = window" 100.
    (Ceres_util.Vclock.to_ms st.Interp.Value.clock
       (Ceres_util.Vclock.now st.Interp.Value.clock));
  match
    Interp.Eval.eval_in_global st
      (Jsir.Parser.parse_expression {|order.join(",")|})
  with
  | Str s -> Alcotest.(check string) "due order" "sync,early,late" s
  | _ -> Alcotest.fail "expected string"

let check_with_state st msg expected src =
  Alcotest.check Helpers.value_testable msg expected
    (Interp.Eval.eval_in_global st (Jsir.Parser.parse_expression src))

let test_event_loop_window () =
  let st, _ = Helpers.fresh_state () in
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "var ran = false; setTimeout(function() { ran = true; }, 500);");
  ignore (Interp.Events.run_until st ~until_ms:100.);
  check_with_state st "not yet due" (Helpers.boolean false) "ran";
  ignore (Interp.Events.run_until st ~until_ms:600.);
  check_with_state st "due in later window" (Helpers.boolean true) "ran"

let test_clear_timeout () =
  let st, _ = Helpers.fresh_state () in
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "var ran = false;\n\
        var id = setTimeout(function() { ran = true; }, 10);\n\
        clearTimeout(id);");
  ignore (Interp.Events.run_until st ~until_ms:100.);
  check_with_state st "cancelled" (Helpers.boolean false) "ran"

let test_nested_timeouts () =
  let st, _ = Helpers.fresh_state () in
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "var n = 0;\n\
        function again() { n++; if (n < 5) { setTimeout(again, 10); } }\n\
        setTimeout(again, 10);");
  ignore (Interp.Events.run_until st ~until_ms:1_000.);
  check_with_state st "chain ran to completion" (Helpers.num 5.) "n"

(* ------------------------------------------------------------------ *)
(* Hot-path semantics *)

(* The budget trips on the same tick as it always has: advance, probe,
   then compare. Calls, property reads and writes and plain nodes all
   tick, so a change to any of their costs or to the check moves the
   pinned reading. *)
let test_budget_exact_tick () =
  let st = Interp.Eval.create ~budget:5_000L () in
  Interp.Builtins.install st;
  let ticks = ref 0 in
  st.on_tick <- Some (fun _ -> incr ticks);
  let src =
    "function f(o, i) { o.x = o.x + i; return o.x; }\n\
     var o = { x: 0 };\n\
     for (var i = 0; ; i++) { f(o, i); }"
  in
  (match Interp.Eval.run_program st (Jsir.Parser.parse_program src) with
   | exception Interp.Value.Budget_exhausted -> ()
   | () -> Alcotest.fail "expected Budget_exhausted");
  Alcotest.(check int64) "busy vticks at the raise" 5001L
    (Ceres_util.Vclock.busy st.clock);
  Alcotest.(check int) "ticks probed" 4375 !ticks;
  Alcotest.(check int) "call depth unwound" 0 st.call_depth

(* Every call that enters leaves: the boundary hook runs and the depth
   drops on the exceptional path too, whether a JS exception is caught
   above a host callback or the budget escapes the whole program. A
   call's entry and its leave see the same [call_depth], so a call that
   entered and never left would leave an odd count at its depth. *)
let count_boundaries st =
  let depths = Hashtbl.create 8 in
  st.Interp.Value.on_call_boundary <-
    Some
      (fun () ->
         let d = st.Interp.Value.call_depth in
         Hashtbl.replace depths d
           (1 + Option.value ~default:0 (Hashtbl.find_opt depths d)));
  depths

let check_balanced what depths =
  Hashtbl.iter
    (fun d n ->
       Alcotest.(check int)
         (Printf.sprintf "boundaries at depth %d even (%s)" d what) 0 (n mod 2))
    depths

let boundary_total depths = Hashtbl.fold (fun _ n acc -> n + acc) depths 0

let test_call_unwinding () =
  let st, _ = Helpers.fresh_state () in
  let depths = count_boundaries st in
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "function inner(x) { if (x == 2) { throw \"boom\"; } return x; }\n\
        function middle(a) { a.forEach(function (x) { inner(x); }); }\n\
        var caught = \"\";\n\
        function outer() { try { middle([1, 2, 3]); } catch (e) { caught = e; } }\n\
        outer();");
  check_with_state st "exception caught" (Helpers.str "boom") "caught";
  Alcotest.(check int) "call depth after a caught throw" 0 st.call_depth;
  Alcotest.(check bool) "calls observed" true (boundary_total depths >= 12);
  check_balanced "throw" depths;
  let st = Interp.Eval.create ~budget:20_000L () in
  Interp.Builtins.install st;
  let depths = count_boundaries st in
  (match
     Interp.Eval.run_program st
       (Jsir.Parser.parse_program
          "function spin() { while (true) {} }\n\
           function g() { [1, 2].forEach(function () { spin(); }); }\n\
           function h() { g(); }\n\
           h();")
   with
   | exception Interp.Value.Budget_exhausted -> ()
   | () -> Alcotest.fail "expected Budget_exhausted");
  Alcotest.(check int) "call depth after the budget escaped" 0 st.call_depth;
  Alcotest.(check int) "nested calls entered and left" 10
    (boundary_total depths);
  check_balanced "budget" depths

(* The clock's counters are native ints: exact well past 2^32. *)
let test_vclock_past_2_32 () =
  let c = Ceres_util.Vclock.create () in
  let big = 1 lsl 40 in
  Ceres_util.Vclock.advance c big;
  Ceres_util.Vclock.advance c 3;
  Ceres_util.Vclock.advance_idle c (Int64.shift_left 1L 33);
  Ceres_util.Vclock.advance_idle c 5L;
  Alcotest.(check int64) "busy" 1099511627779L (Ceres_util.Vclock.busy c);
  Alcotest.(check int64) "idle" 8589934597L (Ceres_util.Vclock.idle c);
  Alcotest.(check int64) "now = busy + idle" 1108101562376L
    (Ceres_util.Vclock.now c);
  let c' = Ceres_util.Vclock.copy c in
  Ceres_util.Vclock.advance c' 1;
  Alcotest.(check int64) "copy is independent" 1099511627779L
    (Ceres_util.Vclock.busy c);
  Alcotest.(check int64) "copy advanced" 1099511627780L
    (Ceres_util.Vclock.busy c')

(* Operator semantics: every binary operator over an operand matrix,
   and ++/-- on a local and a property. The resolved (slot) run is
   pinned by its golden in [golden/dune]; the dynamic (name) path must
   print exactly what the resolved one prints. *)
let test_operator_paths_agree () =
  let src = Helpers.golden "interp/operators.js" in
  let run resolve =
    let st, _ = Helpers.fresh_state () in
    Interp.Eval.run_program ~resolve st (Jsir.Parser.parse_program src);
    List.rev st.console
  in
  Alcotest.(check (list string)) "dynamic = resolved" (run true) (run false)

(* ------------------------------------------------------------------ *)
(* Objects: shapes and inline caches *)

(* Random sequences of object operations against an association-list
   model: values and key order (for-in, Object.keys, JSON.stringify)
   must match after literal creation, add, overwrite, delete, re-add
   and growth past the shared-shape limit. Two objects go through the
   same accessor functions, so every property site sees several shapes
   in turn. *)
type obj_op =
  | Lit of int * (string * int) list
  | Put of int * string * int
  | Put_computed of int * string * int
  | Del of int * string
  | Get of int * string
  | Grow of int * int
  | For_in of int
  | Keys of int
  | Json of int

let op_keys = [ "a"; "b"; "c"; "d"; "x"; "y" ]

let gen_obj_op =
  let open QCheck.Gen in
  let key = oneofl op_keys and obj = int_bound 1 and v = int_range 0 99 in
  frequency
    [ (2, map2 (fun o kvs -> Lit (o, kvs)) obj
          (list_size (int_range 0 4) (pair key v)));
      (5, map3 (fun o k x -> Put (o, k, x)) obj key v);
      (2, map3 (fun o k x -> Put_computed (o, k, x)) obj key v);
      (3, map2 (fun o k -> Del (o, k)) obj key);
      (3, map2 (fun o k -> Get (o, k)) obj key);
      (1, map2 (fun o n -> Grow (o, n)) obj (int_range 1 40));
      (1, map (fun o -> For_in o) obj);
      (1, map (fun o -> Keys o) obj);
      (1, map (fun o -> Json o) obj) ]

let obj_prelude =
  String.concat "\n"
    (List.map
       (fun k ->
          Printf.sprintf
            "function put_%s(o, v) { o.%s = v; }\n\
             function get_%s(o) { return o.%s; }\n\
             function del_%s(o) { delete o.%s; }"
            k k k k k k)
       op_keys)
  ^ {|
function grow(o, n) { for (var i = 0; i < n; i++) { o["g" + i] = i; } }
function walk(o) { var s = ""; for (var k in o) { s += k + "=" + o[k] + ";"; } return s; }
var objs = [{}, {}];
|}

let run_obj_ops ops =
  let model = [| []; [] |] in
  let put o k v =
    model.(o) <-
      (if List.mem_assoc k model.(o) then
         List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) model.(o)
       else model.(o) @ [ (k, v) ])
  in
  let src = Buffer.create 1024 and expected = ref [] in
  let emit fmt = Printf.bprintf src fmt in
  let log e = expected := e :: !expected in
  List.iter
    (fun op ->
       match op with
       | Lit (o, kvs) ->
         let kvs =
           List.fold_left
             (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
             [] kvs
         in
         emit "objs[%d] = {%s};\n" o
           (String.concat ", "
              (List.map (fun (k, v) -> Printf.sprintf "%s: %d" k v) kvs));
         model.(o) <- kvs
       | Put (o, k, v) -> emit "put_%s(objs[%d], %d);\n" k o v; put o k v
       | Put_computed (o, k, v) -> emit "objs[%d][\"%s\"] = %d;\n" o k v; put o k v
       | Del (o, k) ->
         emit "del_%s(objs[%d]);\n" k o;
         model.(o) <- List.remove_assoc k model.(o)
       | Get (o, k) ->
         emit "console.log(get_%s(objs[%d]));\n" k o;
         log
           (match List.assoc_opt k model.(o) with
            | Some v -> string_of_int v
            | None -> "undefined")
       | Grow (o, n) ->
         emit "grow(objs[%d], %d);\n" o n;
         for i = 0 to n - 1 do put o ("g" ^ string_of_int i) i done
       | For_in o ->
         emit "console.log(walk(objs[%d]));\n" o;
         log
           (String.concat ""
              (List.map (fun (k, v) -> Printf.sprintf "%s=%d;" k v) model.(o)))
       | Keys o ->
         emit "console.log(Object.keys(objs[%d]).join(\",\"));\n" o;
         log (String.concat "," (List.map fst model.(o)))
       | Json o ->
         emit "console.log(JSON.stringify(objs[%d]));\n" o;
         log
           ("{"
            ^ String.concat ","
                (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) model.(o))
            ^ "}"))
    ops;
  (Buffer.contents src, List.rev !expected)

let prop_objects_match_model =
  QCheck.Test.make ~name:"objects match an association-list model" ~count:200
    (QCheck.make
       ~print:(fun ops -> fst (run_obj_ops ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_obj_op))
    (fun ops ->
       let src, expected = run_obj_ops ops in
       let got = Helpers.run_console (obj_prelude ^ src) in
       if got <> expected then
         QCheck.Test.fail_reportf "got:\n%s\nexpected:\n%s"
           (String.concat "\n" got) (String.concat "\n" expected)
       else true)

(* One [o.x] read site, one write site and one method-call site, fed
   two alternating shapes, a deleted key, and a prototype property
   shadowed by an own one and then uncovered again. *)
let test_inline_cache_sites () =
  let out =
    Helpers.run_console
      {|
function getx(o) { return o.x; }
function setx(o, v) { o.x = v; }
function callm(o) { return o.m(); }
function P() {}
P.prototype.x = "proto";
P.prototype.m = function () { return "pm"; };
var a = { x: 1, y: 2 };
var b = { y: 3, x: 4 };
var c = new P();
var out = [];
for (var i = 0; i < 3; i++) { out.push(getx(a), getx(b), getx(c)); }
setx(a, 10); setx(b, 20); setx(a, 11); setx(b, 21);
out.push(getx(a), getx(b));
c.x = "own"; out.push(getx(c));
c.m = function () { return "own m"; };
out.push(callm(c));
delete c.m; out.push(callm(c));
delete a.x; out.push(getx(a), getx(b));
setx(a, 12); out.push(getx(a), Object.keys(a).join(""));
delete c.x; out.push(getx(c));
P.prototype.x = "proto2"; out.push(getx(c));
var d = new P(); setx(d, 5); out.push(getx(d), getx(new P()));
console.log(out.join(","));
|}
  in
  Alcotest.(check (list string)) "every read sees the current value"
    [ "1,4,proto,1,4,proto,1,4,proto,11,21,own,own m,pm,,21,12,yx,proto,proto2,5,proto2" ]
    out;
  (* a DOM element write through a site that has cached a plain
     object's shape is still DOM traffic *)
  let st, _ = Helpers.fresh_state ~dom:true () in
  let seen = ref [] in
  st.on_host_access <- (fun cat op -> seen := (cat, op) :: !seen);
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       {|
function settitle(o, v) { o.title = v; }
var plain = { title: "" };
settitle(plain, "a"); settitle(plain, "b");
var el = document.createElement("div");
settitle(el, "c"); settitle(el, "d");
|});
  Alcotest.(check int) "both element writes reported" 2
    (List.length (List.filter (fun (c, op) -> c = "dom" && op = "set title") !seen))

(* An object grown key by key past the shared-shape limit turns into a
   dictionary of its own, and growing one to twice the keys allocates
   about twice the bytes: adds stay O(1). *)
let test_dictionary_growth () =
  let grow n =
    let before = Gc.allocated_bytes () in
    let st, _ =
      Helpers.run
        (Printf.sprintf
           {|
var o = {};
for (var i = 0; i < %d; i++) { o["k" + i] = i; }
var p = {};
for (var i = 0; i < 40; i++) { p["k" + i] = i; }
var s = 0;
for (var k in o) { s += o[k]; }
console.log(s + "," + Object.keys(o).length + "," + o.k7 + "," + o["k" + (%d - 1)]);
|}
           n n)
    in
    let bytes = Gc.allocated_bytes () -. before in
    let get name =
      match Interp.Eval.eval_in_global st (Jsir.Parser.parse_expression name) with
      | Obj o -> o
      | _ -> Alcotest.fail "not an object"
    in
    let o = get "o" and p = get "p" in
    Alcotest.(check (list string)) "sum, count and reads"
      [ Printf.sprintf "%d,%d,7,%d" (n * (n - 1) / 2) n (n - 1) ]
      (List.rev st.console);
    Alcotest.(check bool) "dictionary mode" true o.shape.dict;
    Alcotest.(check bool) "unshared" false (o.shape == p.shape);
    bytes
  in
  let b1 = grow 10_000 in
  let b2 = grow 20_000 in
  if b2 > 2.5 *. b1 then
    Alcotest.failf "20k keys allocated %.0f bytes, 10k keys %.0f: not linear" b2 b1

(* Math's one-argument functions run without an argument list when no
   call hook is set; the call-site census (which sets one) sees the same
   output and the same busy vticks. A program that replaces Math.floor
   calls its own function. *)
let test_math_direct_entries () =
  let src =
    {|
var s = 0;
for (var i = 0; i < 500; i++) {
  s += Math.floor(i / 36) + Math.sqrt(i) + Math.abs(-i) + Math.round(i / 7)
     + Math.sin(i) + Math.cos(i) + Math.exp(i / 500) + Math.log(i + 1)
     + Math.trunc(i / 3) + Math.ceil(i / 9) + Math.floor("12") + Math.floor();
}
console.log(s, Math.floor(-0.5), Math.round(2.5), Math.max(1, 2));
|}
  in
  let run ~hook =
    let st, _ = Helpers.fresh_state () in
    let cs = if hook then Some (Ceres.Callsites.attach st) else None in
    Interp.Eval.run_program st (Jsir.Parser.parse_program src);
    let calls =
      Option.map (fun t -> (Ceres.Callsites.census t).calls_total) cs
    in
    (List.rev st.console, Ceres_util.Vclock.busy st.clock, calls)
  in
  let out, busy, _ = run ~hook:false in
  let out', busy', calls = run ~hook:true in
  Alcotest.(check (list string)) "same console" out out';
  Alcotest.(check int64) "same busy vticks" busy busy';
  Alcotest.(check (option int)) "every call seen by the census" (Some 6004) calls;
  Alcotest.(check (list string)) "own Math.floor"
    [ "mine 2.5"; "3" ]
    (Helpers.run_console
       {|
Math.floor = function (x) { return "mine " + x; };
console.log(Math.floor(2.5));
var f = Math.ceil;
console.log(f(2.5));
|})

let suite =
  [ ("arithmetic", `Quick, test_arithmetic);
    ("bitwise", `Quick, test_bitwise);
    ("equality", `Quick, test_equality);
    ("truthiness", `Quick, test_truthiness);
    ("typeof", `Quick, test_typeof);
    qtest prop_abstract_eq_reflexive_numbers;
    qtest prop_abstract_eq_symmetric;
    qtest prop_to_string_number_roundtrip;
    ("var hoisting", `Quick, test_var_hoisting);
    ("closures", `Quick, test_closures);
    ("implicit globals", `Quick, test_implicit_global);
    ("named function expressions", `Quick, test_named_function_expression);
    ("prototype chain", `Quick, test_prototype_chain);
    ("this binding", `Quick, test_this_binding);
    ("delete and in", `Quick, test_delete_and_in);
    ("for-in order", `Quick, test_for_in_order);
    ("try/finally ordering", `Quick, test_try_finally_ordering);
    ("finally runs on return", `Quick, test_finally_overrides_return);
    ("exception unwinds loops", `Quick, test_exception_unwinds_loops);
    ("break/continue", `Quick, test_break_continue);
    ("labeled break/continue", `Quick, test_labeled_break_continue);
    ("switch fallthrough", `Quick, test_switch_fallthrough);
    ("update expressions", `Quick, test_update_expressions);
    ("array methods", `Quick, test_array_methods);
    qtest prop_sort_matches_ocaml;
    ("string methods", `Quick, test_string_methods);
    ("math and numbers", `Quick, test_math_and_numbers);
    ("seeded Math.random", `Quick, test_math_random_seeded);
    ("object keys", `Quick, test_object_keys);
    ("JSON.stringify", `Quick, test_json_stringify);
    ("JSON.parse", `Quick, test_json_parse);
    qtest prop_json_roundtrip;
    ("type errors catchable", `Quick, test_type_errors_catchable);
    ("stack overflow", `Quick, test_stack_overflow_is_range_error);
    ("budget exhausted", `Quick, test_budget_exhausted);
    ("budget trips on the same tick", `Quick, test_budget_exact_tick);
    ("calls unwind on every path", `Quick, test_call_unwinding);
    ("vclock exact past 2^32", `Quick, test_vclock_past_2_32);
    ("operator matrix: dynamic = resolved", `Quick,
     test_operator_paths_agree);
    ("event loop ordering", `Quick, test_event_loop_ordering);
    ("event loop window", `Quick, test_event_loop_window);
    ("clearTimeout", `Quick, test_clear_timeout);
    ("nested timeouts", `Quick, test_nested_timeouts);
    qtest prop_objects_match_model;
    ("inline caches: shapes, deletes, shadowing, DOM", `Quick,
     test_inline_cache_sites);
    ("dictionary objects grow linearly", `Quick, test_dictionary_growth);
    ("Math direct entries: hooks see the same run", `Quick,
     test_math_direct_entries) ]
