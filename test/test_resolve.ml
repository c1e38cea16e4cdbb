(* Differential tests for the front-end resolution pass: a program run
   with slot-resolved environments must be observably identical to the
   same program on the dynamic name-lookup path
   ([Interp.Eval.run_program ~resolve:false], kept for exactly this
   purpose) — same console output, same virtual-clock schedule, same
   dependence warnings. *)

let qtest = QCheck_alcotest.to_alcotest

(* Run [srcs] one program after another on one state (with the DOM, so
   [window] is the global object); a throw ends the run. *)
let run_programs ~resolve srcs =
  let st = Interp.Eval.create () in
  Interp.Builtins.install st;
  ignore (Dom.Document.install st);
  let outcome =
    try
      List.iter
        (fun src ->
           Interp.Eval.run_program ~resolve st (Jsir.Parser.parse_program src))
        srcs;
      []
    with Interp.Value.Js_throw v -> [ "THROWN " ^ Interp.Value.to_string st v ]
  in
  (List.rev st.Interp.Value.console @ outcome, Ceres_util.Vclock.busy st.clock)

let run_mode ~resolve src = run_programs ~resolve [ src ]

let check_equiv_programs msg srcs =
  let resolved, ticks_r = run_programs ~resolve:true srcs in
  let dynamic, ticks_d = run_programs ~resolve:false srcs in
  Alcotest.(check (list string)) (msg ^ ": console") dynamic resolved;
  Alcotest.(check int64) (msg ^ ": vclock") ticks_d ticks_r;
  resolved

let check_equiv msg src = ignore (check_equiv_programs msg [ src ])

(* ------------------------------------------------------------------ *)
(* Directed cases: the scoping corners where slot addressing could
   plausibly diverge from the dynamic scope walk. *)

let test_named_function_expr () =
  check_equiv "named fn expr sees itself"
    {|
var f = function fact(n) { return n < 2 ? 1 : n * fact(n - 1); };
console.log(f(6));
console.log(typeof fact);
|}

let test_catch_shadowing () =
  check_equiv "catch variable shadows"
    {|
var e = "outer";
try { throw "inner"; } catch (e) {
  console.log(e);
  e = "mutated";
  console.log(e);
}
console.log(e);
var i;
for (i = 0; i < 2; i++) {
  try { throw i; } catch (err) { console.log(err + ":" + e); }
}
|}

let test_implicit_globals () =
  check_equiv "implicit global created in a function"
    {|
function leak() { impl = 7; return impl + 1; }
console.log(typeof impl);
console.log(leak());
console.log(impl);
impl = impl * 2;
console.log(impl);
|}

let test_arguments_object () =
  check_equiv "arguments"
    {|
function h(a) { return arguments.length + "/" + arguments[0] + "/" + a; }
console.log(h(10, 2));
console.log(h());
|}

let test_typeof_and_delete () =
  check_equiv "typeof unbound, delete of globals"
    {|
console.log(typeof never_declared);
g1 = 5;
var g2 = 6;
console.log(delete g1);
console.log(typeof g1);
console.log(g2);
|}

let test_closures_and_shadowing () =
  check_equiv "closures capture frames, params shadow globals"
    {|
var x = 1;
function counter() { var n = 0; return function () { n++; return n; }; }
var c1 = counter();
var c2 = counter();
console.log(c1() + "," + c1() + "," + c2() + "," + x);
function s(x) { x = x + 1; return x; }
console.log(s(5) + "," + x);
|}

let test_hoisting () =
  check_equiv "var hoisting and redeclaration"
    {|
console.log(typeof v);
var v = 1;
function f() {
  console.log(typeof v);
  var v = 2;
  console.log(v);
}
f();
console.log(v);
var v;
console.log(v);
|}

(* A free read compiled by one program finds the global slot a later
   program on the same state attaches for the name. *)
let test_free_read_sees_later_slot () =
  let console =
    check_equiv_programs "free read, then a later var"
      [ {|
function later_or_none() { return typeof later === "undefined" ? "none" : later; }
console.log(later_or_none());
|};
        {|
var later = 5;
console.log(later_or_none());
later = later + 1;
console.log(later_or_none());
|} ]
  in
  Alcotest.(check (list string)) "the earlier program's read sees the slot"
    [ "none"; "5"; "6" ] console

(* A free read of a missing name throws the dynamic path's
   ReferenceError, with the same text. *)
let test_free_read_missing () =
  let console =
    check_equiv_programs "missing free name"
      [ {|
function get() { return missing_name; }
try { get(); } catch (err) { console.log(err); }
console.log(get());
|} ]
  in
  Alcotest.(check (list string)) "ReferenceError, caught then uncaught"
    [ "ReferenceError: missing_name is not defined";
      "THROWN ReferenceError: missing_name is not defined" ]
    console

(* ------------------------------------------------------------------ *)
(* Property: random straight-line/looping/shadowing programs agree. *)

let names = [| "a"; "b"; "c"; "d"; "e" |]

let gen_expr : string QCheck.Gen.t =
  let open QCheck.Gen in
  sized_size (int_range 0 3)
  @@ fix (fun self n ->
      let leaf =
        oneof
          [ map string_of_int (int_range 0 99); oneofa names;
            oneofl [ "\"s\""; "\"7\""; "true"; "false"; "null" ] ]
      in
      if n = 0 then leaf
      else
        let sub = self (n - 1) in
        let bin op =
          map2 (fun a b -> "(" ^ a ^ " " ^ op ^ " " ^ b ^ ")") sub sub
        in
        let compare =
          oneofl [ "<"; "<="; ">"; ">="; "=="; "!="; "==="; "!==" ] >>= bin
        in
        oneof [ leaf; bin "+"; bin "*"; bin "-"; bin "%"; compare ])

let rec gen_stmt n : string QCheck.Gen.t =
  let open QCheck.Gen in
  let assign =
    map2 (fun x e -> x ^ " = " ^ e ^ ";") (oneofa names) gen_expr
  in
  let compound =
    map2 (fun x e -> x ^ " += " ^ e ^ ";") (oneofa names) gen_expr
  in
  let update = map (fun x -> x ^ "++;") (oneofa names) in
  let redecl =
    map2 (fun x e -> "var " ^ x ^ " = " ^ e ^ ";") (oneofa names) gen_expr
  in
  (* several declarators, the last one uninitialised *)
  let multi_decl =
    map3
      (fun x e y -> "var " ^ x ^ " = " ^ e ^ ", " ^ y ^ ";")
      (oneofa names) gen_expr (oneofa names)
  in
  (* free names: host globals, implicit globals, global-object
     properties, and binders that shadow a host global *)
  let free =
    map3
      (fun x e k ->
         let g = "g" ^ string_of_int (k mod 3) in
         match k mod 6 with
         | 0 -> x ^ " = Math.floor(" ^ e ^ ") + Math.abs(-2);"
         | 1 -> x ^ " = typeof Math + typeof " ^ g ^ ";"
         | 2 ->
           "(function () { " ^ g ^ " = " ^ e ^ "; })(); " ^ x
           ^ " = (function () { return " ^ g ^ "; })();"
         | 3 ->
           "window.h = " ^ e ^ "; " ^ x ^ " = h; delete window.h; try { " ^ x
           ^ " = h; } catch (err) { " ^ x ^ " = err; }"
         | 4 ->
           "(function () { try { throw " ^ e ^ "; } catch (Math) { " ^ x
           ^ " = Math; } })();"
         | _ ->
           x ^ " = (function Math(n) { return n < 1 ? typeof Math : Math(n - 1); })(2);")
      (oneofa names) gen_expr (int_range 0 59)
  in
  let leaves = [ assign; compound; update; redecl; multi_decl; free ] in
  if n = 0 then oneof leaves
  else
    let sub = gen_stmt (n - 1) in
    let if_else =
      map3
        (fun e s1 s2 ->
           "if ((" ^ e ^ ") % 2) { " ^ s1 ^ " } else { " ^ s2 ^ " }")
        gen_expr sub sub
    in
    let for_loop =
      map2
        (fun s k ->
           let i = "i" ^ string_of_int k in
           "for (var " ^ i ^ " = 0; " ^ i ^ " < 3; " ^ i ^ "++) { " ^ s
           ^ " }")
        sub (int_range 0 9)
    in
    let fn_wrap =
      map3
        (fun x e s ->
           "(function () { var " ^ x ^ " = " ^ e ^ "; " ^ s ^ " " ^ x ^ " = "
           ^ x ^ " + 1; })();")
        (oneofa names) gen_expr sub
    in
    let for_in =
      map2
        (fun x s -> "for (var " ^ x ^ " in o) { " ^ s ^ " }")
        (oneofa names) sub
    in
    (* the catch parameter is re-declared by a [var] in its own body *)
    let catch_redecl =
      map3
        (fun x e s ->
           "try { throw " ^ e ^ "; } catch (" ^ x ^ ") { var " ^ x ^ " = "
           ^ x ^ " + 1; " ^ s ^ " }")
        (oneofa names) gen_expr sub
    in
    oneof
      (leaves @ [ if_else; for_loop; fn_wrap; for_in; catch_redecl ])

let gen_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  map
    (fun stmts ->
       "var a = 1, b = 2, c = 3, d = 4, e = 5, o = { p: 1, q: 2 };\n"
       ^ String.concat "\n" stmts
       ^ "\nconsole.log(a + \",\" + b + \",\" + c + \",\" + d + \",\" + e);")
    (list_size (int_range 1 8) (gen_stmt 2))

let prop_resolved_equals_dynamic =
  QCheck.Test.make ~name:"slot-resolved run = name-lookup run" ~count:120
    (QCheck.make ~print:(fun s -> s) gen_program)
    (fun src ->
       let resolved, ticks_r = run_mode ~resolve:true src in
       let dynamic, ticks_d = run_mode ~resolve:false src in
       resolved = dynamic && Int64.equal ticks_r ticks_d)

(* ------------------------------------------------------------------ *)
(* Acceptance: across the whole corpus, the dependence analysis must
   report byte-identical warnings whether the instrumented program runs
   slot-resolved or on the dynamic path, and the lightweight pass must
   tick the virtual clock identically. *)

let dep_report ~resolve (w : Workloads.Workload.t) =
  let ctx = Workloads.Harness.prepare ~scale:w.dep_scale w in
  let rt = Ceres.Install.dependence ctx.st ctx.infos in
  Interp.Eval.run_program ~resolve ctx.st
    (Ceres.Instrument.program Ceres.Instrument.Dependence ctx.program);
  Workloads.Harness.drive ctx w;
  List.map
    (Ceres.Report.warning_to_string ctx.infos)
    (Ceres.Runtime.warnings rt)

let test_dependence_identical_all_workloads () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
       Alcotest.(check (list string))
         (Printf.sprintf "deps warnings for %s" w.name)
         (dep_report ~resolve:false w)
         (dep_report ~resolve:true w))
    Workloads.Registry.all

let light_ticks ~resolve (w : Workloads.Workload.t) =
  let ctx = Workloads.Harness.prepare w in
  ignore (Ceres.Install.lightweight ctx.st);
  Interp.Eval.run_program ~resolve ctx.st
    (Ceres.Instrument.program Ceres.Instrument.Lightweight ctx.program);
  Workloads.Harness.drive ctx w;
  Ceres_util.Vclock.busy ctx.st.Interp.Value.clock

let test_vclock_identical_all_workloads () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
       Alcotest.(check int64)
         (Printf.sprintf "busy ticks for %s" w.name)
         (light_ticks ~resolve:false w)
         (light_ticks ~resolve:true w))
    Workloads.Registry.all

let suite =
  [ ("named function expression", `Quick, test_named_function_expr);
    ("catch shadowing", `Quick, test_catch_shadowing);
    ("implicit globals", `Quick, test_implicit_globals);
    ("arguments object", `Quick, test_arguments_object);
    ("typeof unbound / delete", `Quick, test_typeof_and_delete);
    ("closures and shadowing", `Quick, test_closures_and_shadowing);
    ("hoisting", `Quick, test_hoisting);
    qtest prop_resolved_equals_dynamic;
    ("dependence identical across corpus", `Slow,
     test_dependence_identical_all_workloads);
    ("vclock identical across corpus", `Slow,
     test_vclock_identical_all_workloads);
    ("free read sees a later program's slot", `Quick,
     test_free_read_sees_later_slot);
    ("free read of a missing name", `Quick, test_free_read_missing) ]
