(* Static loop-parallelizability analyzer: scope corner cases, effect
   summaries, footprint/subscript rules, verdict semantics, the
   proven-loop floor over the JSON reports, and the soundness
   obligation against the dynamic JS-CERES dependence analysis. *)

let qtest = QCheck_alcotest.to_alcotest

let analyze src = Analysis.Driver.analyze (Jsir.Parser.parse_program src)

(* Verdict kind of the first (or only) loop of a small program. *)
let verdict_kind ?(nth = 0) src =
  let rep = analyze src in
  match List.nth_opt rep.Analysis.Driver.rows nth with
  | Some r -> Analysis.Verdict.kind_name r.verdict
  | None -> Alcotest.fail "program has no loop"

let check_kind name expected ?nth src =
  Alcotest.(check string) name expected (verdict_kind ?nth src)

(* ------------------------------------------------------------------ *)
(* Scope resolution corner cases *)

let scope_of src = Analysis.Scope.resolve_program (Jsir.Parser.parse_program src)

let func_named scope name =
  match
    List.find_opt
      (fun (fr : Analysis.Scope.func_rec) -> fr.fname = Some name)
      (Analysis.Scope.functions scope)
  with
  | Some fr -> fr
  | None -> Alcotest.fail ("no function named " ^ name)

let test_var_hoisting_out_of_blocks () =
  (* [var] is function-scoped: declarations inside blocks, branches and
     loop bodies all hoist to the enclosing function. *)
  let scope =
    scope_of
      "function f(a) { if (a) { var h = 2; } for (var i = 0; i < 3; i++) \
       { var t = i; } { var b = 7; } return h + t + b + i; }"
  in
  let f = func_named scope "f" in
  List.iter
    (fun n ->
       match Analysis.Scope.classify scope f.fid n with
       | Analysis.Scope.Local -> ()
       | _ -> Alcotest.failf "%s should be local to f" n)
    [ "h"; "t"; "b"; "i"; "a" ]

let test_closure_capture_of_induction_var () =
  let scope =
    scope_of
      "function mk() { var fns = []; for (var i = 0; i < 3; i++) { \
       fns.push(function () { return i; }); } return fns; }"
  in
  let mk = func_named scope "mk" in
  let anon =
    match
      List.find_opt
        (fun (fr : Analysis.Scope.func_rec) ->
           fr.fname = None && fr.parent = Some mk.fid)
        (Analysis.Scope.functions scope)
    with
    | Some fr -> fr
    | None -> Alcotest.fail "no closure inside mk"
  in
  (match Analysis.Scope.classify scope anon.fid "i" with
   | Analysis.Scope.Captured owner ->
     Alcotest.(check int) "captured from mk" mk.fid owner
   | _ -> Alcotest.fail "i should be captured")

(* The scalar global writes in a function's effect summary. *)
let summary_gwrites scope fid =
  (Analysis.Effects.summary (Analysis.Effects.infer scope) fid)
    .Analysis.Effects.gwrites

let test_shadowing () =
  (* A local [var x] shadows the global of the same name: reads and
     writes inside the function must not register against the global. *)
  let scope =
    scope_of "var x = 1; function f() { var x = 2; x = x + 1; return x; }"
  in
  let f = func_named scope "f" in
  (match Analysis.Scope.classify scope f.fid "x" with
   | Analysis.Scope.Local -> ()
   | _ -> Alcotest.fail "x should be the local");
  Alcotest.(check bool) "no global x write" false
    (Analysis.Scope.RS.mem (Analysis.Scope.Rglobal "x")
       (summary_gwrites scope f.fid))

let test_delete_on_globals () =
  let scope = scope_of "var gd = 1; function f() { delete gd; }" in
  let f = func_named scope "f" in
  Alcotest.(check bool) "delete registers a global write" true
    (Analysis.Scope.RS.mem (Analysis.Scope.Rglobal "gd")
       (summary_gwrites scope f.fid));
  (* ... and in a loop it is a privatizable-class plain write, like the
     dynamic analyzer's Var_write advisory. *)
  check_kind "delete in loop" "parallel"
    "var gd = 1; for (var i = 0; i < 2; i++) { delete gd; }"

(* ------------------------------------------------------------------ *)
(* Effect summaries *)

let effects_of src =
  let scope = scope_of src in
  (scope, Analysis.Effects.infer scope)

let test_effect_fixpoint_recursion () =
  (* Mutually recursive functions: the global write in [a] must reach
     [b]'s summary through the call-graph fixpoint. *)
  let scope, fx =
    effects_of
      "var g = 0; function a(n) { if (n) { return b(n - 1); } g = g + 1; \
       return 0; } function b(n) { return a(n); }"
  in
  let b = func_named scope "b" in
  let s = Analysis.Effects.summary fx b.fid in
  Alcotest.(check bool) "b transitively writes g" true
    (Analysis.Scope.RS.mem (Analysis.Scope.Rglobal "g")
       s.Analysis.Effects.gwrites)

let test_effect_purity () =
  let scope, fx =
    effects_of "function p(x) { return Math.sin(x) + parseInt(\"4\"); }"
  in
  let p = func_named scope "p" in
  let s = Analysis.Effects.summary fx p.fid in
  Alcotest.(check bool) "Math/parseInt callers are pure" true
    ({ s with returns_shared = false; returns_params = Analysis.Effects.IS.empty }
     = Analysis.Effects.bottom)

let test_effect_io_builtin () =
  let scope, fx = effects_of "function l(x) { console.log(x); }" in
  let l = func_named scope "l" in
  Alcotest.(check bool) "console.log is I/O" true
    (Analysis.Effects.summary fx l.fid).Analysis.Effects.io

(* Effects that must travel back through callers declared before their
   callees: [a] calls [b] calls [c], and [c] writes a global and an
   element of its parameter. [b] passes [c] the result of
   [util.join(arr)]. The call itself counts as a builtin receiver read
   (its name is [Array.prototype.join]'s), so [b]'s walk reads the user
   method's summary only to learn the region of its result: the
   argument it returns, through [ident], which that summary records
   only in round 2, after [b]'s round-2 walk. So the fixpoint must
   re-walk [b] in round 3 for a summary that only a call's result
   read, then [a], then the top level. *)
let effect_chain_src =
  "var G = 0; var A = [1, 2, 3, 4];\n\
   function a(arr, i) { b(arr, i); }\n\
   function b(arr, i) { var r = util.join(arr); c(r, i); }\n\
   function c(arr, i) { G = i; arr[0] = i; }\n\
   var util = { join: function (x) { return ident(x); } };\n\
   function ident(y) { return y; }\n\
   for (var i = 0; i < 4; i++) { a(A, i); }"

let test_effect_fixpoint_chain () =
  let scope, fx = effects_of effect_chain_src in
  let summary name = Analysis.Effects.summary fx (func_named scope name).fid in
  List.iter
    (fun name ->
       let s = summary name in
       Alcotest.(check bool) (name ^ " writes G") true
         (Analysis.Scope.RS.mem (Analysis.Scope.Rglobal "G") s.gwrites);
       Alcotest.(check (list int)) (name ^ " writes its parameter 0") [ 0 ]
         (Analysis.Effects.IS.elements s.hwrite_params))
    [ "a"; "b"; "c" ];
  let join =
    List.find
      (fun (fr : Analysis.Scope.func_rec) -> fr.params = [ "x" ])
      (Analysis.Scope.functions scope)
  in
  Alcotest.(check (list int)) "util.join returns its argument" [ 0 ]
    (Analysis.Effects.IS.elements
       (Analysis.Effects.summary fx join.fid).returns_params);
  match (analyze effect_chain_src).rows with
  | [ { verdict; _ } ] ->
    Alcotest.(check string) "verdict" "sequential"
      (Analysis.Verdict.kind_name verdict);
    Alcotest.(check (list string)) "why not"
      [ "effects: callee writes shared scalar G (line 7)" ]
      (List.map
         (fun (f : Analysis.Verdict.fact) ->
            Printf.sprintf "%s: %s (line %d)" f.pass f.why f.line)
         (Analysis.Verdict.facts verdict))
  | _ -> Alcotest.fail "expected one loop"

(* ------------------------------------------------------------------ *)
(* Loop-carried dependence verdicts *)

let test_footprints () =
  check_kind "in-place elementwise" "parallel"
    "var A = [1, 2, 3, 4]; for (var i = 0; i < 4; i++) { A[i] = A[i] + 1; }";
  check_kind "stride 2 clears spread 1" "parallel"
    "var A = [1, 2, 3, 4, 5, 6, 7, 8]; for (var i = 0; i < 4; i++) { \
     A[2 * i] = A[2 * i + 1] + 1; }";
  (* A pure anti dependence: each iteration reads the slot the *next*
     one writes, so every read sees the pre-loop value — exactly what
     chunked snapshot-fork execution reproduces. Proven parallel with
     the WAR declared; the flow-dependent mirror image must not be. *)
  check_kind "shift reads the next slot" "parallel"
    "var A = [1, 2, 3, 4]; for (var i = 0; i < 3; i++) { A[i] = A[i + 1]; }";
  check_kind "shift reads the previous slot" "needs-runtime-check"
    "var A = [1, 2, 3, 4]; for (var i = 1; i < 4; i++) { A[i] = A[i - 1]; }";
  check_kind "same slot rewritten" "sequential"
    "var A = [1, 2, 3, 4]; for (var i = 0; i < 4; i++) { A[0] = i; }";
  check_kind "for-in over distinct keys" "parallel"
    "var o = { a: 1, b: 2 }; for (var k in o) { o[k] = o[k] * 2; }"

let test_reduction_recognition () =
  check_kind "sum is a reduction" "reduction"
    "var A = [1, 2, 3, 4]; var s = 0; for (var i = 0; i < 4; i++) { \
     s = s + A[i]; }";
  (match
     List.hd
       (analyze
          "var s = 0; for (var i = 0; i < 4; i++) { s += i; }")
       .Analysis.Driver.rows
   with
   | { verdict = Analysis.Verdict.Reduction _ as v; _ }
     when Analysis.Verdict.acc_names v = [ "s" ] -> ()
   | _ -> Alcotest.fail "expected reduction over s");
  (* Reading the running accumulator value makes the loop
     order-dependent: not a reduction. *)
  check_kind "stored running value" "sequential"
    "var A = [1, 2, 3, 4]; var B = [0, 0, 0, 0]; var s = 0; \
     for (var i = 0; i < 4; i++) { s = s + A[i]; B[i] = s; }";
  check_kind "scalar flow across iterations" "sequential"
    "var g = 0; var A = [1, 2, 3, 4]; for (var i = 0; i < 4; i++) { \
     A[i] = g; g = A[i] + 1; }"

let test_push_is_sequential () =
  check_kind "push mutates shared storage" "sequential"
    "var out = []; for (var i = 0; i < 4; i++) { out.push(i); }"

(* ------------------------------------------------------------------ *)
(* Loop-nest helpers *)

let test_nest_helpers () =
  let program =
    Jsir.Parser.parse_program
      "for (var i = 0; i < 2; i++) { for (var j = 0; j < 2; j++) { \
       for (var k = 0; k < 2; k++) { } } } while (0) { }"
  in
  let infos = Jsir.Loops.index program in
  Alcotest.(check bool) "k in nest of i" true
    (Jsir.Loops.in_nest infos ~root:0 2);
  Alcotest.(check bool) "while not in nest of i" false
    (Jsir.Loops.in_nest infos ~root:0 3);
  Alcotest.(check (list int)) "descendants of i" [ 0; 1; 2 ]
    (Jsir.Loops.descendants infos 0);
  Alcotest.(check (list int)) "descendants of the while" [ 3 ]
    (Jsir.Loops.descendants infos 3)

(* ------------------------------------------------------------------ *)
(* Deterministic JSON reports and the proven-loop floor *)

let test_json_deterministic () =
  let w =
    List.find
      (fun (w : Workloads.Workload.t) -> w.name = "CamanJS")
      Workloads.Registry.all
  in
  let render () =
    Analysis.Driver.to_json
      (Analysis.Driver.analyze (Jsir.Parser.parse_program w.source))
  in
  Alcotest.(check string) "byte-identical across runs" (render ())
    (render ())

(* Prover-power floor: the 12 analyze reports the golden rules capture
   keep at least 22 statically proven loops (verdict parallel or
   reduction), so an analyzer change cannot silently lose proofs. *)
let test_proven_floor () =
  let proven (w : Workloads.Workload.t) =
    let file = String.map (fun c -> if c = ' ' then '_' else c) w.name in
    let doc = Helpers.json (Helpers.golden ("analyze." ^ file ^ ".out")) in
    let verdict l =
      Option.bind (Ceres_util.Json.member "verdict" l) Ceres_util.Json.string_opt
    in
    let is_proven l = List.mem (verdict l) [ Some "parallel"; Some "reduction" ] in
    match Ceres_util.Json.member "loops" doc with
    | Some (List loops) -> List.length (List.filter is_proven loops)
    | _ -> Alcotest.failf "%s: report has no loops" w.name
  in
  let floor = 22 in
  let n = List.fold_left ( + ) 0 (List.map proven Workloads.Registry.all) in
  if n < floor then
    Alcotest.failf "%d statically proven loops, floor is %d" n floor

(* ------------------------------------------------------------------ *)
(* Cross-validation against the dynamic dependence analysis *)

let test_crossval_all_workloads () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
       List.iter
         (fun (r : Workloads.Harness.crossval_row) ->
            if not r.sound then
              Alcotest.failf "%s %s proven %s but dynamically carried: %s"
                w.name
                (Jsir.Loops.label r.loop)
                (Analysis.Verdict.to_string r.static_verdict)
                (String.concat " | " r.dynamic_carried))
         (Workloads.Harness.crossval w))
    Workloads.Registry.all

(* Soundness fuzz: random small loop bodies; whenever the static
   analyzer proves the loop, the dynamic analyzer must observe no
   inter-iteration dependence carried by it. The program is a pure
   function of the case index, so failures reproduce by index. *)

let gen_program idx =
  let r = Ceres_util.Prng.of_int (0x5eed + idx) in
  let pool =
    [| "A[i] = i + 3;";
       "A[i] = A[i] * 2;";
       "B[i] = A[i] + g;";
       "s = s + A[i];";
       "A[i + 1] = i;";
       "A[0] = i;";
       "g = A[i];";
       "var t = A[i] * 3; B[i] = t;";
       "A[2 * i] = i;";
       "C[i] = A[i] - B[i];";
       "s += C[i];";
       "B[i] = s;";
       "g = g + 1;";
       (* user-function calls: an affine index helper (template
          inlining) and a pure value callee (summary inlining) *)
       "B[ix(i)] = i;";
       "B[i] = scale2(A[i]);";
       "A[ix(i)] = A[i];";
       (* float accumulators: order-sensitive [+] (journal replay)
          and order-insensitive min/max *)
       "f = f + A[i] * 0.25;";
       "f = Math.min(f, A[i]);";
       "f = Math.max(f, C[i] - 2);";
       (* pure anti dependence: read of the slot the next iteration
          writes *)
       "A[i] = A[i + 1];"
    |]
  in
  let n = 1 + Ceres_util.Prng.int r 4 in
  let body =
    String.concat " " (List.init n (fun _ -> Ceres_util.Prng.pick r pool))
  in
  Printf.sprintf
    "function ix(k) { return k + 1; }\n\
     function scale2(v) { return v * 2; }\n\
     var A = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];\n\
     var B = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0];\n\
     var C = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0];\n\
     var s = 0; var g = 1; var f = 0.5;\n\
     for (var i = 0; i < 8; i++) { %s }\n\
     console.log(s + \"|\" + g + \"|\" + f + \"|\" + A.join(\",\") + \"|\" \
     + B.join(\",\") + \"|\" + C.join(\",\"));"
    body

let dynamic_carried_for src ~loop_id ~allowed_accums ~war_declared =
  let _, rt = Helpers.analyze src in
  Ceres.Runtime.warnings rt
  |> List.filter (fun ((w : Ceres.Runtime.warning), _) ->
      w.carrier = Some loop_id
      &&
      match w.kind with
      | Ceres.Runtime.Prop_overwrite _ | Ceres.Runtime.Prop_read _ -> true
      | Ceres.Runtime.Prop_war _ ->
        (* anti dependences are sound on a proven loop only when the
           verdict declared them (mirrors the crossval contract) *)
        not war_declared
      | Ceres.Runtime.Var_accum n -> not (List.mem n allowed_accums)
      | Ceres.Runtime.Var_write _ | Ceres.Runtime.Prop_write _
      | Ceres.Runtime.Induction_write _ ->
        false)

(* One pool for all fuzzed par≡seq replays: a fresh pool per case
   would dominate the battery's runtime. *)
let fuzz_pool = lazy (Js_parallel.Pool.create ~domains:2 ())

let run_console ?par src =
  let st, _ = Helpers.fresh_state () in
  let program = Jsir.Parser.parse_program src in
  (match par with
   | Some pe ->
     let report = Analysis.Driver.analyze program in
     Js_parallel.Par_exec.install pe st ~report
   | None -> ());
  Interp.Eval.run_program st program;
  st.Interp.Value.console

let fuzz_soundness =
  QCheck.Test.make
    ~name:"static Parallel is dynamically conflict-free and par ≡ seq"
    ~count:120
    QCheck.(make Gen.(int_bound 100_000))
    (fun idx ->
       let src = gen_program idx in
       let rep = analyze src in
       match rep.Analysis.Driver.rows with
       | [ row ] -> (
           let id = row.info.Jsir.Loops.id in
           match row.verdict with
           | Analysis.Verdict.Parallel _ | Analysis.Verdict.Reduction _ ->
             dynamic_carried_for src ~loop_id:id
               ~allowed_accums:(Analysis.Verdict.acc_names row.verdict)
               ~war_declared:(Analysis.Verdict.war_roots row.verdict <> [])
             = []
             &&
             (* every proven loop must also replay byte-identically
                under fork/merge parallel execution (poisoned
                instances fall back to the master, so equality holds
                even when the merge refuses); the gate is off, so the
                small generated loops fork instead of running
                sequentially after their probe trip *)
             let pe =
               Js_parallel.Par_exec.create ~break_even:0
                 ~mode:(Js_parallel.Par_exec.Parallel (Lazy.force fuzz_pool))
                 ~jobs:2 ()
             in
             run_console ~par:pe src = run_console src
           | Analysis.Verdict.Needs_runtime_check _
           | Analysis.Verdict.Sequential _ ->
             true)
       | _ -> false (* the generator emits exactly one loop *))

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "var hoists out of blocks" `Quick
      test_var_hoisting_out_of_blocks;
    Alcotest.test_case "closures capture induction vars" `Quick
      test_closure_capture_of_induction_var;
    Alcotest.test_case "locals shadow globals" `Quick test_shadowing;
    Alcotest.test_case "delete on globals" `Quick test_delete_on_globals;
    Alcotest.test_case "effects: recursion fixpoint" `Quick
      test_effect_fixpoint_recursion;
    Alcotest.test_case "effects: purity" `Quick test_effect_purity;
    Alcotest.test_case "effects: io builtins" `Quick test_effect_io_builtin;
    Alcotest.test_case "footprint disjointness" `Quick test_footprints;
    Alcotest.test_case "reduction recognition" `Quick
      test_reduction_recognition;
    Alcotest.test_case "push is sequential" `Quick test_push_is_sequential;
    Alcotest.test_case "loop nest helpers" `Quick test_nest_helpers;
    Alcotest.test_case "json report is deterministic" `Quick
      test_json_deterministic;
    Alcotest.test_case "proven-loop floor (analyze reports)" `Quick
      test_proven_floor;
    Alcotest.test_case "crossval: 12 workloads sound" `Slow
      test_crossval_all_workloads;
    qtest fuzz_soundness;
    Alcotest.test_case "effects: fixpoint through callees declared later"
      `Quick test_effect_fixpoint_chain ]
