(* Tests for the features layered on top of the core reproduction:
   WAR detection, the polymorphism monitor, the style census, the
   advice engine and report export. *)

(* ------------------------------------------------------------------ *)
(* WAR (anti-dependence) detection *)

let test_war_detected () =
  (* shift-left: iteration i reads slot i+1, iteration i+1 writes it *)
  let a =
    Helpers.analyze
      "var xs = [1, 2, 3, 4, 5, 6];\n\
       for (var i = 0; i < 5; i++) { xs[i] = xs[i + 1] * 2; }"
  in
  Alcotest.(check bool) "WAR reported" true
    (Helpers.has_warning a ~sub:"anti-dependent write (WAR) to property [elem]")

let test_no_war_on_disjoint () =
  let a =
    Helpers.analyze
      "var xs = [0, 0, 0, 0];\n\
       for (var i = 0; i < 4; i++) { var v = xs[i]; xs[i] = v + 1; }"
  in
  (* read and write of the same slot in the same iteration: no WAR *)
  Alcotest.(check bool) "no WAR on same-iteration RMW" false
    (Helpers.has_warning a ~sub:"anti-dependent write")

let test_war_only_has_no_flow_read () =
  (* shift-left reads run ahead of writes: the WAR is the only carried
     dependence, no iteration reads what an earlier one wrote; the
     shift-right mirror is the flow dependence the WAR must not be
     mistaken for *)
  let left =
    Helpers.analyze
      "var xs = [5, 4, 3, 2, 1, 0];\n\
       for (var i = 0; i < 5; i++) { var nxt = xs[i + 1]; xs[i] = nxt; }"
  in
  Alcotest.(check bool) "shift-left: WAR" true
    (Helpers.has_warning left ~sub:"anti-dependent write (WAR)");
  Alcotest.(check bool) "shift-left: no flow read" false
    (Helpers.has_warning left ~sub:"read of property");
  let right =
    Helpers.analyze
      "var xs = [5, 4, 3, 2, 1, 0];\n\
       for (var i = 0; i < 5; i++) { var prv = xs[i]; xs[i + 1] = prv; }"
  in
  Alcotest.(check bool) "shift-right: flow read" true
    (Helpers.has_warning right ~sub:"read of property [elem]");
  Alcotest.(check bool) "shift-right: no WAR" false
    (Helpers.has_warning right ~sub:"anti-dependent write")

(* ------------------------------------------------------------------ *)
(* Polymorphism monitor *)

let test_monomorphic_loop_has_no_poly_sites () =
  let _, rt =
    Helpers.analyze
      "var out = [];\n\
       for (var i = 0; i < 6; i++) { out[i] = i * 2; var t = i + 1; }"
  in
  Alcotest.(check int) "no polymorphic sites" 0
    (List.length (Ceres.Runtime.polymorphic_sites rt));
  Alcotest.(check bool) "sites were observed" true
    (Ceres.Runtime.monomorphic_site_count rt > 0)

let test_polymorphic_variable_detected () =
  let _, rt =
    Helpers.analyze
      "var v = 0;\n\
       for (var i = 0; i < 6; i++) { v = i % 2 === 0 ? 1 : \"one\"; }"
  in
  match Ceres.Runtime.polymorphic_sites rt with
  | [ (name, _line, tags) ] ->
    Alcotest.(check string) "the variable" "v" name;
    Alcotest.(check (list string)) "both types" [ "number"; "string" ] tags
  | other ->
    Alcotest.failf "expected one polymorphic site, got %d"
      (List.length other)

let test_undefined_null_not_polymorphic () =
  (* the paper: "we do not consider a variable polymorphic if it
     changes between defined, undefined, and null" *)
  let _, rt =
    Helpers.analyze
      "var v = 0;\n\
       for (var i = 0; i < 6; i++) { v = i % 2 === 0 ? 5 : null; v = i % 3 === 0 ? undefined : 7; }"
  in
  Alcotest.(check int) "null/undefined do not count" 0
    (List.length (Ceres.Runtime.polymorphic_sites rt))

let test_workloads_hot_loops_monomorphic () =
  (* the paper's Sec. 4.2 finding, asserted over all 12 workloads, with
     the write sites each one's loops store to: the table `bench
     polymorphism` prints *)
  let sites =
    [ ("HAAR.js", 39); ("Tear-able Cloth", 41); ("CamanJS", 18);
      ("fluidSim", 28); ("Harmony", 12); ("Ace", 16); ("MyScript", 18);
      ("Raytracing", 72); ("Normal Mapping", 25); ("sigma.js", 26);
      ("processing.js", 13); ("D3.js", 28) ]
  in
  Alcotest.(check (list string)) "every workload pinned"
    (List.map fst sites)
    (List.map
       (fun (w : Workloads.Workload.t) -> w.name)
       Workloads.Registry.all);
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let _, rt = Workloads.Harness.run_dependence w in
       let poly = List.length (Ceres.Runtime.polymorphic_sites rt) in
       Alcotest.(check int)
         (w.name ^ " has no polymorphic hot-loop variables")
         0 poly;
       Alcotest.(check int)
         (w.name ^ ": write sites observed")
         (List.assoc w.name sites)
         (Ceres.Runtime.monomorphic_site_count rt + poly))
    Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Call-site census *)

let test_callsites_monomorphic () =
  let st = Interp.Eval.create () in
  Interp.Builtins.install st;
  let monitor = Ceres.Callsites.attach st in
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "function f(x) { return x; }\n\
        for (var i = 0; i < 5; i++) { f(i); }");
  let c = Ceres.Callsites.census monitor in
  Alcotest.(check int) "one site" 1 c.sites_total;
  Alcotest.(check int) "monomorphic" 1 c.monomorphic;
  Alcotest.(check int) "non-variadic" 1 c.non_variadic;
  Alcotest.(check int) "five calls" 5 c.calls_total

let test_callsites_polymorphic () =
  let st = Interp.Eval.create () in
  Interp.Builtins.install st;
  let monitor = Ceres.Callsites.attach st in
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "function a() { return 1; }\n\
        function b() { return 2; }\n\
        var f;\n\
        for (var i = 0; i < 4; i++) { f = i % 2 === 0 ? a : b; f(); }");
  let c = Ceres.Callsites.census monitor in
  Alcotest.(check int) "one site" 1 c.sites_total;
  Alcotest.(check int) "two callees: not monomorphic" 0 c.monomorphic;
  Alcotest.(check int) "one arity" 1 c.non_variadic;
  Alcotest.(check int) "four calls" 4 c.calls_total

let test_callsites_variadic () =
  let st = Interp.Eval.create () in
  Interp.Builtins.install st;
  let monitor = Ceres.Callsites.attach st in
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "function f() { return arguments.length; }\n\
        var g = f;\n\
        for (var i = 0; i < 3; i++) { i === 0 ? g(1) : g(1, 2); }");
  Alcotest.(check bool) "variadic site detected" true
    ((Ceres.Callsites.census monitor).non_variadic
     < (Ceres.Callsites.census monitor).sites_total)

(* ------------------------------------------------------------------ *)
(* Style census *)

let test_style_census_counts () =
  let c =
    Ceres.Style.census
      (Jsir.Parser.parse_program
         "var xs = [1, 2, 3].map(function(x) { return x * 2; });\n\
          xs.forEach(function(x) { t += x; });\n\
          var t = 0;\n\
          for (var i = 0; i < 3; i++) { while (false) {} }\n\
          function helper(a) { return a.filter(function(v) { return v; }); }")
  in
  Alcotest.(check int) "loops" 2 c.loops;
  Alcotest.(check int) "operator calls" 3 c.operator_calls;
  Alcotest.(check int) "functions" 4 c.function_count;
  Alcotest.(check bool) "map counted" true
    (List.mem_assoc "map" c.per_operator)

let test_style_imperative_dominance () =
  (* the paper's Sec. 5.5 observation over the case-study corpus *)
  let loops, ops =
    List.fold_left
      (fun (l, o) (w : Workloads.Workload.t) ->
         let c = Ceres.Style.census (Jsir.Parser.parse_program w.source) in
         (l + c.loops, o + c.operator_calls))
      (0, 0) Workloads.Registry.all
  in
  Alcotest.(check bool) "imperative loops dominate" true (loops > 3 * ops);
  Alcotest.(check bool) "but functional operators do appear" true (ops > 0)

(* ------------------------------------------------------------------ *)
(* Advice engine *)

let advice_for src =
  let _, rt = Helpers.analyze src in
  Ceres.Advice.for_nest rt ~root:0 ~dom_accesses:0

let has_rec recs pred = List.exists pred recs

let test_advice_clean_loop () =
  let recs =
    advice_for "var out = [];\nfor (var i = 0; i < 6; i++) { out[i] = i; }"
  in
  Alcotest.(check bool) "already parallel" true
    (has_rec recs (function
         | Ceres.Advice.Already_parallel -> true
         | _ -> false))

let test_advice_reduction () =
  let recs =
    advice_for "var s = 0;\nfor (var i = 0; i < 6; i++) { s += i; }"
  in
  Alcotest.(check bool) "reduce s" true
    (has_rec recs (function
         | Ceres.Advice.Reduce "s" -> true
         | _ -> false))

let test_advice_serial_chain () =
  let recs =
    advice_for
      "var xs = [1];\nfor (var i = 1; i < 8; i++) { xs[i] = xs[i - 1] * 2; }"
  in
  Alcotest.(check bool) "serial chain named" true
    (has_rec recs (function
         | Ceres.Advice.Serial_chain _ -> true
         | _ -> false))

let test_advice_dom_hoist () =
  let _, rt =
    Helpers.analyze
      "var el = document.createElement(\"div\");\n\
       for (var i = 0; i < 4; i++) { el.setAttribute(\"n\", \"\" + i); }"
  in
  let recs = Ceres.Advice.for_nest rt ~root:0 ~dom_accesses:4 in
  Alcotest.(check bool) "hoist advice ranked first" true
    (match recs with
     | Ceres.Advice.Hoist_dom 4 :: _ -> true
     | Ceres.Advice.Serial_chain _ :: Ceres.Advice.Hoist_dom 4 :: _ -> true
     | _ -> false)

let test_advice_rendering () =
  let text =
    Ceres.Advice.render ~label:"for(line 1)"
      [ Ceres.Advice.Reduce "sum"; Ceres.Advice.Privatize "t" ]
  in
  Alcotest.(check bool) "numbered list" true
    (Helpers.contains ~sub:"1. rewrite the accumulation" text
     && Helpers.contains ~sub:"2. privatize variable 't'" text)

(* ------------------------------------------------------------------ *)
(* Report export *)

let test_export_writes_markdown () =
  let dir = Filename.temp_file "jsceres" "reports" in
  Sys.remove dir;
  let path =
    Ceres.Export.write_report ~dir ~name:"My App / v2"
      ~sections:
        [ ("Summary", `Text "all good");
          ("Warnings", `Code "warning: none\n") ]
  in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "name sanitised" true
    (Helpers.contains ~sub:"My-App---v2.md" path);
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool) "has title" true
    (Helpers.contains ~sub:"# JS-CERES report: My App / v2" content);
  Alcotest.(check bool) "has fenced code" true
    (Helpers.contains ~sub:"```\nwarning: none\n```" content);
  Sys.remove path;
  Sys.rmdir dir

let test_export_full_workload_report () =
  let dir = Filename.temp_file "jsceres" "wreport" in
  Sys.remove dir;
  let w = Option.get (Workloads.Registry.find "MyScript") in
  let path = Workloads.Harness.export_report ~dir w in
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool) "timing section" true
    (Helpers.contains ~sub:"Timing (Sec 3.1)" content);
  Alcotest.(check bool) "loop profile section" true
    (Helpers.contains ~sub:"loop profile" content);
  Alcotest.(check bool) "advice section" true
    (Helpers.contains ~sub:"parallelization advice" content);
  Sys.remove path;
  Sys.rmdir dir

let suite =
  [ ("WAR detected", `Quick, test_war_detected);
    ("no WAR on same-iteration RMW", `Quick, test_no_war_on_disjoint);
    ("WAR-only loop has no flow read", `Quick, test_war_only_has_no_flow_read);
    ("monomorphic loop clean", `Quick, test_monomorphic_loop_has_no_poly_sites);
    ("polymorphic variable detected", `Quick, test_polymorphic_variable_detected);
    ("undefined/null excluded", `Quick, test_undefined_null_not_polymorphic);
    ("12 workloads monomorphic (Sec 4.2)", `Slow, test_workloads_hot_loops_monomorphic);
    ("callsites: monomorphic", `Quick, test_callsites_monomorphic);
    ("callsites: polymorphic", `Quick, test_callsites_polymorphic);
    ("callsites: variadic", `Quick, test_callsites_variadic);
    ("style census counts", `Quick, test_style_census_counts);
    ("style imperative dominance", `Slow, test_style_imperative_dominance);
    ("advice: clean loop", `Quick, test_advice_clean_loop);
    ("advice: reduction", `Quick, test_advice_reduction);
    ("advice: serial chain", `Quick, test_advice_serial_chain);
    ("advice: DOM hoist", `Quick, test_advice_dom_hoist);
    ("advice: rendering", `Quick, test_advice_rendering);
    ("export: markdown", `Quick, test_export_writes_markdown);
    ("export: full workload report", `Slow, test_export_full_workload_report) ]
