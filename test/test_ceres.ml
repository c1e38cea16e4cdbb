(* JS-CERES core: characterization triples, the three instrumentation
   modes, the dependence runtime, classification heuristics and report
   rendering. *)

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Triple.characterize unit tests (pure) *)

let mark loop instance iteration : Ceres.Triple.mark =
  { loop; instance; iteration }

let characterize ?(prev = fun _ -> 0) stamp_marks stamp_seq current =
  Ceres.Triple.characterize ~prev_entry_seq:prev
    { Ceres.Triple.marks = Array.of_list stamp_marks; seq = stamp_seq }
    current

let flags_of c = List.map (fun (l : Ceres.Triple.level) -> l.flags) c

let test_triple_same_iteration () =
  let c =
    characterize [ mark 0 1 3 ] 10 [ mark 0 1 3 ]
  in
  Alcotest.(check bool) "ok ok" true (flags_of c = [ Ceres.Triple.Ok_ok ])

let test_triple_different_iteration () =
  let c = characterize [ mark 0 1 2 ] 10 [ mark 0 1 5 ] in
  Alcotest.(check bool) "ok dependence" true
    (flags_of c = [ Ceres.Triple.Ok_dep ]);
  Alcotest.(check bool) "aligned carrier" true
    (Ceres.Triple.iteration_carrier c = Some 0)

let test_triple_different_instance () =
  let c = characterize [ mark 0 1 2 ] 10 [ mark 0 4 2 ] in
  Alcotest.(check bool) "dependence dependence" true
    (flags_of c = [ Ceres.Triple.Dep_dep ]);
  (* cross-instance sharing does not carry iterations *)
  Alcotest.(check (option int)) "no iteration carrier" None
    (Ceres.Triple.iteration_carrier c)

let test_triple_nbody_shape () =
  (* the paper's p variable: scope created under [while] only, access
     under [while; for]; the for's previous instance predates the
     creation -> "ok ok -> ok dependence" *)
  let c =
    characterize ~prev:(fun _ -> 3) [ mark 1 1 4 ] 100
      [ mark 1 1 4; mark 0 7 2 ]
  in
  Alcotest.(check bool) "while ok ok -> for ok dependence" true
    (flags_of c = [ Ceres.Triple.Ok_ok; Ceres.Triple.Ok_dep ])

let test_triple_fresh_instance_is_private () =
  (* location created before the loop's FIRST instance after creation:
     instance flag stays ok; but if a previous instance began after the
     creation, it is shared -> Dep_dep *)
  let shared =
    characterize ~prev:(fun _ -> 200) [] 100 [ mark 0 9 1 ]
  in
  Alcotest.(check bool) "prior instance after creation -> dep dep" true
    (flags_of shared = [ Ceres.Triple.Dep_dep ]);
  let private_ =
    characterize ~prev:(fun _ -> 50) [] 100 [ mark 0 9 1 ]
  in
  Alcotest.(check bool) "first instance since creation -> ok dep" true
    (flags_of private_ = [ Ceres.Triple.Ok_dep ])

let test_triple_poisoning () =
  (* outer iteration mismatch poisons the inner levels to dep dep *)
  let c =
    characterize ~prev:(fun _ -> 0) [ mark 1 1 2; mark 0 3 4 ] 100
      [ mark 1 1 9; mark 0 8 1 ]
  in
  Alcotest.(check bool) "outer ok dep, inner dep dep" true
    (flags_of c = [ Ceres.Triple.Ok_dep; Ceres.Triple.Dep_dep ])

(* (stamp marks, current marks, stamp seq) over four loops; the
   previous-instance entry of loop [l] is [prev_of l]. *)
let characterization_gen =
  QCheck.Gen.(
    let mark_g =
      map3 (fun l i k -> mark l i k) (int_range 0 3) (int_range 1 4)
        (int_range 0 4)
    in
    triple
      (list_size (int_range 0 4) mark_g)
      (list_size (int_range 0 4) mark_g)
      (int_range 0 200))

let prev_of l = (l * 37) mod 150

(* Property: the paper's invalid combination "dependence ok" can never
   be produced, and flags only degrade inward (ok ok cannot follow a
   non-ok level). *)
let prop_characterization_wellformed =
  QCheck.Test.make ~name:"characterizations are monotone inward" ~count:500
    (QCheck.make characterization_gen) (fun (stamp, current, seq) ->
        let c = characterize ~prev:prev_of stamp seq current in
        List.length c = List.length current
        &&
        let rec monotone seen_dep = function
          | [] -> true
          | (l : Ceres.Triple.level) :: rest ->
            (match l.flags with
             | Ceres.Triple.Ok_ok -> (not seen_dep) && monotone false rest
             | Ceres.Triple.Ok_dep -> monotone true rest
             | Ceres.Triple.Dep_dep -> monotone true rest)
        in
        monotone false c)

(* Mirror law: the runtime's packed scan code decodes to exactly the
   list-based characterization, level by level, and to its two
   carriers. *)
let prop_scan_mirrors_characterize =
  let flat marks =
    Array.concat
      (List.map
         (fun (m : Ceres.Triple.mark) -> [| m.loop; m.instance; m.iteration |])
         marks)
  in
  let loop_opt l = if l < 0 then None else Some l in
  QCheck.Test.make ~name:"scan code decodes to characterize" ~count:1000
    (QCheck.make characterization_gen) (fun (stamp, current, seq) ->
        let c = characterize ~prev:prev_of stamp seq current in
        let cur = flat current and depth = List.length current in
        let code =
          Ceres.Runtime.scan ~cur ~depth ~prev_entry:(Array.init 4 prev_of)
            (flat stamp) seq
        in
        Ceres.Runtime.characterization_of_code ~cur ~depth code = c
        && loop_opt (Ceres.Runtime.iteration_carrier_of_code ~cur code)
           = Ceres.Triple.iteration_carrier c
        && loop_opt (Ceres.Runtime.sharing_carrier_of_code ~cur code)
           = Ceres.Triple.sharing_carrier c)

(* ------------------------------------------------------------------ *)
(* Instrumenter structure *)

let test_instrument_preserves_semantics () =
  (* The observable behaviour (console output) of an instrumented
     program equals the original, in every mode. *)
  let src =
    "var total = 0;\n\
     function addRange(n) {\n\
    \  var s = 0;\n\
    \  for (var i = 0; i < n; i++) { s += i; }\n\
    \  return s;\n\
     }\n\
     var k = 0;\n\
     while (k < 4) { total += addRange(k * 3); k++; }\n\
     do { total -= 1; } while (false);\n\
     var o = {count: 0};\n\
     for (var key in o) { total += 100; }\n\
     try { for (var j = 0; ; j++) { if (j > 2) { throw \"stop\"; } total++; } }\n\
     catch (e) { total += 1000; }\n\
     grid: for (var g = 0; g < 3; g++) {\n\
       for (var h = 0; h < 3; h++) { if (h === g) { continue grid; } total += 7; if (total > 2000) { break grid; } }\n\
     }\n\
     console.log(\"total\", total);"
  in
  let program = Jsir.Parser.parse_program src in
  let run_mode mode =
    let st, _ = Helpers.fresh_state () in
    (match mode with
     | None -> Interp.Eval.run_program st program
     | Some m ->
       (match m with
        | Ceres.Instrument.Lightweight -> ignore (Ceres.Install.lightweight st)
        | Ceres.Instrument.Loop_profile ->
          ignore (Ceres.Install.loop_profile st (Jsir.Loops.index program))
        | Ceres.Instrument.Dependence ->
          ignore (Ceres.Install.dependence st (Jsir.Loops.index program)));
       Interp.Eval.run_program st (Ceres.Instrument.program m program));
    List.rev st.Interp.Value.console
  in
  let expected = run_mode None in
  List.iter
    (fun (m, name) ->
       Alcotest.(check (list string))
         (name ^ " preserves output")
         expected (run_mode (Some m)))
    [ (Ceres.Instrument.Lightweight, "lightweight");
      (Ceres.Instrument.Loop_profile, "loop-profile");
      (Ceres.Instrument.Dependence, "dependence") ]

(* Intrinsic handlers are looked up when a program is compiled, but a
   missing one only fails where its node runs: an instrumented program
   with no handlers installed compiles and runs as long as it never
   reaches an intrinsic, and reaching one raises the catchable
   TypeError "unknown intrinsic <name>". *)
let test_intrinsic_lookup_stays_lazy () =
  let src =
    "function never() { for (var i = 0; i < 2; i++) { } }\n\
     var ok = 1;"
  in
  let program = Jsir.Parser.parse_program src in
  let st, _ = Helpers.fresh_state () in
  Interp.Eval.run_program st
    (Ceres.Instrument.program Ceres.Instrument.Loop_profile program);
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "try { never(); console.log(\"ran\"); }\n\
        catch (e) { console.log(e.name + \": \" + e.message); }");
  Alcotest.(check (list string)) "the call raises a catchable TypeError"
    [ "TypeError: unknown intrinsic __ceres_loop_enter" ]
    (List.rev st.Interp.Value.console)

let test_instrument_balances_loop_events () =
  (* enter/exit stay balanced across break, return, and exceptions:
     after the run, the lightweight open-loop counter must be zero,
     which in_loops_ms relies on. *)
  let src =
    "function f() { for (var i = 0; ; i++) { if (i > 1) { return i; } } }\n\
     f();\n\
     while (true) { break; }\n\
     try { while (true) { throw 1; } } catch (e) {}"
  in
  let program = Jsir.Parser.parse_program src in
  let st, _ = Helpers.fresh_state () in
  let lw = Ceres.Install.lightweight st in
  Interp.Eval.run_program st
    (Ceres.Instrument.program Ceres.Instrument.Lightweight program);
  (* in_loops_ms would keep growing if a loop were left open; compare
     two reads with no execution in between *)
  let a = Ceres.Lightweight.in_loops_ms lw in
  Ceres_util.Vclock.advance st.Interp.Value.clock 30_000;
  let b = Ceres.Lightweight.in_loops_ms lw in
  Alcotest.(check (float 1e-9)) "loop timer closed" a b;
  Alcotest.(check int) "three top-level loop entries" 3
    (Ceres.Lightweight.toplevel_entries lw)

let test_instrumented_program_prints_and_reparses () =
  let src = "for (var i = 0; i < 3; i++) { x = i; }" in
  let program = Jsir.Parser.parse_program src in
  let instrumented =
    Ceres.Instrument.program Ceres.Instrument.Dependence program
  in
  let printed = Jsir.Printer.program_to_string instrumented in
  Alcotest.(check bool) "mentions the intrinsics" true
    (Helpers.contains ~sub:"__ceres_loop_enter" printed);
  (* intrinsics print as calls, so the printed text still parses *)
  match Jsir.Parser.parse_program printed with
  | _ -> ()
  | exception Jsir.Parser.Parse_error _ ->
    Alcotest.fail "instrumented source did not reparse"

(* ------------------------------------------------------------------ *)
(* Lightweight mode *)

let test_lightweight_no_double_counting () =
  (* nested loops must not be counted twice: a nested-loop program and
     its flattened equivalent with the same busy time report the same
     loop time (within instrumentation noise). *)
  let run src =
    let st, _ = Helpers.fresh_state () in
    let lw = Ceres.Install.lightweight st in
    Interp.Eval.run_program st
      (Ceres.Instrument.program Ceres.Instrument.Lightweight
         (Jsir.Parser.parse_program src));
    let busy =
      Ceres_util.Vclock.to_ms st.Interp.Value.clock
        (Ceres_util.Vclock.busy st.Interp.Value.clock)
    in
    (Ceres.Lightweight.in_loops_ms lw, busy)
  in
  let loops_ms, busy = run
      "var x = 0; for (var i = 0; i < 50; i++) { for (var j = 0; j < 50; j++) { x += i * j; } }"
  in
  Alcotest.(check bool) "loop time <= busy time" true (loops_ms <= busy);
  Alcotest.(check bool) "most busy time is in loops" true
    (loops_ms > 0.9 *. busy)

let test_lightweight_excludes_non_loop_time () =
  let st, _ = Helpers.fresh_state () in
  let lw = Ceres.Install.lightweight st in
  Interp.Eval.run_program st
    (Ceres.Instrument.program Ceres.Instrument.Lightweight
       (Jsir.Parser.parse_program
          "function noloop(n) { return n * 2 + 1; }\n\
           var a = 0;\n\
           var i = 0;\n\
           a = noloop(1) + noloop(2) + noloop(3);"));
  Alcotest.(check (float 1e-9)) "no loops, no loop time" 0.
    (Ceres.Lightweight.in_loops_ms lw)

(* ------------------------------------------------------------------ *)
(* Loop-profiling mode *)

let test_loop_profile_statistics () =
  let src =
    "for (var r = 0; r < 4; r++) {\n\
    \  for (var i = 0; i < 10 + r; i++) { var x = i * 2; }\n\
     }"
  in
  let program = Jsir.Parser.parse_program src in
  let st, _ = Helpers.fresh_state () in
  let infos = Jsir.Loops.index program in
  let lp = Ceres.Install.loop_profile st infos in
  Interp.Eval.run_program st
    (Ceres.Instrument.program Ceres.Instrument.Loop_profile program);
  let outer = Ceres.Loop_profile.stats lp 0 in
  let inner = Ceres.Loop_profile.stats lp 1 in
  Alcotest.(check int) "outer one instance" 1
    (Ceres_util.Welford.count outer.time);
  Alcotest.(check (float 1e-9)) "outer trips" 4.
    (Ceres_util.Welford.mean outer.trips);
  Alcotest.(check int) "inner four instances" 4
    (Ceres_util.Welford.count inner.time);
  Alcotest.(check (float 1e-9)) "inner mean trips" 11.5
    (Ceres_util.Welford.mean inner.trips);
  Alcotest.(check bool) "inner trip variance > 0" true
    (Ceres_util.Welford.variance inner.trips > 0.);
  (* hottest root is the outer loop, covering everything *)
  (match Ceres.Loop_profile.hottest_roots lp infos with
   | (s : Ceres.Loop_profile.loop_stats) :: _ ->
     Alcotest.(check int) "outer is hottest root" 0 s.id
   | [] -> Alcotest.fail "no roots measured")

(* Loop time is counted once (paper Sec. 3.1): the loop in [work] is a
   syntactic root of its own, but it only runs inside the outer loop,
   so the root-loop total is the outer loop's time alone. *)
let test_loop_profile_counts_time_once () =
  let src =
    "function work(n) { var s = 0; for (var j = 0; j < n; j++) { s += j; } \
     return s; }\n\
     for (var i = 0; i < 5; i++) { work(20); }"
  in
  let program = Jsir.Parser.parse_program src in
  let st, _ = Helpers.fresh_state () in
  let infos = Jsir.Loops.index program in
  let lp = Ceres.Install.loop_profile st infos in
  Interp.Eval.run_program st
    (Ceres.Instrument.program Ceres.Instrument.Loop_profile program);
  let time id =
    Ceres_util.Welford.total (Ceres.Loop_profile.stats lp id).time
  in
  let inner, outer = (0, 1) in
  Alcotest.(check int) "both loops are roots" 2
    (List.length (Jsir.Loops.roots infos));
  Alcotest.(check bool) "the called loop ran" true (time inner > 0.);
  Alcotest.(check (float 1e-9)) "total = outer loop's time" (time outer)
    (Ceres.Loop_profile.total_root_time_ms lp infos)

(* ------------------------------------------------------------------ *)
(* Dependence runtime on small programs *)

let test_dep_scatter_writes_are_not_flow () =
  let a =
    Helpers.analyze
      "var out = [];\n\
       for (var i = 0; i < 10; i++) { out[i] = i * 2; }"
  in
  Alcotest.(check bool) "reports shared-object writes" true
    (Helpers.has_warning a ~sub:"write to property [elem]");
  Alcotest.(check bool) "no flow reads" false
    (Helpers.has_warning a ~sub:"read of property");
  Alcotest.(check bool) "no WAW" false
    (Helpers.has_warning a ~sub:"repeated write")

let test_dep_prefix_sum_is_flow () =
  let a =
    Helpers.analyze
      "var out = [0];\n\
       for (var i = 1; i < 10; i++) { out[i] = out[i - 1] + i; }"
  in
  Alcotest.(check bool) "flow read reported" true
    (Helpers.has_warning a ~sub:"read of property [elem]")

let test_dep_accumulator_is_waw_and_flow () =
  let a =
    Helpers.analyze
      "var acc = {sum: 0};\n\
       for (var i = 0; i < 5; i++) { acc.sum = acc.sum + i; }"
  in
  Alcotest.(check bool) "WAW on sum" true
    (Helpers.has_warning a ~sub:"repeated write (WAW) to property sum");
  Alcotest.(check bool) "flow on sum" true
    (Helpers.has_warning a ~sub:"read of property sum")

let test_dep_induction_separated () =
  let a =
    Helpers.analyze "for (var i = 0; i < 5; i++) { var t = i; }"
  in
  Alcotest.(check bool) "induction kind" true
    (Helpers.has_warning a ~sub:"write to induction variable i");
  Alcotest.(check bool) "loop-local temp reported as plain write" true
    (Helpers.has_warning a ~sub:"write to variable t")

let test_dep_extraction_silences_binding_warnings () =
  (* The paper's Sec 3.3 claim: "if the body of the loop would be
     extracted into a separate function, or the loop would be expressed
     as a forEach operation, the accesses to the properties of p would
     [become ok ok and] not be reported". A [var]-scoped receiver is
     shared across iterations, so the write IS reported; moving the
     body into a function gives each iteration a private binding and
     the warning disappears. *)
  let shared =
    Helpers.analyze
      "var sink = 0;\n\
       for (var i = 0; i < 5; i++) {\n\
      \  var o = {v: i};\n\
      \  o.v = o.v * 2;\n\
      \  sink += o.v;\n\
       }"
  in
  Alcotest.(check bool) "var-scoped receiver is reported" true
    (Helpers.has_warning shared ~sub:"write to property v");
  let extracted =
    Helpers.analyze
      "var sink = 0;\n\
       function body(i) {\n\
      \  var o = {v: i};\n\
      \  o.v = o.v * 2;\n\
      \  return o.v;\n\
       }\n\
       for (var i = 0; i < 5; i++) { sink += body(i); }"
  in
  Alcotest.(check bool) "per-call binding is not reported" false
    (Helpers.has_warning extracted ~sub:"write to property v")

let test_dep_compound_temp_not_accumulator () =
  let a =
    Helpers.analyze
      "for (var i = 0; i < 6; i++) { var d = i + 1; d /= 2; }"
  in
  Alcotest.(check bool) "d is a plain temporary" true
    (Helpers.has_warning a ~sub:"write to variable d");
  Alcotest.(check bool) "d is not an accumulator" false
    (Helpers.has_warning a ~sub:"accumulating write to variable d")

let test_dep_true_accumulator_detected () =
  let a =
    Helpers.analyze "var s = 0; for (var i = 0; i < 6; i++) { s += i; }"
  in
  Alcotest.(check bool) "s is an accumulator" true
    (Helpers.has_warning a ~sub:"accumulating write to variable s")

let test_dep_function_locals_are_private () =
  let a =
    Helpers.analyze
      "function work(k) { var local = k * 2; local += 1; return local; }\n\
       var out = [];\n\
       for (var i = 0; i < 6; i++) { out[i] = work(i); }"
  in
  Alcotest.(check bool) "locals of per-iteration calls are clean" false
    (Helpers.has_warning a ~sub:"variable local")

let test_dep_recursion_guard () =
  let infos, rt =
    Helpers.analyze
      "function walk(n) {\n\
      \  for (var i = 0; i < 2; i++) { if (n > 0) { walk(n - 1); } }\n\
       }\n\
       walk(3);"
  in
  ignore infos;
  Alcotest.(check bool) "recursive loop re-entry detected" true
    (Ceres.Runtime.recursion_warnings rt > 0);
  Alcotest.(check bool) "loop tainted" true (Ceres.Runtime.is_tainted rt 0)

let test_dep_focus_restricts_recording () =
  let src =
    "var a = [0]; var b = [0];\n\
     for (var i = 1; i < 5; i++) { a[i] = a[i - 1] + 1; }\n\
     for (var j = 1; j < 5; j++) { b[j] = b[j - 1] + 1; }"
  in
  let session focus =
    let st, _ = Helpers.fresh_state ~dom:true () in
    let program = Jsir.Parser.parse_program src in
    let infos = Jsir.Loops.index program in
    let rt = Ceres.Install.dependence ~focus st infos in
    Interp.Eval.run_program st
      (Ceres.Instrument.program Ceres.Instrument.Dependence program);
    rt
  in
  (* focus on the second loop (id 1) only *)
  let lines =
    Ceres.Runtime.warnings (session [ 1 ])
    |> List.map (fun ((w : Ceres.Runtime.warning), _) -> w.line)
  in
  Alcotest.(check bool) "focused loop recorded" true (List.mem 3 lines);
  Alcotest.(check bool) "unfocused loop ignored" false (List.mem 2 lines);
  Alcotest.(check int) "an empty focus records nothing" 0
    (Ceres.Runtime.accesses_checked (session []))

(* Under dependence analysis, element accesses on a dense, untagged
   array go by the index symbol instead of a key string. The shortcut
   must change neither what the program prints nor what it costs: in-
   and out-of-range reads (the latter through the prototype chain),
   holes, writes past [length], non-index keys that look numeric, a
   string receiver and compound updates. The dependence session's busy
   vticks are the count the string-keyed handlers charged. *)
let test_dep_index_fast_path_parity () =
  let src =
    "var a = [10, 20, 30];\n\
     a[5] = 60;\n\
     Array.prototype[7] = \"proto\";\n\
     var seen = [];\n\
     for (var i = 0; i < 9; i++) {\n\
     \  seen.push(String(a[i]));\n\
     }\n\
     console.log(seen.join(\",\"), a.length);\n\
     var s = \"abc\";\n\
     for (var j = 0; j < 3; j++) {\n\
     \  a[a.length + j] = j;\n\
     \  a[\"-0\"] = j;\n\
     \  a[\"01\"] = j * 2;\n\
     \  console.log(a[\"-0\"], a[\"01\"], a[\"length\"], a[-0], a[\"2\"]);\n\
     \  console.log(s[j], s[j + 3], s[\"length\"]);\n\
     \  ++a[j];\n\
     \  a[j] += 2;\n\
     \  a[j]--;\n\
     \  a[j + 1] *= 3;\n\
     \  console.log(a[j], a[j + 1]++, a.length);\n\
     }\n\
     console.log(a.join(\",\"), a.length, a[\"-0\"], a[\"01\"]);"
  in
  let program = Jsir.Parser.parse_program src in
  let run dep =
    let st = Interp.Eval.create () in
    Interp.Builtins.install st;
    if dep then begin
      ignore (Ceres.Install.dependence st (Jsir.Loops.index program));
      Interp.Eval.run_program st
        (Ceres.Instrument.program Ceres.Instrument.Dependence program)
    end
    else Interp.Eval.run_program st program;
    ( List.rev st.Interp.Value.console,
      Int64.to_int (Ceres_util.Vclock.busy st.Interp.Value.clock) )
  in
  let plain_out, plain_ticks = run false in
  let dep_out, dep_ticks = run true in
  Alcotest.(check (list string)) "same console output" plain_out dep_out;
  Alcotest.(check string) "out-of-range read reaches the prototype"
    "10,20,30,undefined,undefined,60,undefined,proto,undefined 6"
    (List.hd plain_out);
  Alcotest.(check int) "plain busy vticks" 682 plain_ticks;
  Alcotest.(check int) "dependence busy vticks" 975 dep_ticks

(* Instrumented member sites run on inline caches, as the plain [o.f]
   sites do: a dependence session must print what a plain run prints,
   and charge the vticks and check the accesses the string-keyed
   member path did (the pinned counts were measured on it). The
   loop's sites see own, prototype and missing keys, several shapes,
   dictionaries (after a [delete] and past 32 keys), property adds and
   overwrites, a compound write of an inherited key, a DOM element
   write (still a host access), a string method and a direct numeric
   builtin. *)
let test_dep_member_cache_parity () =
  let src =
    "function Pt(x) { this.x = x; }\n\
     Pt.prototype.norm = function () { return this.x * 2; };\n\
     Pt.prototype.kind = \"pt\";\n\
     var d = { a: 1, b: 2, x: 9 };\n\
     delete d.a;\n\
     var big = {};\n\
     for (var k = 0; k < 40; k++) { big[\"k\" + k] = k; }\n\
     big.x = 11;\n\
     var pts = [new Pt(1), new Pt(2),\n\
     \  { x: 3, norm: function () { return -this.x; } }, { y: 4, x: 5 }, d, big];\n\
     var el = document.createElement(\"div\");\n\
     var out = [];\n\
     for (var i = 0; i < pts.length; i++) {\n\
     \  var p = pts[i];\n\
     \  p.x = p.x + 1;\n\
     \  p.x += 2;\n\
     \  p.x++;\n\
     \  p.seen = i;\n\
     \  p.kind += \"!\";\n\
     \  out.push(p.x + \":\" + p.kind + \":\" + p.missing + \":\" + p.seen);\n\
     \  out.push(p.norm ? p.norm() : \"none\");\n\
     \  el.title = \"t\" + i;\n\
     \  out.push(\"abc\".charAt(1) + Math.sqrt(p.x));\n\
     }\n\
     for (var r = 0; r < 2; r++) {\n\
     \  for (var j = 0; j < pts.length; j++) { pts[j].seen = r; pts[j].y = j; }\n\
     }\n\
     console.log(out.join(\",\"));\n\
     console.log(el.title, pts[5].seen, pts[3].y, Object.keys(pts[0]).join(\",\"));"
  in
  let program = Jsir.Parser.parse_program src in
  let run dep =
    let st, _ = Helpers.fresh_state ~dom:true () in
    let rt =
      if dep then begin
        let rt = Ceres.Install.dependence st (Jsir.Loops.index program) in
        Interp.Eval.run_program st
          (Ceres.Instrument.program Ceres.Instrument.Dependence program);
        Some rt
      end
      else (Interp.Eval.run_program st program; None)
    in
    ( List.rev st.Interp.Value.console,
      Int64.to_int (Ceres_util.Vclock.busy st.Interp.Value.clock),
      rt )
  in
  let plain_out, plain_ticks, _ = run false in
  let dep_out, dep_ticks, rt = run true in
  let rt = Option.get rt in
  Alcotest.(check (list string)) "same console output" plain_out dep_out;
  Alcotest.(check (list string)) "console"
    [ "5:pt!:undefined:0,10,b2.23606797749979,6:pt!:undefined:1,12,\
       b2.449489742783178,7:undefined!:undefined:2,-7,b2.6457513110645907,\
       9:undefined!:undefined:3,none,b3,13:undefined!:undefined:4,none,\
       b3.605551275463989,15:undefined!:undefined:5,none,b3.872983346207417";
      "t5 1 3 x,seen,kind,y" ]
    plain_out;
  Alcotest.(check int) "plain busy vticks" 1748 plain_ticks;
  Alcotest.(check int) "dependence busy vticks" 2858 dep_ticks;
  Alcotest.(check int) "accesses checked" 312
    (Ceres.Runtime.accesses_checked rt);
  Alcotest.(check int) "the DOM write is a host access" 6
    (Ceres.Runtime.dom_accesses_in rt 1)

let test_dep_dom_attribution () =
  let infos, rt =
    Helpers.analyze
      "var el = document.createElement(\"div\");\n\
       for (var i = 0; i < 4; i++) { el.setAttribute(\"n\", \"\" + i); }\n\
       for (var j = 0; j < 4; j++) { var x = j; }"
  in
  ignore infos;
  Alcotest.(check bool) "DOM charged to the DOM loop" true
    (Ceres.Runtime.dom_accesses_in rt 0 > 0);
  Alcotest.(check int) "clean loop uncharged" 0
    (Ceres.Runtime.dom_accesses_in rt 1)

let test_dep_nest_attribution () =
  let infos, rt =
    Helpers.analyze
      "var acc = {s: 0};\n\
       while (acc.s < 3) { acc.s = acc.s + 1; }\n\
       var out = [];\n\
       for (var i = 0; i < 4; i++) { out[i] = i; }"
  in
  ignore infos;
  (* the accumulator chain impedes the while nest, not the for nest *)
  let while_ws = Ceres.Runtime.warnings_impeding rt ~root:0 in
  let for_ws = Ceres.Runtime.warnings_impeding rt ~root:1 in
  Alcotest.(check bool) "while nest has impediments" true
    (List.length while_ws > 0);
  let for_has_flow =
    List.exists
      (fun ((w : Ceres.Runtime.warning), _) ->
         match w.kind with Ceres.Runtime.Prop_read _ -> true | _ -> false)
      for_ws
  in
  Alcotest.(check bool) "for nest has no flow impediments" false for_has_flow

(* ------------------------------------------------------------------ *)
(* Classification *)

let test_classify_difficulty_scale () =
  let open Ceres.Classify in
  Alcotest.(check bool) "ordering" true
    (difficulty_rank Very_easy < difficulty_rank Easy
     && difficulty_rank Easy < difficulty_rank Medium
     && difficulty_rank Medium < difficulty_rank Hard
     && difficulty_rank Hard < difficulty_rank Very_hard);
  Alcotest.(check string) "to_string" "very hard"
    (difficulty_to_string Very_hard)

let test_classify_divergence () =
  let open Ceres.Classify in
  Alcotest.(check string) "recursion forces yes" "yes"
    (divergence_to_string
       (divergence_of ~iter_cv:0.0 ~recursion:true ~avg_trips:100.));
  Alcotest.(check string) "tiny trips force yes" "yes"
    (divergence_to_string
       (divergence_of ~iter_cv:0.0 ~recursion:false ~avg_trips:1.5));
  Alcotest.(check string) "uniform is none" "none"
    (divergence_to_string
       (divergence_of ~iter_cv:0.01 ~recursion:false ~avg_trips:100.));
  Alcotest.(check string) "moderate cv is little" "little"
    (divergence_to_string
       (divergence_of ~iter_cv:0.3 ~recursion:false ~avg_trips:100.));
  Alcotest.(check string) "high cv is yes" "yes"
    (divergence_to_string
       (divergence_of ~iter_cv:1.2 ~recursion:false ~avg_trips:100.))

let test_classify_difficulty_from_warnings () =
  let open Ceres.Classify in
  let w kind line : Ceres.Runtime.warning * int =
    ({ kind; line; characterization = []; carrier = None }, 1)
  in
  let d ws = dependence_difficulty (summarize_warnings ws) in
  Alcotest.(check string) "clean loop" "very easy"
    (difficulty_to_string (d []));
  Alcotest.(check string) "plain temps stay very easy" "very easy"
    (difficulty_to_string
       (d [ w (Ceres.Runtime.Var_write "t") 1;
            w (Ceres.Runtime.Prop_write "[elem]") 2 ]));
  Alcotest.(check string) "reductions are easy" "easy"
    (difficulty_to_string
       (d [ w (Ceres.Runtime.Var_accum "sum") 3 ]));
  Alcotest.(check string) "one flow line is easy" "easy"
    (difficulty_to_string (d [ w (Ceres.Runtime.Prop_read "x") 4 ]));
  Alcotest.(check string) "several flow lines harden" "medium"
    (difficulty_to_string
       (d [ w (Ceres.Runtime.Prop_read "x") 4;
            w (Ceres.Runtime.Prop_read "y") 5;
            w (Ceres.Runtime.Prop_read "z") 6 ]));
  let many_flow =
    List.init 12 (fun i -> w (Ceres.Runtime.Prop_read "x") (100 + i))
  in
  Alcotest.(check string) "many flow lines are very hard" "very hard"
    (difficulty_to_string (d many_flow))

let test_classify_parallelization () =
  let open Ceres.Classify in
  Alcotest.(check string) "dom-heavy nests are very hard" "very hard"
    (difficulty_to_string
       (parallelization_difficulty ~dep:Very_easy ~dom_per_iteration:0.9
          ~divergence:No_divergence));
  Alcotest.(check string) "clean easy nest stays easy" "easy"
    (difficulty_to_string
       (parallelization_difficulty ~dep:Easy ~dom_per_iteration:0.
          ~divergence:Little));
  Alcotest.(check string) "divergence bumps to medium" "medium"
    (difficulty_to_string
       (parallelization_difficulty ~dep:Very_easy ~dom_per_iteration:0.
          ~divergence:Yes))

let test_amdahl_math () =
  Alcotest.(check (float 1e-9)) "no parallel fraction" 1.
    (Js_parallel.Amdahl.speedup ~parallel_fraction:0. ~workers:8);
  Alcotest.(check (float 1e-9)) "half parallel, infinite workers" 2.
    (Js_parallel.Amdahl.asymptote ~parallel_fraction:0.5);
  Alcotest.(check (float 1e-6)) "p=0.9 N=4" (1. /. (0.1 +. (0.9 /. 4.)))
    (Js_parallel.Amdahl.speedup ~parallel_fraction:0.9 ~workers:4)

(* ------------------------------------------------------------------ *)
(* Reports *)

let test_report_rendering () =
  let infos, rt =
    Helpers.analyze
      "var acc = {s: 0};\n\
       for (var i = 0; i < 3; i++) { acc.s = acc.s + i; }"
  in
  let report = Ceres.Report.dependence_report rt infos in
  Alcotest.(check bool) "labels present" true
    (Helpers.contains ~sub:"for(line 2)" report);
  Alcotest.(check bool) "triple notation present" true
    (Helpers.contains ~sub:"ok dependence" report);
  Alcotest.(check bool) "counts present" true
    (Helpers.contains ~sub:"occurrences" report)

let test_report_clean_program () =
  let infos, rt = Helpers.analyze "var x = 1 + 2;" in
  let report = Ceres.Report.dependence_report rt infos in
  Alcotest.(check bool) "no warnings message" true
    (Helpers.contains ~sub:"no problematic accesses" report)

(* A runtime compiles only its own mode's intrinsics: a program
   instrumented for another mode runs until it reaches one, which
   raises the catchable TypeError named by its printed call. *)
let test_other_mode_intrinsic_is_unknown () =
  List.iter
    (fun (mode, install, src, name) ->
       let program = Jsir.Parser.parse_program src in
       let st, _ = Helpers.fresh_state () in
       install st (Jsir.Loops.index program);
       Interp.Eval.run_program st (Ceres.Instrument.program mode program);
       Interp.Eval.run_program st
         (Jsir.Parser.parse_program
            "try { f(); console.log(\"ran\"); }\n\
             catch (e) { console.log(e.name + \": \" + e.message); }");
       Alcotest.(check (list string)) (name ^ " raises a catchable TypeError")
         [ "TypeError: unknown intrinsic " ^ name ]
         (List.rev st.Interp.Value.console))
    [ ( Ceres.Instrument.Dependence,
        (fun st infos -> ignore (Ceres.Install.loop_profile st infos)),
        "function f() { var o = {}; o.p = 1; }",
        "__ceres_fn_scope" );
      ( Ceres.Instrument.Lightweight,
        (fun st infos -> ignore (Ceres.Install.dependence st infos)),
        "function f() { while (true) { break; } }",
        "__ceres_light_enter" ) ]

let suite =
  [ ("triple same iteration", `Quick, test_triple_same_iteration);
    ("triple different iteration", `Quick, test_triple_different_iteration);
    ("triple different instance", `Quick, test_triple_different_instance);
    ("triple n-body shape", `Quick, test_triple_nbody_shape);
    ("triple instance freshness", `Quick, test_triple_fresh_instance_is_private);
    ("triple poisoning", `Quick, test_triple_poisoning);
    qtest prop_characterization_wellformed;
    qtest prop_scan_mirrors_characterize;
    ("instrument preserves semantics", `Quick, test_instrument_preserves_semantics);
    ("intrinsic lookup stays lazy", `Quick, test_intrinsic_lookup_stays_lazy);
    ("instrument balances loop events", `Quick, test_instrument_balances_loop_events);
    ("instrumented code reparses", `Quick, test_instrumented_program_prints_and_reparses);
    ("lightweight no double counting", `Quick, test_lightweight_no_double_counting);
    ("lightweight excludes non-loop", `Quick, test_lightweight_excludes_non_loop_time);
    ("loop profile statistics", `Quick, test_loop_profile_statistics);
    ("loop profile counts loop time once", `Quick,
     test_loop_profile_counts_time_once);
    ("dep: scatter writes", `Quick, test_dep_scatter_writes_are_not_flow);
    ("dep: prefix sum flow", `Quick, test_dep_prefix_sum_is_flow);
    ("dep: accumulator WAW+flow", `Quick, test_dep_accumulator_is_waw_and_flow);
    ("dep: induction separated", `Quick, test_dep_induction_separated);
    ("dep: extraction silences binding warnings", `Quick, test_dep_extraction_silences_binding_warnings);
    ("dep: compound temp", `Quick, test_dep_compound_temp_not_accumulator);
    ("dep: true accumulator", `Quick, test_dep_true_accumulator_detected);
    ("dep: function locals private", `Quick, test_dep_function_locals_are_private);
    ("dep: recursion guard", `Quick, test_dep_recursion_guard);
    ("dep: focus", `Quick, test_dep_focus_restricts_recording);
    ("dep: dom attribution", `Quick, test_dep_dom_attribution);
    ("dep: index fast path parity", `Quick, test_dep_index_fast_path_parity);
    ("dep: member cache parity", `Quick, test_dep_member_cache_parity);
    ("dep: nest attribution", `Quick, test_dep_nest_attribution);
    ("classify scale", `Quick, test_classify_difficulty_scale);
    ("classify divergence", `Quick, test_classify_divergence);
    ("classify difficulty", `Quick, test_classify_difficulty_from_warnings);
    ("classify parallelization", `Quick, test_classify_parallelization);
    ("amdahl math", `Quick, test_amdahl_math);
    ("report rendering", `Quick, test_report_rendering);
    ("report clean program", `Quick, test_report_clean_program);
    ("other mode's intrinsic is unknown", `Quick,
     test_other_mode_intrinsic_is_unknown) ]
