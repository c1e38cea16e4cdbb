(* Integration tests over the 12 case-study workloads: every app must
   run cleanly under every instrumentation mode, and the measured
   quantities must satisfy the invariants the paper's tables rely on. *)

let all = Workloads.Registry.all

let test_registry_complete () =
  Alcotest.(check int) "12 workloads" 12 (List.length all);
  (* exactly the paper's Table 1 names *)
  let expected =
    [ "HAAR.js"; "Tear-able Cloth"; "CamanJS"; "fluidSim"; "Harmony"; "Ace";
      "MyScript"; "Raytracing"; "Normal Mapping"; "sigma.js";
      "processing.js"; "D3.js" ]
  in
  Alcotest.(check (list string)) "names" expected Workloads.Registry.names;
  Alcotest.(check bool) "lookup is case-insensitive" true
    (Workloads.Registry.find "camanjs" <> None)

let test_sources_parse_and_roundtrip () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let p = Jsir.Parser.parse_program w.source in
       Alcotest.(check bool) (w.name ^ " has loops") true (p.loop_count > 0);
       let printed = Jsir.Printer.program_to_string p in
       let p2 = Jsir.Parser.parse_program printed in
       Alcotest.(check bool)
         (w.name ^ " round-trips")
         true
         (Jsir.Equal.program p p2))
    all

(* Every variable read in the bundled programs gets a stamp: a frame
   address or a free name's symbol. Only a name a catch clause or a
   named function expression's wrapper scope may bind on the way out
   keeps [lex_unresolved] and the scope walk, so host globals such as
   [Math] can never silently fall back to it. *)
let test_reads_stamped () =
  let module A = Jsir.Ast in
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let p = Jsir.Parser.parse_program w.source in
       Jsir.Resolve.program (Ceres_util.Symbol.create ()) p;
       let walked = ref [] in
       (* [dyn]: the catch and wrapper names on the way out *)
       let rec stmt dyn (s : A.stmt) =
         match s.s with
         | Func_decl f -> func dyn f
         | _ -> A.iter_stmt ~stmt:(stmt dyn) ~expr:(expr dyn) s
       and expr dyn (e : A.expr) =
         match e.e with
         | Ident n when e.lex = A.lex_unresolved && not (List.mem n dyn) ->
           walked := n :: !walked
         | Function_expr f ->
           func (match f.fname with Some n -> n :: dyn | None -> dyn) f
         | _ -> A.iter_expr ~stmt:(stmt dyn) ~expr:(expr dyn) e
       and func dyn (f : A.func) =
         List.iter (stmt (Jsir.Resolve.catch_names_stmts f.body @ dyn)) f.body
       in
       List.iter (stmt (Jsir.Resolve.catch_names_stmts p.stmts)) p.stmts;
       Alcotest.(check (list string))
         (w.name ^ ": reads left on the scope walk") [] !walked)
    all

let test_all_run_plain () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let ctx = Workloads.Harness.run_plain w in
       let busy = Ceres_util.Vclock.busy ctx.st.Interp.Value.clock in
       Alcotest.(check bool) (w.name ^ " did work") true
         (Int64.compare busy 0L > 0))
    all

let test_table2_invariants () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let t = Workloads.Harness.run_lightweight w in
       Alcotest.(check bool)
         (w.name ^ ": loops <= busy")
         true
         (t.in_loops_ms <= t.busy_ms +. 1e-6);
       Alcotest.(check bool)
         (w.name ^ ": busy <= total")
         true
         (t.busy_ms <= t.total_ms +. 1e-6);
       Alcotest.(check bool)
         (w.name ^ ": session at least as long as scripted")
         true
         (t.total_ms >= w.session_ms -. 1e-6))
    all

let test_expected_console_output () =
  let expect =
    [ ("HAAR.js", "haar: candidates");
      ("Tear-able Cloth", "cloth: frames");
      ("CamanJS", "caman: render");
      ("fluidSim", "fluid: frames");
      ("Harmony", "harmony: points");
      ("Ace", "ace: passes");
      ("MyScript", "myscript: stroke");
      ("Raytracing", "raytracer: frames");
      ("Normal Mapping", "normalmap: frames");
      ("sigma.js", "sigma: frames");
      ("processing.js", "processing: frames");
      ("D3.js", "d3: projections") ]
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let ctx = Workloads.Harness.run_plain w in
       let console = List.rev ctx.st.Interp.Value.console in
       let marker = List.assoc w.name expect in
       Alcotest.(check bool)
         (w.name ^ " printed " ^ marker)
         true
         (List.exists (Helpers.contains ~sub:marker) console))
    all

let test_dom_using_apps_touch_dom () =
  let expect_dom =
    [ "Harmony"; "Ace"; "MyScript"; "sigma.js"; "D3.js" ]
  in
  List.iter
    (fun name ->
       let w = Option.get (Workloads.Registry.find name) in
       let t = Workloads.Harness.run_lightweight w in
       Alcotest.(check bool) (name ^ " touches DOM/canvas") true
         (t.dom_accesses + t.canvas_accesses > 0))
    expect_dom

let test_inspection_row_counts () =
  (* the paper's Table 3 has 22 rows across the 12 applications *)
  let total =
    List.fold_left
      (fun acc (w : Workloads.Workload.t) ->
         acc + List.length (Workloads.Harness.inspect w))
      0 all
  in
  Alcotest.(check int) "22 inspected nests" 22 total

let test_inspection_determinism () =
  let w = Option.get (Workloads.Registry.find "Raytracing") in
  let a = Workloads.Harness.inspect w in
  let b = Workloads.Harness.inspect w in
  Alcotest.(check bool) "inspection is deterministic" true
    (List.for_all2
       (fun (x : Workloads.Harness.nest_row) (y : Workloads.Harness.nest_row) ->
          x.root = y.root && x.instances = y.instances
          && x.trips_mean = y.trips_mean
          && x.divergence = y.divergence
          && x.dep_difficulty = y.dep_difficulty
          && x.par_difficulty = y.par_difficulty)
       a b)

let test_key_table3_shape () =
  (* spot-check the rows the paper's conclusions hang on *)
  let inspect name = Workloads.Harness.inspect (Option.get (Workloads.Registry.find name)) in
  (match inspect "Raytracing" with
   | (r : Workloads.Harness.nest_row) :: _ ->
     Alcotest.(check bool) "raytracer deps trivial" true
       (r.dep_difficulty = Ceres.Classify.Very_easy
        || r.dep_difficulty = Ceres.Classify.Easy);
     Alcotest.(check bool) "raytracer has no DOM in the nest" false
       r.dom_access
   | [] -> Alcotest.fail "raytracing rows");
  (match inspect "Harmony" with
   | (r : Workloads.Harness.nest_row) :: _ ->
     Alcotest.(check bool) "harmony nests hit the DOM" true r.dom_access;
     Alcotest.(check bool) "harmony parallelization very hard" true
       (r.par_difficulty = Ceres.Classify.Very_hard)
   | [] -> Alcotest.fail "harmony rows");
  (match inspect "Ace" with
   | (r : Workloads.Harness.nest_row) :: _ ->
     Alcotest.(check bool) "ace ~1 trip" true (r.trips_mean < 2.5);
     Alcotest.(check bool) "ace divergence yes" true
       (r.divergence = Ceres.Classify.Yes)
   | [] -> Alcotest.fail "ace rows")

let test_amdahl_five_over_three () =
  (* the headline claim: >3x upper bound for 5 of the 12 apps *)
  let over_3 =
    List.fold_left
      (fun acc (w : Workloads.Workload.t) ->
         let t = Workloads.Harness.run_lightweight w in
         let rows = Workloads.Harness.inspect ~max_nests:16 w in
         let p = Workloads.Harness.parallel_fraction t rows in
         if Js_parallel.Amdahl.asymptote ~parallel_fraction:p > 3. then
           acc + 1
         else acc)
      0 all
  in
  Alcotest.(check int) "5 of 12 above 3x (paper Sec 4.2)"
    Workloads.Paper_data.amdahl_easy_apps over_3

let test_table3_agreement_regression () =
  (* Pin the paper-agreement level of the ordinal Table 3 difficulty
     columns so classifier changes cannot silently drift away from the
     paper. *)
  let ag =
    Workloads.Harness.table3_agreement
      (List.map (fun w -> (w, Workloads.Harness.inspect w)) all)
  in
  let cells = 2 * ag.rows and near = ag.exact + ag.adjacent in
  Alcotest.(check int) "44 ordinal difficulty cells" 44 cells;
  Alcotest.(check bool)
    (Printf.sprintf "at least 17 exact matches (got %d)" ag.exact)
    true (ag.exact >= 17);
  Alcotest.(check bool)
    (Printf.sprintf "at least 33 within one level (got %d)" near)
    true (near >= 33)

(* The staging law (paper Sec. 3): a dependence session focused on
   some root nests sees, on each of them, what the full session sees.
   For every app, the study's session (focused on the [hot_nest_count]
   hottest roots) and a session focused on each single hot root must
   match the unfocused session on every focused root. *)
let test_staging_law () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let st = Workloads.Harness.study ~nests:w.hot_nest_count w in
       let _, full = Workloads.Harness.run_dependence w in
       let view rt root =
         let dom = Ceres.Runtime.nest_dom_accesses rt ~root in
         ( ( Ceres.Runtime.warnings_impeding rt ~root,
             Ceres.Runtime.warnings_for_nest rt ~root ),
           (dom, Ceres.Runtime.instances_of rt root),
           Ceres.Runtime.is_tainted rt root,
           Ceres.Advice.for_nest rt ~root ~dom_accesses:dom )
       in
       let agree what rt root =
         if view rt root <> view full root then
           Alcotest.failf "%s: loop %d differs from the full session (%s)"
             w.name root what
       in
       let roots =
         List.map (fun (n : Workloads.Harness.hot_nest) -> n.info.id) st.hot
       in
       List.iter (agree "focused on the hot roots" st.deps) roots;
       List.iter
         (fun root ->
            let _, one = Workloads.Harness.run_dependence ~focus:[ root ] w in
            agree "focused on itself" one root)
         roots)
    all

(* Allocation budget: a session's minor words are deterministic (no
   wall clock in the interpreter), so a bound on them catches an
   allocation regression on the per-node path without timing anything.
   [Gc.minor_words] is exact for the calling domain; [Gc.quick_stat]'s
   count only moves at minor collections, so it does not repeat. Each
   bound is the session's measured count plus 10% headroom, for a
   plain, lightweight, loop-profile and dependence session on two apps.
   Each row also pins the session's exact busy vticks ([Vclock.busy]),
   so a change that adds or drops a tick on the interpreter path shows
   here, and a dependence session pins its exact dynamic access
   checks. *)
let test_allocation_budget () =
  let w name = Option.get (Workloads.Registry.find name) in
  let busy (ctx : Workloads.Harness.run_context) =
    Int64.to_int (Ceres_util.Vclock.busy ctx.st.Interp.Value.clock)
  in
  let plain name = (busy (Workloads.Harness.run_plain (w name)), None)
  and light name =
    (* [timing] reports busy time in virtual ms; scale it back to vticks. *)
    let t = Workloads.Harness.run_lightweight (w name) in
    ( int_of_float
        (Float.round
           (t.busy_ms *. float_of_int Workloads.Harness.ticks_per_ms)),
      None )
  and loops name =
    (busy (fst (Workloads.Harness.run_loop_profile (w name))), None)
  and deps name =
    let ctx, rt = Workloads.Harness.run_dependence (w name) in
    (busy ctx, Some (Ceres.Runtime.accesses_checked rt))
  in
  List.iter
    (fun (name, mode, session, measured, vticks, accesses) ->
       let before = Gc.minor_words () in
       let ticks, checked = session name in
       let words = Gc.minor_words () -. before in
       let bound = 1.1 *. measured in
       if words > bound then
         Alcotest.failf "%s %s: %.0f minor words, over the budget of %.0f"
           name mode words bound;
       Alcotest.(check int)
         (Printf.sprintf "%s %s: busy vticks" name mode)
         vticks ticks;
       Alcotest.(check (option int))
         (Printf.sprintf "%s %s: accesses checked" name mode)
         accesses checked)
    [ ("Raytracing", "plain", plain, 5_897_977., 7_445_438, None);
      ("fluidSim", "plain", plain, 6_906_495., 4_975_476, None);
      ("Raytracing", "lightweight", light, 5_931_412., 7_548_644, None);
      ("fluidSim", "lightweight", light, 6_928_341., 4_994_298, None);
      ("Raytracing", "loop-profile", loops, 6_848_407., 7_823_406, None);
      ("fluidSim", "loop-profile", loops, 7_226_815., 5_093_740, None);
      ("Raytracing", "dependence", deps, 1_893_302., 3_043_008, Some 331_182);
      ("fluidSim", "dependence", deps, 2_960_955., 2_454_091, Some 113_569) ]

let suite =
  [ ("registry complete", `Quick, test_registry_complete);
    ("sources parse and round-trip", `Quick, test_sources_parse_and_roundtrip);
    ("all run plain", `Slow, test_all_run_plain);
    ("table 2 invariants", `Slow, test_table2_invariants);
    ("expected console output", `Slow, test_expected_console_output);
    ("dom apps touch dom", `Slow, test_dom_using_apps_touch_dom);
    ("22 inspected nests", `Slow, test_inspection_row_counts);
    ("inspection determinism", `Slow, test_inspection_determinism);
    ("key table 3 shapes", `Slow, test_key_table3_shape);
    ("amdahl 5 of 12", `Slow, test_amdahl_five_over_three);
    ("table 3 agreement regression", `Slow, test_table3_agreement_regression);
    ("staging law: focused = full on focused roots", `Slow, test_staging_law);
    ("plain-session allocation budget", `Quick, test_allocation_budget);
    ("every read stamped (free or frame)", `Quick, test_reads_stamped) ]
