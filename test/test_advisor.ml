(* The causal what-if advisor: model laws (Amdahl monotonicity and the
   serial-fraction bound), byte-determinism of the advise report,
   predicted-vs-measured grading on the nests par-exec really runs
   (in process and through the CLI), and well-formedness of the
   scheduler timeline export. *)

let qtest = QCheck_alcotest.to_alcotest

let find_workload name =
  List.find
    (fun (w : Workloads.Workload.t) -> w.name = name)
    Workloads.Registry.all

let eps = 1e-9

(* ------------------------------------------------------------------ *)
(* Model laws on real reports: within each nest the predicted speedup
   is non-decreasing in the core count and never exceeds the Amdahl
   asymptote 1/(1 - fraction). *)

let test_monotone_in_cores () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let rep = Advisor.analyze ~cores:[ 2; 3; 4; 8; 16; 64 ] w in
       List.iter
         (fun (n : Advisor.nest) ->
            ignore
              (List.fold_left
                 (fun prev (p : Advisor.predicted) ->
                    if p.speedup +. eps < prev then
                      Alcotest.failf
                        "%s %s: predicted speedup decreased (%.6f after \
                         %.6f)"
                        w.name n.label p.speedup prev;
                    if p.speedup > n.bound +. eps then
                      Alcotest.failf
                        "%s %s: predicted %.6f exceeds bound %.6f" w.name
                        n.label p.speedup n.bound;
                    p.speedup)
                 0. n.predicted);
            Alcotest.(check bool)
              (Printf.sprintf "%s %s: fraction in [0,1]" w.name n.label)
              true
              (n.fraction >= 0. && n.fraction <= 1.))
         rep.nests)
    Workloads.Registry.all

(* The same law as a property over the bare model, away from any
   workload: random fraction, random core ladder. *)
let amdahl_monotone_law =
  QCheck.Test.make ~name:"amdahl: monotone in cores, bounded by asymptote"
    ~count:300
    QCheck.(
      pair (int_range 0 100)
        (list_of_size (Gen.int_range 1 8) (int_range 1 128)))
    (fun (pct, cores) ->
       let f = float_of_int pct /. 100. in
       let cores = List.sort_uniq compare cores in
       let bound = Js_parallel.Amdahl.asymptote ~parallel_fraction:f in
       let speedups =
         List.map
           (fun c ->
              Js_parallel.Amdahl.speedup ~parallel_fraction:f ~workers:c)
           cores
       in
       let rec monotone = function
         | a :: (b :: _ as rest) -> a <= b +. eps && monotone rest
         | _ -> true
       in
       monotone speedups
       && List.for_all (fun s -> s <= bound +. eps) speedups)

(* Root-loop time is busy time with a loop open, counted once, so no
   advise report (the golden rules' output) puts more time in root
   nests than the program was busy. *)
let test_loop_time_within_busy () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let file = String.map (fun c -> if c = ' ' then '_' else c) w.name in
       let doc = Helpers.json (Helpers.golden ("advise." ^ file ^ ".out")) in
       let ms key =
         let v = Ceres_util.Json.member key doc in
         match Option.bind v Ceres_util.Json.float_opt with
         | Some v -> v
         | None -> Alcotest.failf "%s: no %s" w.name key
       in
       if ms "loop_ms" > ms "busy_ms" then
         Alcotest.failf "%s: loop_ms %.3f > busy_ms %.3f" w.name
           (ms "loop_ms") (ms "busy_ms"))
    Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Byte-determinism of one report across two in-process runs (every
   workload's report is pinned by its golden in [golden/dune]). *)

let test_deterministic () =
  let w = find_workload "fluidSim" in
  let render () = Advisor.to_json (Advisor.analyze w) in
  Alcotest.(check string) "two runs byte-identical" (render ()) (render ())

(* ------------------------------------------------------------------ *)
(* Grading: every nest par-exec executes or its work gate refuses gains
   a measured row whose fields are internally consistent and whose
   band flag matches the documented definition (DESIGN.md §14).
   Wall-clock speedups themselves are host-dependent, so only the
   bookkeeping is asserted — an off-model row is a flag, not a
   failure. HAAR.js's nests never fork: each row must say so, with no
   par time and a refusal count instead of a grade. *)

let test_measured_rows () =
  let w = find_workload "HAAR.js" in
  let rep = Advisor.analyze w in
  Alcotest.(check (list (pair int (float 1e-9))))
    "measured starts empty" []
    (List.map (fun (m : Advisor.measured_row) -> (m.m_id, 0.)) rep.measured);
  let n = Advisor.measure ~jobs:2 rep w in
  Alcotest.(check int) "count mirrors stored rows" n
    (List.length rep.measured);
  Alcotest.(check bool) "par-exec covered at least one nest" true (n > 0);
  Alcotest.(check bool) "evaluateCandidates keeps a row" true
    (List.exists
       (fun (m : Advisor.measured_row) ->
          Helpers.contains ~sub:"evaluateCandidates" m.m_label)
       rep.measured);
  List.iter
    (fun (m : Advisor.measured_row) ->
       Alcotest.(check (triple int string bool))
         (Printf.sprintf "%s: (instances, grade, within band)" m.m_label)
         (0, "refused", false)
         (m.m_instances, Advisor.grade m, m.m_within_band);
       Alcotest.(check bool)
         (Printf.sprintf "%s: no par time, refusals counted" m.m_label)
         true
         (m.m_par_ms = 0. && m.m_refused > 0))
    rep.measured;
  List.iter
    (fun (m : Advisor.measured_row) ->
       Alcotest.(check bool)
         (Printf.sprintf "%s: predicted present" m.m_label)
         true (m.m_predicted >= 1. -. eps);
       Alcotest.(check bool)
         (Printf.sprintf "%s: fraction in [0,1]" m.m_label)
         true
         (m.m_fraction >= 0. && m.m_fraction <= 1.);
       Alcotest.(check int)
         (Printf.sprintf "%s: jobs recorded" m.m_label)
         2 m.m_jobs;
       let in_band =
         Float.abs (m.m_predicted -. m.m_program_speedup)
         <= (0.25 *. m.m_predicted) +. eps
       in
       Alcotest.(check bool)
         (Printf.sprintf "%s: band flag matches definition" m.m_label)
         in_band m.m_within_band)
    rep.measured;
  (* The JSON gains the measured section only after [measure], and the
     deterministic plan members are unchanged by it. *)
  let doc = Advisor.to_json rep in
  Alcotest.(check bool) "json carries measured section" true
    (Helpers.contains ~sub:"\"measured_nests\"" doc);
  Alcotest.(check bool) "plain report has no measured section" false
    (Helpers.contains ~sub:"\"measured_nests\""
       (Advisor.to_json (Advisor.analyze w)))

(* The same grading through the CLI: [advise --measure -j 2] on two
   workloads whose nests the work gate keeps sequential attaches a
   measured row, carrying a predicted speedup, to at least one proven
   nest; a row without parallel instances has [null] timings and is
   graded [refused]. *)
let test_measured_cli () =
  List.iter
    (fun w ->
       let rc, out, _ =
         Helpers.cli [ "advise"; w; "--measure"; "-j"; "2"; "--format=json" ]
       in
       Alcotest.(check int) (w ^ " exits 0") 0 rc;
       let doc = Helpers.json out in
       Alcotest.(check bool) (w ^ ": measured_nests > 0") true
         (Helpers.int_at [ "measured"; "measured_nests" ] doc > 0);
       let member = Ceres_util.Json.member in
       match Option.bind (member "measured" doc) (member "nests") with
       | Some (List rows) ->
         Alcotest.(check bool) (w ^ ": every row carries a prediction") true
           (List.for_all (fun r -> member "predicted" r <> None) rows);
         List.iter
           (fun r ->
              let unforked = Helpers.int_at [ "instances" ] r = 0 in
              Alcotest.(check (pair bool bool))
                (w ^ ": null par time iff no instance, then refused")
                (unforked, unforked)
                ( member "par_ms" r = Some Ceres_util.Json.Null,
                  unforked
                  && member "grade" r = Some (Ceres_util.Json.Str "refused")
                  && Helpers.int_at [ "refused" ] r > 0 ))
           rows
       | _ -> Alcotest.failf "%s: measured report lacks its nests" w)
    [ "HAAR.js"; "fluidSim" ]

(* ------------------------------------------------------------------ *)
(* Timeline export: every line parses as a JSON object with the
   documented members, timestamps are non-decreasing, and task
   start/stop events balance per domain. *)

let test_timeline_export () =
  let module Trace = Js_parallel.Telemetry.Trace in
  Trace.start ();
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let hits = Atomic.make 0 in
      Js_parallel.Pool.parallel_for pool ~lo:0 ~hi:64 ~chunk:4 (fun _ ->
          Atomic.incr hits);
      Alcotest.(check int) "work ran" 64 (Atomic.get hits));
  Trace.stop ();
  let path = Filename.temp_file "jsceres_timeline" ".jsonl" in
  Trace.write_file path;
  let lines =
    String.split_on_char '\n' (String.trim (Helpers.read_file path))
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove path;
  Alcotest.(check bool) "trace recorded events" true (List.length lines > 0);
  let starts = Hashtbl.create 4 and stops = Hashtbl.create 4 in
  let bump tbl d = Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)) in
  let last_t = ref neg_infinity in
  List.iter
    (fun line ->
       match Ceres_util.Json.of_string line with
       | Error msg -> Alcotest.failf "bad timeline line %S: %s" line msg
       | Ok doc ->
         let t =
           Option.bind (Ceres_util.Json.member "t_ms" doc)
             Ceres_util.Json.float_opt
         and dom =
           Option.bind (Ceres_util.Json.member "domain" doc)
             Ceres_util.Json.int_opt
         and ev =
           Option.bind (Ceres_util.Json.member "ev" doc)
             Ceres_util.Json.string_opt
         in
         (match (t, dom, ev) with
          | Some t, Some d, Some ev ->
            Alcotest.(check bool) "t_ms non-negative" true (t >= 0.);
            Alcotest.(check bool) "t_ms non-decreasing" true (t >= !last_t);
            last_t := t;
            Alcotest.(check bool) "known event kind" true
              (List.mem ev [ "task_start"; "task_stop"; "steal"; "idle_start" ]);
            if ev = "task_start" then bump starts d;
            if ev = "task_stop" then bump stops d
          | _ -> Alcotest.failf "timeline line missing members: %s" line))
    lines;
  Hashtbl.iter
    (fun d n ->
       Alcotest.(check int)
         (Printf.sprintf "domain %d start/stop balance" d)
         n
         (Option.value ~default:0 (Hashtbl.find_opt stops d)))
    starts;
  Alcotest.(check bool) "some task ran on the trace" true
    (Hashtbl.length starts > 0)

(* A measured nest whose instances a poison sent back carries the
   reason in place of a bare count, in the text and in the JSON. *)
let test_why_not () =
  let row fallbacks poisons =
    { Advisor.m_id = 3; m_label = "for(line 9)"; m_fraction = 0.5; m_jobs = 2;
      m_seq_ms = 0.; m_par_ms = 0.; m_nest_speedup = 0.;
      m_program_speedup = 0.; m_predicted = 1.33; m_karp_flatt = 0.;
      m_within_band = false; m_instances = 0; m_refused = 0;
      m_fallbacks = fallbacks; m_poisons = poisons }
  in
  let report m =
    { Advisor.workload = "w"; cores = [ 2 ]; busy_ms = 1.; loop_ms = 1.;
      nests = []; measured = [ m ]; fractions = [||] }
  in
  let one = report (row 2 [ ("overlapping element writes", 2) ]) in
  Alcotest.(check bool) "text: one reason" true
    (Helpers.contains
       ~sub:"never forked; predicted 1.33x @2 [fell back]\n\
            \     fell back 2 instance(s): overlapping element writes\n"
       (Advisor.to_text one));
  Alcotest.(check bool) "json: one reason" true
    (Helpers.contains
       ~sub:"\"why_not\": \"fell back 2 instance(s): overlapping element writes\""
       (Advisor.to_json one));
  Alcotest.(check bool) "text: reasons with counts" true
    (Helpers.contains
       ~sub:"fell back 3 instance(s): push on a master array (1), \
             overlapping element writes (2)"
       (Advisor.to_text
          (report
             (row 3
                [ ("push on a master array", 1);
                  ("overlapping element writes", 2) ]))))

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "predictions monotone and bounded (12 workloads)"
      `Quick test_monotone_in_cores;
    qtest amdahl_monotone_law;
    Alcotest.test_case "loop_ms <= busy_ms (12 advise reports)" `Quick
      test_loop_time_within_busy;
    Alcotest.test_case "report byte-deterministic" `Quick test_deterministic;
    Alcotest.test_case "measured rows on par-exec nests" `Quick
      test_measured_rows;
    Alcotest.test_case "advise --measure CLI grades nests" `Quick
      test_measured_cli;
    Alcotest.test_case "timeline export well-formed" `Quick
      test_timeline_export;
    Alcotest.test_case "a measured nest that fell back says why" `Quick
      test_why_not ]
