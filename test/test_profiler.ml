(* Sampling-profiler model tests: the Gecko anomaly reproduction.

   The key behaviour (paper Sec. 3.1): the sampler observes the program
   at function granularity. Code that calls functions often keeps every
   sample window active; a long call-free loop starves the sampler and
   under-reports active time. *)

let run_with_sampler src =
  let st = Interp.Eval.create ~ticks_per_ms:300 () in
  Interp.Builtins.install st;
  let sampler = Profiler.Sampler.attach ~period_ms:1.0 st in
  Interp.Eval.run_program st (Jsir.Parser.parse_program src);
  let busy =
    Ceres_util.Vclock.to_ms st.Interp.Value.clock
      (Ceres_util.Vclock.busy st.Interp.Value.clock)
  in
  (sampler, busy)

let test_call_dense_loop_fully_sampled () =
  let sampler, busy =
    run_with_sampler
      "function work(x) { return x * 2 + 1; }\n\
       var acc = 0;\n\
       for (var i = 0; i < 20000; i++) { acc = work(acc) % 1000; }"
  in
  let active = Profiler.Sampler.active_ms sampler in
  Alcotest.(check bool) "busy is substantial" true (busy > 20.);
  Alcotest.(check bool) "active close to busy" true
    (active > 0.8 *. busy)

let test_call_free_loop_starves_sampler () =
  let sampler, busy =
    run_with_sampler
      "var acc = 0;\n\
       for (var i = 0; i < 20000; i++) { acc = (acc * 3 + i) % 1000; }"
  in
  let active = Profiler.Sampler.active_ms sampler in
  Alcotest.(check bool) "busy is substantial" true (busy > 20.);
  Alcotest.(check bool) "sampler starves (the paper's anomaly)" true
    (active < 0.3 *. busy)

let test_idle_time_is_inactive () =
  let st = Interp.Eval.create ~ticks_per_ms:300 () in
  Interp.Builtins.install st;
  let sampler = Profiler.Sampler.attach ~period_ms:1.0 st in
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "function burst() { var x = 0; for (var i = 0; i < 100; i++) { x += Math.sqrt(i); } }\n\
        setTimeout(burst, 500);");
  ignore (Interp.Events.run_until st ~until_ms:10_000.);
  let active = Profiler.Sampler.active_ms sampler in
  Alcotest.(check bool) "active far below the 10s window" true (active < 100.)

(* Regression for the active-time cap: a session dominated by idle
   event-loop time with one trivial callback per sample window used to
   report sampled-active time far above the interpreter's true busy
   time (serviced_windows x period, uncapped). Active time may never
   exceed busy time. *)
let test_active_capped_by_busy () =
  let st = Interp.Eval.create ~ticks_per_ms:300 () in
  Interp.Builtins.install st;
  let sampler = Profiler.Sampler.attach ~period_ms:1.0 st in
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "function tick() { return 1; }\n\
        for (var i = 1; i <= 400; i++) { setTimeout(tick, i * 5); }");
  ignore (Interp.Events.run_until st ~until_ms:3000.);
  let active = Profiler.Sampler.active_ms sampler in
  let busy =
    Ceres_util.Vclock.to_ms st.Interp.Value.clock
      (Ceres_util.Vclock.busy st.Interp.Value.clock)
  in
  Alcotest.(check bool) "monolithic timer session has samples" true
    (active > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "active (%.1f ms) <= busy (%.1f ms)" active busy)
    true
    (active <= busy +. 1e-9)

let suite =
  [ ("call-dense loop fully sampled", `Quick, test_call_dense_loop_fully_sampled);
    ("call-free loop starves sampler", `Quick, test_call_free_loop_starves_sampler);
    ("idle time inactive", `Quick, test_idle_time_is_inactive);
    ("active capped by busy", `Quick, test_active_capped_by_busy) ]
