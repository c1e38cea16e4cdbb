(* Domain pool, parallel combinators and the speculative executor.
   This container may expose a single core; every test here checks
   correctness (results, exceptions, abort reasons), never speedup. *)

let qtest = QCheck_alcotest.to_alcotest

let test_parallel_for_covers_range () =
  Js_parallel.Pool.with_pool ~domains:3 (fun p ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      Js_parallel.Pool.parallel_for p ~lo:0 ~hi:n (fun i ->
          hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "every index exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_parallel_for_empty_and_tiny () =
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      let count = Atomic.make 0 in
      Js_parallel.Pool.parallel_for p ~lo:5 ~hi:5 (fun _ ->
          Atomic.incr count);
      Alcotest.(check int) "empty range" 0 (Atomic.get count);
      Js_parallel.Pool.parallel_for p ~lo:5 ~hi:6 (fun _ ->
          Atomic.incr count);
      Alcotest.(check int) "single-element range" 1 (Atomic.get count))

let test_parallel_for_exception_propagates () =
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      match
        Js_parallel.Pool.parallel_for p ~lo:0 ~hi:100 (fun i ->
            if i = 37 then failwith "boom")
      with
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
      | () -> Alcotest.fail "expected exception");
  (* pool remains usable after a failed loop *)
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      (try
         Js_parallel.Pool.parallel_for p ~lo:0 ~hi:10 (fun _ ->
             failwith "first")
       with Failure _ -> ());
      let sum =
        Js_parallel.Pool.parallel_reduce p ~lo:1 ~hi:11 ~init:0
          ~body:(fun i -> i)
          ~combine:( + ) ()
      in
      Alcotest.(check int) "pool survives exceptions" 55 sum)

let test_parallel_reduce_sum () =
  Js_parallel.Pool.with_pool ~domains:4 (fun p ->
      let sum =
        Js_parallel.Pool.parallel_reduce p ~lo:0 ~hi:100_000 ~init:0
          ~body:(fun i -> i)
          ~combine:( + ) ()
      in
      Alcotest.(check int) "gauss" (100_000 * 99_999 / 2) sum)

let prop_reduce_matches_sequential_fold =
  QCheck.Test.make ~name:"parallel_reduce = List fold" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 0 500))
    (fun (domains, n) ->
       Js_parallel.Pool.with_pool ~domains (fun p ->
           let body i = (i * 7) mod 13 in
           let par =
             Js_parallel.Pool.parallel_reduce p ~lo:0 ~hi:n ~init:0 ~body
               ~combine:( + ) ()
           in
           let seq = List.fold_left ( + ) 0 (List.init n body) in
           par = seq))

(* Regression: a non-identity [init] must be counted exactly once. The
   old pool seeded every chunk accumulator with [init] *and* used it
   as the base of the final combine, so any init <> 0 here was counted
   chunks+1 times. *)
let prop_reduce_non_identity_init =
  QCheck.Test.make ~name:"parallel_reduce with non-identity init" ~count:30
    QCheck.(
      triple (int_range 1 4) (int_range 0 500) (int_range (-50) 50))
    (fun (domains, n, init) ->
       Js_parallel.Pool.with_pool ~domains (fun p ->
           let body i = ((i * 7) mod 13) - 5 in
           let par =
             Js_parallel.Pool.parallel_reduce p ~lo:0 ~hi:n ~init ~body
               ~combine:( + ) ()
           in
           let seq =
             List.fold_left
               (fun acc i -> acc + body i)
               init
               (List.init n Fun.id)
           in
           par = seq))

(* String concatenation is associative but not commutative, and ">" is
   not its identity: the reduce must combine the chunk partials in
   ascending index order onto a single init for this to hold. *)
let prop_reduce_associative_non_commutative =
  QCheck.Test.make ~name:"parallel_reduce ordered (string concat)" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 0 120))
    (fun (domains, n) ->
       Js_parallel.Pool.with_pool ~domains (fun p ->
           let body i = String.make 1 (Char.chr (97 + (i mod 26))) in
           let par =
             Js_parallel.Pool.parallel_reduce p ~lo:0 ~hi:n ~init:">" ~body
               ~combine:( ^ ) ()
           in
           let seq =
             List.fold_left
               (fun acc i -> acc ^ body i)
               ">"
               (List.init n Fun.id)
           in
           String.equal par seq))

let test_map_array () =
  Js_parallel.Pool.with_pool ~domains:3 (fun p ->
      let src = Array.init 1000 (fun i -> i) in
      let dst = Js_parallel.Pool.map_array p (fun x -> x * x) src in
      Alcotest.(check bool) "squares" true
        (Array.for_all2 (fun a b -> a * a = b) src dst);
      Alcotest.(check (array int)) "empty array" [||]
        (Js_parallel.Pool.map_array p (fun x -> x) [||]))

let test_pool_shutdown_idempotent () =
  let p = Js_parallel.Pool.create ~domains:2 () in
  Js_parallel.Pool.parallel_for p ~lo:0 ~hi:10 (fun _ -> ());
  Js_parallel.Pool.shutdown p;
  Js_parallel.Pool.shutdown p (* second shutdown is a no-op *)

let test_pool_size_clamped () =
  Js_parallel.Pool.with_pool ~domains:0 (fun p ->
      Alcotest.(check int) "at least one participant" 1
        (Js_parallel.Pool.size p))

let test_submit_after_shutdown_raises () =
  let p = Js_parallel.Pool.create ~domains:2 () in
  Js_parallel.Pool.shutdown p;
  match Js_parallel.Pool.submit p (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "submit on a shut-down pool must raise"

let test_submitted_jobs_run () =
  Js_parallel.Pool.with_pool ~domains:3 (fun p ->
      let count = Atomic.make 0 in
      for _ = 1 to 20 do
        Js_parallel.Pool.submit p (fun () -> Atomic.incr count)
      done;
      (* a loop barrier also drains previously submitted jobs *)
      Js_parallel.Pool.parallel_for p ~lo:0 ~hi:1 (fun _ -> ());
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Atomic.get count < 20 && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      Alcotest.(check int) "all submitted jobs ran" 20 (Atomic.get count))

(* Regression: with no worker domain, [submit] used to push onto the
   caller's own deque, which nothing ran: [shutdown] joined no worker
   and the job was silently dropped. *)
let test_submit_single_participant () =
  let count = ref 0 in
  Js_parallel.Pool.with_pool ~domains:1 (fun p ->
      Js_parallel.Pool.submit p (fun () -> incr count));
  Alcotest.(check int) "the job ran once" 1 !count

(* An idle participant spins for [Pool.spin_window] rounds and then
   parks until work arrives, so a worker idle for ~50 ms has counted
   the window and one park; a sleep-polling backoff would keep
   counting while it waits. *)
let test_idle_worker_parks () =
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      Unix.sleepf 0.05;
      let st = Js_parallel.Pool.stats p in
      let worker =
        List.find
          (fun (d : Js_parallel.Telemetry.domain_stats) -> d.domain = 1)
          st.domains
      in
      let bound = Js_parallel.Pool.spin_window + 4 in
      if worker.idle_spins > bound then
        Alcotest.failf "idle worker counted %d idle spins, more than %d"
          worker.idle_spins bound)

(* Round after round, a parked pool must wake for a loop and a
   submitted job: every index runs exactly once, every job runs (by
   the latest in [shutdown], which drains), and [shutdown] of a pool
   whose workers are parked returns. *)
let test_wake_from_park () =
  List.iter
    (fun domains ->
       let rounds = 200 and n = 16 in
       let hits = Array.make (rounds * n) 0 in
       let jobs = Atomic.make 0 in
       Js_parallel.Pool.with_pool ~domains (fun p ->
           for r = 0 to rounds - 1 do
             (* long enough for every idle participant to park *)
             Unix.sleepf 0.0005;
             Js_parallel.Pool.parallel_for p ~lo:(r * n) ~hi:((r + 1) * n)
               ~chunk:1 (fun i -> hits.(i) <- hits.(i) + 1);
             Js_parallel.Pool.submit p (fun () -> Atomic.incr jobs)
           done;
           Unix.sleepf 0.005);
       Alcotest.(check bool)
         (Printf.sprintf "%d domains: every index ran once" domains)
         true
         (Array.for_all (fun h -> h = 1) hits);
       Alcotest.(check int)
         (Printf.sprintf "%d domains: every submitted job ran" domains)
         rounds (Atomic.get jobs))
    [ 2; 3 ]

(* Satellite regression: an exception escaping a submitted job must not
   vanish — it is counted in the tasks_failed telemetry and routed to
   the pool's [on_error] handler. *)
let test_submit_failure_reported () =
  let seen = Atomic.make 0 in
  let p =
    Js_parallel.Pool.create ~domains:2
      ~on_error:(fun exn ->
          if exn = Failure "submitted boom" then Atomic.incr seen)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Js_parallel.Pool.shutdown p)
    (fun () ->
       Js_parallel.Pool.submit p (fun () -> failwith "submitted boom");
       Js_parallel.Pool.submit p (fun () -> ());
       let deadline = Unix.gettimeofday () +. 5.0 in
       while Atomic.get seen < 1 && Unix.gettimeofday () < deadline do
         ignore (Js_parallel.Pool.parallel_for p ~lo:0 ~hi:1 (fun _ -> ()));
         Thread.yield ()
       done;
       Alcotest.(check int) "on_error saw the exception" 1 (Atomic.get seen);
       Alcotest.(check int) "tasks_failed counted" 1
         (Js_parallel.Telemetry.total_failed (Js_parallel.Pool.stats p));
       Alcotest.(check bool) "json mentions tasks_failed" true
         (Helpers.contains ~sub:"\"tasks_failed\":1"
            (Js_parallel.Pool.stats_json p)))

(* Property: whatever chunking and whichever index fails, the raise is
   re-raised in the caller, no chunk is left parked, and the same pool
   then runs a clean parallel_for and parallel_reduce. *)
let prop_pool_reusable_after_failure =
  QCheck.Test.make ~name:"pool reusable after any failing index" ~count:30
    QCheck.(
      quad (int_range 1 4) (int_range 1 200) (int_range 1 64)
        (int_range 0 1000))
    (fun (domains, n, chunk, fail_at) ->
       let fail_at = fail_at mod n in
       Js_parallel.Pool.with_pool ~domains (fun p ->
           let raised =
             match
               Js_parallel.Pool.parallel_for p ~lo:0 ~hi:n ~chunk (fun i ->
                   if i = fail_at then failwith "qcheck boom")
             with
             | exception Failure msg -> msg = "qcheck boom"
             | () -> false
           in
           let hits = Array.make n 0 in
           Js_parallel.Pool.parallel_for p ~lo:0 ~hi:n ~chunk (fun i ->
               hits.(i) <- hits.(i) + 1);
           let clean = Array.for_all (fun h -> h = 1) hits in
           let sum =
             Js_parallel.Pool.parallel_reduce p ~lo:0 ~hi:n ~chunk ~init:0
               ~body:Fun.id ~combine:( + ) ()
           in
           raised && clean && sum = n * (n - 1) / 2))

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let test_telemetry_tasks_sum_to_chunks () =
  Js_parallel.Pool.with_pool ~domains:3 (fun p ->
      Js_parallel.Pool.reset_stats p;
      Js_parallel.Pool.parallel_for p ~lo:0 ~hi:64 ~chunk:1 (fun _ -> ());
      let st = Js_parallel.Pool.stats p in
      Alcotest.(check int) "participants" 3 st.participants;
      Alcotest.(check int) "one loop recorded" 1 st.loops_run;
      Alcotest.(check int) "tasks executed = chunks" 64
        (Js_parallel.Telemetry.total_tasks st);
      match st.recent_loops with
      | [ l ] ->
        Alcotest.(check int) "chunk count in loop record" 64 l.chunks;
        Alcotest.(check bool) "wall >= 0" true (l.wall_ms >= 0.)
      | ls -> Alcotest.failf "expected 1 loop record, got %d" (List.length ls))

let burn_ms ms =
  let t0 = Unix.gettimeofday () in
  let x = ref 0. in
  while Unix.gettimeofday () -. t0 < ms /. 1000. do
    for _ = 1 to 1000 do
      x := !x +. 1.
    done
  done;
  ignore !x

let test_telemetry_steals_under_imbalance () =
  Js_parallel.Pool.with_pool ~domains:4 (fun p ->
      (* chunk 1 deals the 32 tasks round-robin, 8 to each of the 4
         deques, and an owner pops its newest task first, so task 28 is
         the first the caller's deque hands out. That task stalls until
         a steal has been counted. While it stalls, the rest of its
         deque is reachable only by stealing, so the steal lands once
         another participant has finished its own share; if a thief
         took task 28 itself, the steal has already happened. The wait
         is bounded and fails the loop loudly; no retries. *)
      Js_parallel.Pool.reset_stats p;
      let steals () =
        Js_parallel.Telemetry.total_steals (Js_parallel.Pool.stats p)
      in
      Js_parallel.Pool.parallel_for p ~lo:0 ~hi:32 ~chunk:1 (fun i ->
          if i = 28 then begin
            let deadline = Unix.gettimeofday () +. 10. in
            while steals () = 0 do
              if Unix.gettimeofday () > deadline then
                failwith "no steal within 10 s while task 28 stalled";
              Unix.sleepf 0.001
            done
          end
          else burn_ms 1.);
      let st = Js_parallel.Pool.stats p in
      Alcotest.(check bool) "steals attempted" true
        (List.fold_left
           (fun a (d : Js_parallel.Telemetry.domain_stats) ->
              a + d.steals_attempted)
           0 st.domains
         > 0);
      Alcotest.(check bool) "steals succeeded under imbalance" true
        (Js_parallel.Telemetry.total_steals st > 0))

let test_stats_json_shape () =
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      Js_parallel.Pool.parallel_for p ~lo:0 ~hi:100 (fun _ -> ());
      let json = Js_parallel.Pool.stats_json p in
      List.iter
        (fun sub ->
           Alcotest.(check bool)
             (Printf.sprintf "json mentions %s" sub)
             true
             (Helpers.contains ~sub json))
        [ "\"participants\":2"; "\"loops_run\""; "\"tasks_executed\"";
          "\"steals_succeeded\""; "\"domains\":["; "\"loops\":[";
          "\"wall_ms\""; "\"fork_ms\""; "\"join_ms\""; "\"idle_spins\"" ])

(* Wire format of every telemetry JSON surface: the ordered key lists
   of a 2-domain pool's snapshot (and of its domain and loop records),
   of the server counter section, and of [Par_exec.stats_json ~pool].
   External readers (the perf benchmark, [--stats] consumers) look keys
   up by these names, so the registry's two lists must render exactly
   these keys in this order. *)
let test_telemetry_wire_format () =
  let keys = function
    | Ceres_util.Json.Obj kvs -> List.map fst kvs
    | _ -> Alcotest.fail "expected a JSON object"
  in
  let first_of key doc =
    match Ceres_util.Json.member key doc with
    | Some (Ceres_util.Json.List (x :: _)) -> x
    | _ -> Alcotest.failf "expected a non-empty %s list" key
  in
  let pool_keys =
    [ "participants"; "jobs_submitted"; "loops_run"; "tasks_executed";
      "tasks_failed"; "steals_succeeded"; "retries"; "faults_injected";
      "speculation_skipped_static"; "cache_hits"; "cache_misses";
      "cache_evictions"; "domains"; "loops" ]
  in
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      Js_parallel.Pool.parallel_for p ~lo:0 ~hi:8 (fun _ -> ());
      let doc = Js_parallel.Telemetry.json_of_stats (Js_parallel.Pool.stats p) in
      Alcotest.(check (list string)) "pool snapshot keys" pool_keys (keys doc);
      Alcotest.(check (list string)) "domain record keys"
        [ "domain"; "tasks_executed"; "tasks_failed"; "steals_attempted";
          "steals_succeeded"; "idle_spins" ]
        (keys (first_of "domains" doc));
      Alcotest.(check (list string)) "loop record keys"
        [ "loop"; "chunks"; "wall_ms"; "fork_ms"; "join_ms" ]
        (keys (first_of "loops" doc));
      Alcotest.(check (list string)) "server section keys"
        [ "requests_admitted"; "requests_shed"; "requests_timed_out";
          "sessions_dropped" ]
        (keys (Js_parallel.Telemetry.server_counters_json ()));
      let pe =
        Js_parallel.Par_exec.create ~mode:(Js_parallel.Par_exec.Parallel p)
          ~jobs:2 ()
      in
      match
        Ceres_util.Json.of_string (Js_parallel.Par_exec.stats_json ~pool:p pe)
      with
      | Error e -> Alcotest.fail e
      | Ok doc ->
        Alcotest.(check (list string)) "par-exec stats keys"
          [ "jobs"; "nests"; "fallbacks"; "loops"; "pool" ]
          (keys doc);
        Alcotest.(check (list string)) "par-exec pool keys" pool_keys
          (keys (Option.get (Ceres_util.Json.member "pool" doc))))

(* [Pool.reset_stats] resets one pool's scheduling stats and nothing
   else: the registry's process-wide counters (here the server's shed
   count) belong to no pool and survive it. *)
let test_reset_stats_spares_registry () =
  Js_parallel.Telemetry.(incr requests_shed);
  let before = Js_parallel.Telemetry.(count requests_shed) in
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      Js_parallel.Pool.parallel_for p ~lo:0 ~hi:8 (fun _ -> ());
      Js_parallel.Pool.reset_stats p;
      let st = Js_parallel.Pool.stats p in
      Alcotest.(check int) "pool loops reset" 0 st.loops_run;
      Alcotest.(check int) "pool tasks reset" 0
        (Js_parallel.Telemetry.total_tasks st));
  Alcotest.(check int) "shed count unchanged" before
    Js_parallel.Telemetry.(count requests_shed)

(* ------------------------------------------------------------------ *)
(* Speculative executor *)

let map_setup =
  "var src = []; var dst = [];\n\
   (function() { for (var i = 0; i < 40; i++) { src.push(i * 3 % 11); } })();"

let test_speculation_commits_on_map () =
  match
    Js_parallel.Speculative.run ~domains:2 ~setup_src:map_setup
      ~iter_src:"function(i) { dst[i] = src[i] * src[i]; return dst[i]; }"
      ~lo:0 ~hi:40 ()
  with
  | Committed { result; _ } ->
    let seq =
      Js_parallel.Speculative.run_sequential ~setup_src:map_setup
        ~iter_src:"function(i) { dst[i] = src[i] * src[i]; return dst[i]; }"
        ~lo:0 ~hi:40 ()
    in
    Alcotest.(check (float 1e-9)) "parallel = sequential" seq result
  | Aborted r ->
    Alcotest.failf "unexpected abort: %s"
      (Js_parallel.Speculative.abort_reason_to_string r)

let test_speculation_aborts_on_flow () =
  match
    Js_parallel.Speculative.run ~domains:2 ~setup_src:map_setup
      ~iter_src:
        "function(i) { dst[i] = (i > 0 ? dst[i - 1] : 0) + src[i]; return dst[i]; }"
      ~lo:0 ~hi:40 ()
  with
  | Committed _ -> Alcotest.fail "prefix sum must abort"
  | Aborted (Carried_dependence reasons) ->
    Alcotest.(check bool) "reason names the flow read" true
      (List.exists (Helpers.contains ~sub:"read of property") reasons)
  | Aborted other ->
    Alcotest.failf "wrong abort reason: %s"
      (Js_parallel.Speculative.abort_reason_to_string other)

let test_speculation_aborts_on_waw () =
  match
    Js_parallel.Speculative.run ~domains:2 ~setup_src:map_setup
      ~iter_src:"function(i) { dst[0] = i; return i; }" ~lo:0 ~hi:40 ()
  with
  | Committed _ -> Alcotest.fail "all-write-one-slot must abort"
  | Aborted (Carried_dependence reasons) ->
    Alcotest.(check bool) "reason names the WAW" true
      (List.exists (Helpers.contains ~sub:"repeated write") reasons)
  | Aborted other ->
    Alcotest.failf "wrong abort reason: %s"
      (Js_parallel.Speculative.abort_reason_to_string other)

let test_speculation_aborts_on_dom () =
  let setup =
    "var el = document.createElement(\"div\");\n\
     document.body.appendChild(el);"
  in
  match
    Js_parallel.Speculative.run ~domains:2 ~setup_src:setup
      ~iter_src:"function(i) { el.setAttribute(\"n\", \"\" + i); return i; }"
      ~lo:0 ~hi:10 ()
  with
  | Committed _ -> Alcotest.fail "DOM loop must abort"
  | Aborted (Dom_access n) -> Alcotest.(check bool) "counted" true (n > 0)
  | Aborted other ->
    Alcotest.failf "wrong abort reason: %s"
      (Js_parallel.Speculative.abort_reason_to_string other)

let test_speculation_reports_runtime_errors () =
  match
    Js_parallel.Speculative.run ~domains:2 ~setup_src:""
      ~iter_src:"function(i) { return missing_function(i); }" ~lo:0 ~hi:4 ()
  with
  | Committed _ -> Alcotest.fail "must abort"
  | Aborted (Runtime_error msg) ->
    Alcotest.(check bool) "mentions the reference error" true
      (Helpers.contains ~sub:"missing_function" msg)
  | Aborted other ->
    Alcotest.failf "wrong abort reason: %s"
      (Js_parallel.Speculative.abort_reason_to_string other)

(* Satellite regression: a runaway iteration body used to blow the
   whole speculation up with an escaping [Budget_exhausted]; it must
   degrade into an abort that names the budget. *)
let test_speculation_aborts_on_runaway_body () =
  match
    Js_parallel.Speculative.run ~domains:2 ~budget:100_000L ~setup_src:""
      ~iter_src:"function(i) { while (true) { i = i + 1; } return i; }"
      ~lo:0 ~hi:4 ()
  with
  | Committed _ -> Alcotest.fail "runaway body must abort"
  | Aborted (Runtime_error msg) ->
    Alcotest.(check bool) "reason names the budget" true
      (Helpers.contains ~sub:"budget exhausted" msg)
  | Aborted other ->
    Alcotest.failf "wrong abort reason: %s"
      (Js_parallel.Speculative.abort_reason_to_string other)

let test_speculation_reduction_accumulator_allowed () =
  (* the harness's own __acc accumulation must not abort the loop *)
  match
    Js_parallel.Speculative.run ~domains:2 ~setup_src:map_setup
      ~iter_src:"function(i) { return src[i]; }" ~lo:0 ~hi:40 ()
  with
  | Committed { result; _ } ->
    Alcotest.(check bool) "sum positive" true (result > 0.)
  | Aborted r ->
    Alcotest.failf "unexpected abort: %s"
      (Js_parallel.Speculative.abort_reason_to_string r)

(* ------------------------------------------------------------------ *)
(* Native kernels: parallel equals sequential *)

let test_kernels_parallel_equals_sequential () =
  List.iter
    (fun (k : Workloads.Kernels.kernel) ->
       let size = max 32 (k.default_size / 8) in
       let seq = k.run size in
       let par =
         Js_parallel.Pool.with_pool ~domains:2 (fun p -> k.run ~pool:p size)
       in
       Alcotest.(check bool)
         (k.kname ^ " checksum equality")
         true
         (Float.abs (seq -. par) < (1e-9 *. Float.abs seq) +. 1e-9))
    Workloads.Kernels.all

let suite =
  [ ("parallel_for coverage", `Quick, test_parallel_for_covers_range);
    ("parallel_for edge ranges", `Quick, test_parallel_for_empty_and_tiny);
    ("parallel_for exceptions", `Quick, test_parallel_for_exception_propagates);
    ("parallel_reduce sum", `Quick, test_parallel_reduce_sum);
    qtest prop_reduce_matches_sequential_fold;
    qtest prop_reduce_non_identity_init;
    qtest prop_reduce_associative_non_commutative;
    ("map_array", `Quick, test_map_array);
    ("shutdown idempotent", `Quick, test_pool_shutdown_idempotent);
    ("pool size clamped", `Quick, test_pool_size_clamped);
    ("submit after shutdown raises", `Quick, test_submit_after_shutdown_raises);
    ("submitted jobs run", `Quick, test_submitted_jobs_run);
    ("submit failures reported", `Quick, test_submit_failure_reported);
    qtest prop_pool_reusable_after_failure;
    ("telemetry tasks = chunks", `Quick, test_telemetry_tasks_sum_to_chunks);
    ("telemetry steals under imbalance", `Slow,
     test_telemetry_steals_under_imbalance);
    ("telemetry json shape", `Quick, test_stats_json_shape);
    ("speculation commits on map", `Quick, test_speculation_commits_on_map);
    ("speculation aborts on flow", `Quick, test_speculation_aborts_on_flow);
    ("speculation aborts on WAW", `Quick, test_speculation_aborts_on_waw);
    ("speculation aborts on DOM", `Quick, test_speculation_aborts_on_dom);
    ("speculation reports errors", `Quick, test_speculation_reports_runtime_errors);
    ("speculation aborts on runaway body", `Quick,
     test_speculation_aborts_on_runaway_body);
    ("speculation allows reduction", `Quick, test_speculation_reduction_accumulator_allowed);
    ("kernels parallel = sequential", `Slow, test_kernels_parallel_equals_sequential);
    ("telemetry wire format", `Quick, test_telemetry_wire_format);
    ("reset_stats spares the registry", `Quick,
     test_reset_stats_spares_registry);
    ("submit on a one-participant pool runs", `Quick,
     test_submit_single_participant);
    ("idle worker parks", `Quick, test_idle_worker_parks);
    ("parked pool wakes for every round", `Quick, test_wake_from_park) ]
