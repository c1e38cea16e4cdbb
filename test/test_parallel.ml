(* Domain pool, parallel_for and telemetry. Every test here checks
   correctness (results, exceptions, counters), never speedup, so the
   suite passes on any core count. *)

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
      let sum = Atomic.make 0 in
      Js_parallel.Pool.parallel_for p ~lo:1 ~hi:11 (fun i ->
          ignore (Atomic.fetch_and_add sum i));
      Alcotest.(check int) "pool survives exceptions" 55 (Atomic.get sum))

let test_pool_shutdown_idempotent () =
  let p = Js_parallel.Pool.create ~domains:2 () in
  Js_parallel.Pool.parallel_for p ~lo:0 ~hi:10 (fun _ -> ());
  Js_parallel.Pool.shutdown p;
  Js_parallel.Pool.shutdown p (* second shutdown is a no-op *)

let test_pool_size_clamped () =
  Js_parallel.Pool.with_pool ~domains:0 (fun p ->
      Alcotest.(check int) "at least one participant" 1
        (Js_parallel.Pool.size p))

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

(* Round after round, a parked pool must wake for a loop: every index
   runs exactly once, and [shutdown] of a pool whose workers are parked
   returns. *)
let test_wake_from_park () =
  List.iter
    (fun domains ->
       let rounds = 200 and n = 16 in
       let hits = Array.make (rounds * n) 0 in
       Js_parallel.Pool.with_pool ~domains (fun p ->
           for r = 0 to rounds - 1 do
             (* long enough for every idle participant to park *)
             Unix.sleepf 0.0005;
             Js_parallel.Pool.parallel_for p ~lo:(r * n) ~hi:((r + 1) * n)
               ~chunk:1 (fun i -> hits.(i) <- hits.(i) + 1)
           done;
           Unix.sleepf 0.005);
       Alcotest.(check bool)
         (Printf.sprintf "%d domains: every index ran once" domains)
         true
         (Array.for_all (fun h -> h = 1) hits))
    [ 2; 3 ]

(* Property: whatever chunking and whichever index fails, the raise is
   re-raised in the caller, no chunk is left parked, and the same pool
   then runs a clean parallel_for. *)
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
           raised && Array.for_all (fun h -> h = 1) hits))

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
      let json = Js_parallel.Telemetry.to_json (Js_parallel.Pool.stats p) in
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
    [ "participants"; "loops_run"; "tasks_executed"; "steals_succeeded";
      "retries"; "faults_injected"; "cache_hits"; "cache_misses";
      "cache_evictions"; "domains"; "loops" ]
  in
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      Js_parallel.Pool.parallel_for p ~lo:0 ~hi:8 (fun _ -> ());
      let doc = Js_parallel.Telemetry.json_of_stats (Js_parallel.Pool.stats p) in
      Alcotest.(check (list string)) "pool snapshot keys" pool_keys (keys doc);
      Alcotest.(check (list string)) "domain record keys"
        [ "domain"; "tasks_executed"; "steals_attempted";
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

let suite =
  [ ("parallel_for coverage", `Quick, test_parallel_for_covers_range);
    ("parallel_for edge ranges", `Quick, test_parallel_for_empty_and_tiny);
    ("parallel_for exceptions", `Quick, test_parallel_for_exception_propagates);
    ("shutdown idempotent", `Quick, test_pool_shutdown_idempotent);
    ("pool size clamped", `Quick, test_pool_size_clamped);
    qtest prop_pool_reusable_after_failure;
    ("telemetry tasks = chunks", `Quick, test_telemetry_tasks_sum_to_chunks);
    ("telemetry steals under imbalance", `Slow,
     test_telemetry_steals_under_imbalance);
    ("telemetry json shape", `Quick, test_stats_json_shape);
    ("telemetry wire format", `Quick, test_telemetry_wire_format);
    ("reset_stats spares the registry", `Quick,
     test_reset_stats_spares_registry);
    ("idle worker parks", `Quick, test_idle_worker_parks);
    ("parked pool wakes for every round", `Quick, test_wake_from_park) ]
