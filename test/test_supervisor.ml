(* Supervisor, backoff, and deterministic fault injection. Chaos is a
   process-wide switch, so every test that enables it disables it again
   in a [Fun.protect] finalizer. *)

let with_chaos seed f =
  Js_parallel.Fault.enable ~seed;
  Fun.protect ~finally:Js_parallel.Fault.disable f

(* ------------------------------------------------------------------ *)
(* Supervisor *)

let test_run_ok () =
  match Js_parallel.Supervisor.run (fun () -> 41 + 1) with
  | Ok v -> Alcotest.(check int) "value" 42 v
  | Error fl ->
    Alcotest.failf "unexpected failure: %s"
      (Js_parallel.Supervisor.failure_to_string fl)

let test_permanent_not_retried () =
  let calls = ref 0 in
  match
    Js_parallel.Supervisor.run ~retries:3 ~backoff:Js_parallel.Backoff.none
      (fun () ->
         incr calls;
         failwith "deterministic bug")
  with
  | Ok _ -> Alcotest.fail "must fail"
  | Error fl ->
    Alcotest.(check int) "called once" 1 !calls;
    Alcotest.(check int) "one attempt" 1 fl.attempts;
    Alcotest.(check string) "permanent" "permanent"
      (Js_parallel.Supervisor.classification_to_string fl.classification);
    Alcotest.(check bool) "exception text kept" true
      (Helpers.contains ~sub:"deterministic bug" fl.exn_text)

let test_transient_retry_recovers () =
  let calls = ref 0 in
  let before = Js_parallel.Telemetry.(count retries) in
  match
    Js_parallel.Supervisor.run ~retries:2 ~backoff:Js_parallel.Backoff.none
      ~classify:(fun _ -> Js_parallel.Supervisor.Transient)
      (fun () ->
         incr calls;
         if !calls < 3 then failwith "flaky";
         "ok")
  with
  | Ok v ->
    Alcotest.(check string) "value from third attempt" "ok" v;
    Alcotest.(check int) "three calls" 3 !calls;
    Alcotest.(check int) "two retries counted" 2
      (Js_parallel.Telemetry.(count retries) - before)
  | Error fl ->
    Alcotest.failf "should have recovered: %s"
      (Js_parallel.Supervisor.failure_to_string fl)

let test_transient_retries_exhausted () =
  let calls = ref 0 in
  match
    Js_parallel.Supervisor.run ~retries:2 ~backoff:Js_parallel.Backoff.none
      ~classify:(fun _ -> Js_parallel.Supervisor.Transient)
      (fun () ->
         incr calls;
         failwith "always")
  with
  | Ok _ -> Alcotest.fail "must fail"
  | Error fl ->
    Alcotest.(check int) "initial + 2 retries" 3 !calls;
    Alcotest.(check int) "attempts reported" 3 fl.attempts;
    Alcotest.(check string) "still transient" "transient"
      (Js_parallel.Supervisor.classification_to_string fl.classification)

let test_budget_restored_after_run () =
  (match
     Js_parallel.Supervisor.run ~budget:123L (fun () ->
         Alcotest.(check (option int64)) "budget visible inside"
           (Some 123L)
           (Js_parallel.Supervisor.active_budget ()))
   with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "no failure expected");
  Alcotest.(check (option int64)) "budget cleared outside" None
    (Js_parallel.Supervisor.active_budget ())

(* The watchdog end-to-end: the budget published by [run] caps the
   interpreter state the harness builds deep inside the attempt, and
   the overrun comes back as a structured permanent failure citing
   deterministic virtual time. *)
let test_watchdog_budget_end_to_end () =
  let w = Option.get (Workloads.Registry.find "Ace") in
  match
    Js_parallel.Supervisor.run ~budget:30_000L (fun () ->
        Workloads.Harness.run_lightweight w)
  with
  | Ok _ -> Alcotest.fail "a 100-virtual-ms budget must kill Ace"
  | Error fl ->
    Alcotest.(check bool) "names the watchdog" true
      (Helpers.contains ~sub:"budget exhausted" fl.exn_text);
    Alcotest.(check string) "permanent" "permanent"
      (Js_parallel.Supervisor.classification_to_string fl.classification);
    (* the overrun is detected on the first tick past the cap, so the
       reported busy time sits just above budget / rate *)
    Alcotest.(check (float 1.0)) "virtual time = budget / rate" 100.
      fl.virtual_ms

let test_failure_to_string_deterministic_fields () =
  match
    Js_parallel.Supervisor.run (fun () -> failwith "boom")
  with
  | Ok _ -> Alcotest.fail "must fail"
  | Error fl ->
    let s = Js_parallel.Supervisor.failure_to_string fl in
    Alcotest.(check bool) "no wall-clock in the stdout form" false
      (Helpers.contains ~sub:"wall" s);
    Alcotest.(check bool) "wall-clock only in details" true
      (Helpers.contains ~sub:"wall ms"
         (Js_parallel.Supervisor.failure_details fl))

(* ------------------------------------------------------------------ *)
(* Backoff *)

let test_backoff_deterministic_and_bounded () =
  let b = Js_parallel.Backoff.make ~base_ms:2. ~factor:2. ~max_ms:20. () in
  for attempt = 1 to 8 do
    let d1 = Js_parallel.Backoff.delay_ms b ~attempt in
    let d2 = Js_parallel.Backoff.delay_ms b ~attempt in
    Alcotest.(check (float 0.)) "pure function of (config, attempt)" d1 d2;
    Alcotest.(check bool) "non-negative" true (d1 >= 0.);
    Alcotest.(check bool) "within jittered cap" true (d1 <= 20. *. 1.25)
  done

let test_backoff_no_jitter_is_exact_exponential () =
  let b =
    Js_parallel.Backoff.make ~base_ms:1. ~factor:2. ~max_ms:1000. ~jitter:0. ()
  in
  List.iter
    (fun (attempt, expect) ->
       Alcotest.(check (float 1e-9)) "base * factor^(attempt-1)" expect
         (Js_parallel.Backoff.delay_ms b ~attempt))
    [ (1, 1.); (2, 2.); (3, 4.); (4, 8.); (5, 16.) ]

(* ------------------------------------------------------------------ *)
(* Fault plans *)

let test_plan_deterministic () =
  List.iter
    (fun seed ->
       List.iter
         (fun key ->
            Alcotest.(check string) "plan is a pure function"
              (Js_parallel.Fault.describe_plan ~seed ~key)
              (Js_parallel.Fault.describe_plan ~seed ~key))
         [ "HAAR.js"; "Ace"; "fluidSim"; "pool" ])
    [ 0; 1; 2; 3; 42 ]

let test_plans_vary_and_include_faults () =
  let keys = List.init 60 (fun i -> Printf.sprintf "workload-%d" i) in
  let plans =
    List.map (fun key -> Js_parallel.Fault.describe_plan ~seed:7 ~key) keys
  in
  let faulted =
    List.filter (fun p -> not (String.equal p "no fault")) plans
  in
  (* a third of keys draw a fault; 60 keys make both outcomes certain *)
  Alcotest.(check bool) "some keys faulted" true (faulted <> []);
  Alcotest.(check bool) "some keys clean" true
    (List.length faulted < List.length plans)

let test_session_only_under_chaos () =
  Alcotest.(check bool) "no session when disabled" true
    (Js_parallel.Fault.session ~key:"x" = None);
  with_chaos 11 (fun () ->
      Alcotest.(check bool) "session when enabled" true
        (Js_parallel.Fault.session ~key:"x" <> None))

let test_enable_from_env () =
  Unix.putenv Js_parallel.Fault.env_var "42";
  Fun.protect
    ~finally:(fun () ->
        Unix.putenv Js_parallel.Fault.env_var "";
        Js_parallel.Fault.disable ())
    (fun () ->
       Alcotest.(check bool) "enabled from env" true
         (Js_parallel.Fault.enable_from_env ());
       Alcotest.(check (option int)) "seed parsed" (Some 42)
         (Js_parallel.Fault.current_seed ()));
  Alcotest.(check bool) "disabled again" false (Js_parallel.Fault.enabled ())

(* Task faults always target attempt 1, so a supervisor with one retry
   recovers from them — the deterministic retry-path exercise. *)
let test_task_fault_recovered_by_retry () =
  with_chaos 0 (fun () ->
      (* find a key whose plan is a first-attempt task fault *)
      let key =
        List.find
          (fun key ->
             String.equal
               (Js_parallel.Fault.describe_plan ~seed:0 ~key)
               "fail task-attempt #1")
          (List.init 1000 (fun i -> Printf.sprintf "k%d" i))
      in
      let session = Js_parallel.Fault.session ~key in
      let runs = ref 0 in
      match
        Js_parallel.Supervisor.run ~retries:1
          ~backoff:Js_parallel.Backoff.none (fun () ->
              Js_parallel.Fault.attempt_gate session;
              incr runs;
              "survived")
      with
      | Ok v ->
        Alcotest.(check string) "second attempt survived" "survived" v;
        Alcotest.(check int) "first attempt killed before the body" 1 !runs
      | Error fl ->
        Alcotest.failf "retry should have recovered: %s"
          (Js_parallel.Supervisor.failure_to_string fl))

(* End-to-end determinism: under a fixed seed the service's supervised
   fan-out produces the same failure set — same workload, same rendered
   failure — on every run. The seed is searched once (deterministically:
   seeds 0, 1, 2, ... are probed in order), so the test does not depend
   on which seeds happen to kill this workload set. Each run gets a
   fresh service, so no result comes from the cache. *)
let test_supervised_pipeline_deterministic_failures () =
  let reqs =
    List.map (Service.Request.make Service.Request.Profile)
      [ "HAAR.js"; "MyScript" ]
  in
  let run_once seed =
    with_chaos seed (fun () ->
        Service.run_batch (Service.create ~retries:0 ()) reqs)
  in
  let failed (resp : Service.Response.t) = Result.is_error resp.result in
  let rec find_killing_seed seed =
    if seed > 60 then Alcotest.fail "no seed in 0..60 killed any workload"
    else if List.exists failed (run_once seed) then seed
    else find_killing_seed (seed + 1)
  in
  let seed = find_killing_seed 0 in
  let render resps =
    String.concat "\n"
      (List.map2
         (fun (req : Service.Request.t) (resp : Service.Response.t) ->
            match resp.result with
            | Ok _ -> req.workload ^ ": ok"
            | Error { failure = Some fl; _ } ->
              req.workload ^ ": " ^ Js_parallel.Supervisor.failure_to_string fl
            | Error e -> req.workload ^ ": " ^ e.message)
         reqs resps)
  in
  let a = render (run_once seed) and b = render (run_once seed) in
  Alcotest.(check string) "identical failure set on repeat" a b;
  Alcotest.(check bool) "at least one injected failure" true
    (Helpers.contains ~sub:"chaos fault injected" a)

(* The chaos goldens ([golden/dune]) run the supervised pipeline under
   seeds 1, 3 and 4, each of which must exit 1 (asserted by the rule).
   Each seed must also kill a workload: a FAILED row among the
   survivors' rows, and the trailing failure summary. *)
let test_chaos_failure_rows () =
  List.iter
    (fun seed ->
       let out = Helpers.golden (Printf.sprintf "chaos.seed-%d.out" seed) in
       List.iter
         (fun sub ->
            Alcotest.(check bool) (Printf.sprintf "seed %d: %S" seed sub) true
              (Helpers.contains ~sub out))
         [ ": FAILED after"; "workload(s) failed:" ])
    [ 1; 3; 4 ]

let suite =
  [ ("supervisor ok", `Quick, test_run_ok);
    ("permanent failures not retried", `Quick, test_permanent_not_retried);
    ("transient retry recovers", `Quick, test_transient_retry_recovers);
    ("transient retries exhausted", `Quick, test_transient_retries_exhausted);
    ("budget scoped to the attempt", `Quick, test_budget_restored_after_run);
    ("watchdog budget end-to-end", `Quick, test_watchdog_budget_end_to_end);
    ("failure rendering deterministic", `Quick,
     test_failure_to_string_deterministic_fields);
    ("backoff deterministic and bounded", `Quick,
     test_backoff_deterministic_and_bounded);
    ("backoff exact without jitter", `Quick,
     test_backoff_no_jitter_is_exact_exponential);
    ("fault plans deterministic", `Quick, test_plan_deterministic);
    ("fault plans vary", `Quick, test_plans_vary_and_include_faults);
    ("sessions only under chaos", `Quick, test_session_only_under_chaos);
    ("chaos enabled from env", `Quick, test_enable_from_env);
    ("task fault recovered by retry", `Quick,
     test_task_fault_recovered_by_retry);
    ("supervised pipeline deterministic", `Slow,
     test_supervised_pipeline_deterministic_failures);
    ("chaos seeds print a FAILED row", `Quick, test_chaos_failure_rows) ]
