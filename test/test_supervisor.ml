(* Supervisor, its retry schedule, and deterministic fault injection.
   Chaos is a process-wide switch, so every test that enables it
   disables it again in a [Fun.protect] finalizer. *)

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
    Js_parallel.Supervisor.run ~retries:3 (fun () ->
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

(* A chaos fault is what [default_classify] calls transient. *)
let injected ordinal =
  Js_parallel.Fault.Injected
    { site = Js_parallel.Fault.Task; key = "flaky"; ordinal }

let test_transient_retry_recovers () =
  let calls = ref 0 in
  let before = Js_parallel.Telemetry.(count retries) in
  match
    Js_parallel.Supervisor.run ~retries:2 (fun () ->
        incr calls;
        if !calls < 3 then raise (injected !calls);
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
    Js_parallel.Supervisor.run ~retries:2 (fun () ->
        incr calls;
        raise (injected !calls))
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
(* Retry schedule *)

(* The one retry schedule: 1 ms doubling to a 50 ms cap, times a
   jitter factor in [0.75, 1.25). Each delay is a pure function of the
   attempt and stays inside that band, past the cap too. *)
let test_backoff_deterministic_and_bounded () =
  for attempt = 1 to 12 do
    let d = Js_parallel.Supervisor.backoff_ms ~attempt in
    let raw = Float.min 50. (Float.pow 2. (float_of_int (attempt - 1))) in
    Alcotest.(check (float 0.)) "pure function of the attempt" d
      (Js_parallel.Supervisor.backoff_ms ~attempt);
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d within [0.75, 1.25) of %g ms" attempt raw)
      true
      (d >= 0.75 *. raw && d < 1.25 *. raw)
  done

(* The jitter is keyed on the attempt alone, not drawn from a shared
   random stream, so there is no run-to-run jitter: attempts 1-6 wait
   exactly these delays on every call. *)
let test_backoff_exact_without_jitter () =
  List.iter
    (fun (attempt, expect) ->
       let d = Js_parallel.Supervisor.backoff_ms ~attempt in
       Alcotest.(check (float 1e-12))
         (Printf.sprintf "attempt %d" attempt) expect d;
       Alcotest.(check (float 0.)) "repeats identically" d
         (Js_parallel.Supervisor.backoff_ms ~attempt))
    [ (1, 0.927359770215199); (2, 2.3408251887421869);
      (3, 3.4583918631092914); (4, 6.9461899860488137);
      (5, 13.047836908380315); (6, 34.757528771730613) ]

(* [default_classify] retries an interrupted syscall and nothing
   deterministic: EINTR gets its one retry, a [failwith] none. *)
let test_default_classify () =
  let attempts exn =
    let calls = ref 0 in
    (match
       Js_parallel.Supervisor.run ~retries:1 (fun () ->
           incr calls;
           raise exn)
     with
     | Ok () -> Alcotest.fail "must fail"
     | Error _ -> ());
    !calls
  in
  Alcotest.(check int) "EINTR retried" 2
    (attempts (Unix.Unix_error (Unix.EINTR, "read", "")));
  Alcotest.(check int) "failwith not retried" 1 (attempts (Failure "bug"))

(* ------------------------------------------------------------------ *)
(* Fault plans *)

(* What a fresh session for [key] does to its first attempt under the
   current seed: kill it at the attempt gate, arm a tick probe on the
   attempt's interpreter state, or neither. *)
let first_attempt key =
  let session = Js_parallel.Fault.session ~key in
  match Js_parallel.Fault.attempt_gate session with
  | exception Js_parallel.Fault.Injected { site = Task; ordinal; _ } ->
    Printf.sprintf "task #%d" ordinal
  | () ->
    let st = Interp.Eval.create () in
    Js_parallel.Fault.arm session st;
    if st.Interp.Value.on_tick <> None then "tick probe" else "runs"

let test_plan_deterministic () =
  List.iter
    (fun seed ->
       with_chaos seed (fun () ->
           List.iter
             (fun key ->
                Alcotest.(check string) "plan is a pure function"
                  (first_attempt key) (first_attempt key))
             [ "HAAR.js"; "Ace"; "fluidSim"; "pool" ]))
    [ 0; 1; 2; 3; 42 ]

let test_plans_vary_and_include_faults () =
  let keys = List.init 60 (fun i -> Printf.sprintf "workload-%d" i) in
  let outcomes = with_chaos 7 (fun () -> List.map first_attempt keys) in
  (* a ninth of keys draw a task fault and a ninth a tick fault; 60 keys
     make every outcome certain *)
  List.iter
    (fun o ->
       Alcotest.(check bool) ("some keys: " ^ o) true (List.mem o outcomes))
    [ "task #1"; "tick probe"; "runs" ]

let test_session_only_under_chaos () =
  Alcotest.(check bool) "no session when disabled" true
    (Js_parallel.Fault.session ~key:"x" = None);
  with_chaos 11 (fun () ->
      Alcotest.(check bool) "session when enabled" true
        (Js_parallel.Fault.session ~key:"x" <> None))

let test_enable_from_env () =
  let keys = List.init 60 (fun i -> Printf.sprintf "workload-%d" i) in
  let expected = with_chaos 42 (fun () -> List.map first_attempt keys) in
  Unix.putenv Js_parallel.Fault.env_var "42";
  Fun.protect
    ~finally:(fun () ->
        Unix.putenv Js_parallel.Fault.env_var "";
        Js_parallel.Fault.disable ())
    (fun () ->
       Alcotest.(check bool) "enabled from env" true
         (Js_parallel.Fault.enable_from_env ());
       Alcotest.(check (list string)) "seed parsed: seed 42's plans"
         expected (List.map first_attempt keys));
  Alcotest.(check bool) "disabled again" false (Js_parallel.Fault.enabled ())

(* Task faults always target attempt 1, so a supervisor with one retry
   recovers from them — the deterministic retry-path exercise. *)
let test_task_fault_recovered_by_retry () =
  with_chaos 0 (fun () ->
      (* find a key whose plan is a first-attempt task fault *)
      let key =
        List.find
          (fun key -> String.equal (first_attempt key) "task #1")
          (List.init 1000 (fun i -> Printf.sprintf "k%d" i))
      in
      let session = Js_parallel.Fault.session ~key in
      let runs = ref 0 in
      match
        Js_parallel.Supervisor.run ~retries:1 (fun () ->
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
     test_backoff_exact_without_jitter);
    ("default_classify: EINTR retried, failwith not", `Quick,
     test_default_classify);
    ("fault plans deterministic", `Quick, test_plan_deterministic);
    ("fault plans vary", `Quick, test_plans_vary_and_include_faults);
    ("sessions only under chaos", `Quick, test_session_only_under_chaos);
    ("chaos enabled from env", `Quick, test_enable_from_env);
    ("task fault recovered by retry", `Quick,
     test_task_fault_recovered_by_retry);
    ("supervised pipeline deterministic", `Slow,
     test_supervised_pipeline_deterministic_failures);
    ("chaos seeds print a FAILED row", `Quick, test_chaos_failure_rows) ]
