(* The service core: request parsing, cache behaviour (hit-after-miss
   byte identity, LRU eviction, config keying), batch/sequential
   equivalence, the JSONL protocol, and the CLI exit-code convention
   (asserted against the installed executable). *)

let qtest = QCheck_alcotest.to_alcotest

let render (r : Service.Response.t) =
  Service.Json.to_string (Service.Response.to_json r)

(* Collapse the protocol step to its response line (a [Stop] still
   carries one — the shutdown acknowledgement). *)
let reply = function
  | Service.Serve.Reply l | Service.Serve.Stop l -> Some l
  | Service.Serve.No_reply -> None

(* ------------------------------------------------------------------ *)
(* Request JSON round trip *)

let test_request_roundtrip () =
  List.iter
    (fun req ->
       match Service.Request.of_json (Service.Request.to_json req) with
       | Ok req' ->
         Alcotest.(check bool) "round trip" true (req = req')
       | Error msg -> Alcotest.failf "round trip failed: %s" msg)
    [ Service.Request.make Service.Request.Profile "MyScript";
      Service.Request.make ~scale:0.5 Service.Request.Profile "Ace";
      Service.Request.make ~focus:3 Service.Request.Deps "Ace";
      Service.Request.make ~max_nests:16 Service.Request.Pipeline "D3.js";
      Service.Request.make ~cores:[ 8; 2; 2; 4 ] Service.Request.Advise
        "HAAR.js" ]

(* The law behind the hand-picked cases: every pass — Advise included
   — round-trips through the one strict parser whatever the config;
   [make] normalizes cores so equality is exact. *)
let request_roundtrip_all_passes =
  QCheck.Test.make ~name:"request round trip (all passes, any config)"
    ~count:200
    QCheck.(
      quad
        (oneofl (List.map snd Service.Request.all_passes))
        (pair
           (option (oneofl [ 0.25; 0.5; 1.5; 2.0 ]))
           (option (int_range 0 40)))
        (pair
           (option (int_range 1 32))
           (option (list_of_size (Gen.int_range 0 6) (int_range (-2) 64))))
        (oneofl [ "MyScript"; "Ace"; "D3.js"; "nosuch" ]))
    (fun (pass, (scale, focus), (max_nests, cores), wl) ->
       let req =
         Service.Request.make ?scale ?focus ?max_nests ?cores pass wl
       in
       match Service.Request.of_json (Service.Request.to_json req) with
       | Ok req' -> req = req'
       | Error _ -> false)

(* The optional protocol-version member (DESIGN.md §9): v1 accepted on
   requests, ops and batches alike; any other version earns the
   structured unsupported-version error line — never a crash. *)
let test_serve_version_gate () =
  let svc = Service.create () in
  let h = Service.handler svc in
  (match reply (Service.Serve.handle_line h "{\"v\":1,\"op\":\"ping\"}") with
   | Some l -> Alcotest.(check string) "v1 ping" "{\"v\":1,\"ok\":true}" l
   | None -> Alcotest.fail "v1 ping got no response");
  (match
     reply
       (Service.Serve.handle_line h
          "{\"v\":1,\"pass\":\"profile\",\"workload\":\"MyScript\"}")
   with
   | Some l ->
     Alcotest.(check bool) "v1 request accepted" true
       (Helpers.contains ~sub:"\"result\"" l)
   | None -> Alcotest.fail "v1 request got no response");
  List.iter
    (fun line ->
       match reply (Service.Serve.handle_line h line) with
       | Some l ->
         Alcotest.(check bool)
           (Printf.sprintf "structured rejection for %s" line)
           true
           (Helpers.contains ~sub:"unsupported-version" l
            && Helpers.contains ~sub:"{\"v\":1," l)
       | None -> Alcotest.fail "version mismatch got no response")
    [ "{\"v\":2,\"pass\":\"profile\",\"workload\":\"MyScript\"}";
      "{\"v\":0,\"op\":\"ping\"}";
      "[{\"v\":7,\"pass\":\"profile\",\"workload\":\"MyScript\"}]" ];
  match reply (Service.Serve.handle_line h "{\"v\":true,\"op\":\"ping\"}")
  with
  | Some l ->
    Alcotest.(check bool) "non-integer v is bad-request" true
      (Helpers.contains ~sub:"bad-request" l)
  | None -> Alcotest.fail "non-integer v got no response"

let test_request_rejects_junk () =
  let bad json =
    match Service.Request.of_json json with
    | Ok _ -> Alcotest.fail "accepted a bad request"
    | Error _ -> ()
  in
  bad (Service.Json.Obj [ ("pass", Str "profile") ]);
  bad (Service.Json.Obj [ ("pass", Str "nosuch"); ("workload", Str "Ace") ]);
  bad
    (Service.Json.Obj
       [ ("pass", Str "profile"); ("workload", Str "Ace");
         ("mystery", Int 1) ]);
  bad (Service.Json.Obj [ ("pass", Int 3); ("workload", Str "Ace") ])

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_hit_after_miss () =
  let svc = Service.create () in
  let req = Service.Request.make Service.Request.Profile "MyScript" in
  let a = Service.run svc req in
  let b = Service.run svc req in
  Alcotest.(check string) "byte-identical rendering" (render a) (render b);
  let s = Service.cache_stats svc in
  Alcotest.(check int) "one miss" 1 s.misses;
  Alcotest.(check int) "one hit" 1 s.hits;
  Alcotest.(check int) "one entry" 1 s.entries

let test_cache_lru_eviction () =
  let c : int Service.Cache.t = Service.Cache.create ~capacity:2 () in
  Service.Cache.add c "a" 1;
  Service.Cache.add c "b" 2;
  (* Touch "a" so "b" becomes the least recently used entry. *)
  Alcotest.(check (option int)) "a cached" (Some 1) (Service.Cache.find c "a");
  Service.Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Service.Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1)
    (Service.Cache.find c "a");
  Alcotest.(check (option int)) "c cached" (Some 3) (Service.Cache.find c "c");
  let s = Service.Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.evictions;
  Alcotest.(check int) "two entries" 2 s.entries

let test_cache_keyed_on_config () =
  let svc = Service.create () in
  let plain = Service.Request.make Service.Request.Profile "MyScript" in
  let scaled =
    Service.Request.make ~scale:0.5 Service.Request.Profile "MyScript"
  in
  ignore (Service.run svc plain);
  ignore (Service.run svc scaled);
  let s = Service.cache_stats svc in
  Alcotest.(check int) "distinct configs miss separately" 2 s.misses;
  Alcotest.(check int) "no false hit" 0 s.hits;
  Alcotest.(check int) "two entries" 2 s.entries

(* Each workload keys on its own source digest: the same request for
   each of the 12 apps misses once, then hits. *)
let test_cache_keyed_on_workload () =
  let svc = Service.create () in
  let reqs =
    List.map (Service.Request.make Service.Request.Analyze)
      Workloads.Registry.names
  in
  List.iter (fun r -> ignore (Service.run svc r)) reqs;
  List.iter (fun r -> ignore (Service.run svc r)) reqs;
  let s = Service.cache_stats svc in
  Alcotest.(check int) "one miss per workload" 12 s.misses;
  Alcotest.(check int) "one hit per workload" 12 s.hits;
  Alcotest.(check int) "one entry per workload" 12 s.entries

let test_failures_not_cached () =
  let svc = Service.create ~watchdog_ms:1 () in
  let req = Service.Request.make Service.Request.Profile "MyScript" in
  (match (Service.run svc req).result with
   | Ok _ -> Alcotest.fail "1ms budget must kill the workload"
   | Error e ->
     Alcotest.(check string) "failure code" "workload-failed"
       (Service.Response.error_code_name e.code));
  let s = Service.cache_stats svc in
  Alcotest.(check int) "failure not cached" 0 s.entries

(* Regression: [Cache.clear] used to reset the table but keep
   [hits]/[misses]/[evictions]/[tick], so a cleared cache reported
   phantom traffic (locally and in the process-wide telemetry
   registry) and its recency clock kept running. The clear retires
   the cache's share from the registry with a negative [add]. *)
let test_cache_clear_resets_counters () =
  let c : int Service.Cache.t = Service.Cache.create ~capacity:2 () in
  let g () =
    Js_parallel.Telemetry.
      (count cache_hits, count cache_misses, count cache_evictions)
  in
  let h0, m0, e0 = g () in
  Service.Cache.add c "a" 1;
  Service.Cache.add c "b" 2;
  Service.Cache.add c "c" 3 (* evicts *);
  ignore (Service.Cache.find c "c") (* hit *);
  ignore (Service.Cache.find c "zzz") (* miss *);
  let s = Service.Cache.stats c in
  Alcotest.(check (list int)) "pre-clear traffic" [ 1; 1; 1; 2 ]
    [ s.hits; s.misses; s.evictions; s.entries ];
  Alcotest.(check bool) "registry counted the traffic" true
    (g () = (h0 + 1, m0 + 1, e0 + 1));
  Service.Cache.clear c;
  let s = Service.Cache.stats c in
  Alcotest.(check (list int)) "cleared cache reports like a fresh one"
    [ 0; 0; 0; 0 ]
    [ s.hits; s.misses; s.evictions; s.entries ];
  Alcotest.(check bool) "registry back at its pre-traffic values" true
    (g () = (h0, m0, e0));
  (* The first probe after a clear must count exactly one miss — with
     the stale counters it reported accumulated history instead. *)
  ignore (Service.Cache.find c "a");
  Alcotest.(check int) "post-clear probe counts one miss" 1
    (Service.Cache.stats c).misses

let test_serve_cache_clear_op () =
  let svc = Service.create () in
  let h = Service.handler svc in
  let req = "{\"pass\":\"analyze\",\"workload\":\"MyScript\"}" in
  ignore (Service.Serve.handle_line h req);
  ignore (Service.Serve.handle_line h req);
  (match reply (Service.Serve.handle_line h "{\"op\":\"cache-clear\"}") with
   | Some l ->
     Alcotest.(check bool) "clear answers with zeroed stats" true
       (Helpers.contains ~sub:"\"hits\":0" l
        && Helpers.contains ~sub:"\"entries\":0" l)
   | None -> Alcotest.fail "cache-clear got no response");
  ignore (Service.Serve.handle_line h req);
  let s = Service.cache_stats svc in
  Alcotest.(check (list int)) "post-clear rerun is a fresh miss"
    [ 0; 1; 1 ]
    [ s.hits; s.misses; s.entries ]

(* ------------------------------------------------------------------ *)
(* Batching *)

let test_batch_dedups_identical () =
  let svc = Service.create () in
  let req = Service.Request.make Service.Request.Analyze "MyScript" in
  let resps = Service.run_batch svc [ req; req; req ] in
  Alcotest.(check int) "three responses" 3 (List.length resps);
  (match resps with
   | [ a; b; c ] ->
     Alcotest.(check string) "identical" (render a) (render b);
     Alcotest.(check string) "identical" (render a) (render c)
   | _ -> assert false);
  (* Every probe of the empty cache counts a miss, but the batcher
     dedups the three identical requests into one execution — hence a
     single cached entry, and a follow-up run is a hit. *)
  let s = Service.cache_stats svc in
  Alcotest.(check int) "three probes" 3 s.misses;
  Alcotest.(check int) "one execution cached" 1 s.entries;
  ignore (Service.run svc req);
  Alcotest.(check int) "follow-up run hits" 1 (Service.cache_stats svc).hits

(* Regression: one raising [exec] used to kill the whole wave — the
   pool re-raises the chunk exception at the join, so every other
   request's response was lost (and without a pool the iteration died
   mid-array). [recover] confines the failure to its own slot. *)
let test_batcher_confines_failures () =
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let exec n =
        if n mod 13 = 0 then failwith (Printf.sprintf "boom %d" n)
        else Printf.sprintf "ok %d" n
      in
      let recover n exn = Printf.sprintf "err %d %s" n (Printexc.to_string exn) in
      let reqs = [ 7; 13; 42; 13; 9 ] in
      let expect =
        [ "ok 7"; "err 13 Failure(\"boom 13\")"; "ok 42";
          "err 13 Failure(\"boom 13\")"; "ok 9" ]
      in
      (* Pool path: the failing request costs one error row; the other
         distinct requests still complete, and the deduplicated second
         occurrence of 13 shares the recovered response. *)
      let pooled =
        Service.Batcher.run ~pool ~recover ~key:string_of_int ~exec reqs
      in
      Alcotest.(check (list string)) "pool path confined" expect pooled;
      (* Sequential path (no pool) must confine identically. *)
      let seq = Service.Batcher.run ~recover ~key:string_of_int ~exec reqs in
      Alcotest.(check (list string)) "sequential path confined" expect seq;
      (* Without [recover] the historical behaviour — the exception
         propagates — is preserved for callers that want it. *)
      match
        Service.Batcher.run ~pool ~key:string_of_int ~exec [ 7; 13 ]
      with
      | _ -> Alcotest.fail "exec failure must propagate without recover"
      | exception Failure _ -> ())

(* A service-layer crash inside a batch becomes one structured error
   response; the rest of the batch still answers. *)
let test_run_batch_confines_failures () =
  (* The 1ms watchdog kills any interpreting pass (cf. "failures are
     not cached") while the static [Analyze] pass never ticks the
     budget, so the middle request fails deterministically and its
     neighbours succeed. *)
  let svc = Service.create ~jobs:2 ~watchdog_ms:1 () in
  let reqs =
    [ Service.Request.make Service.Request.Analyze "MyScript";
      Service.Request.make Service.Request.Profile "Ace";
      Service.Request.make Service.Request.Analyze "Ace" ]
  in
  let resps = Service.run_batch svc reqs in
  Service.shutdown svc;
  Alcotest.(check int) "every request answered" 3 (List.length resps);
  let ok r = Result.is_ok r.Service.Response.result in
  match resps with
  | [ a; bad; c ] ->
    Alcotest.(check bool) "first still completes" true (ok a);
    Alcotest.(check bool) "third still completes" true (ok c);
    (match bad.Service.Response.result with
     | Ok _ -> Alcotest.fail "negative scale must fail"
     | Error e ->
       Alcotest.(check string) "confined as workload-failed"
         "workload-failed"
         (Service.Response.error_code_name e.code))
  | _ -> assert false

let batch_equals_sequential =
  QCheck.Test.make ~name:"run_batch = List.map run" ~count:12
    QCheck.(
      list_of_size (Gen.int_range 0 5)
        (pair (oneofl [ `Profile; `Analyze ])
           (oneofl [ "MyScript"; "Ace"; "nosuch" ])))
    (fun spec ->
       let reqs =
         List.map
           (fun (p, w) ->
              let pass =
                match p with
                | `Profile -> Service.Request.Profile
                | `Analyze -> Service.Request.Analyze
              in
              Service.Request.make pass w)
           spec
       in
       let batched = List.map render (Service.run_batch (Service.create ()) reqs) in
       let sequential =
         let svc = Service.create () in
         List.map (fun r -> render (Service.run svc r)) reqs
       in
       batched = sequential)

(* ------------------------------------------------------------------ *)
(* JSONL protocol *)

let test_serve_protocol () =
  let svc = Service.create () in
  let h = Service.handler svc in
  Alcotest.(check (option string)) "blank line ignored" None
    (reply (Service.Serve.handle_line h "   "));
  (match reply (Service.Serve.handle_line h "{\"op\":\"ping\"}") with
   | Some l -> Alcotest.(check string) "ping" "{\"v\":1,\"ok\":true}" l
   | None -> Alcotest.fail "ping got no response");
  (match reply (Service.Serve.handle_line h "not json at all") with
   | Some l ->
     Alcotest.(check bool) "bad JSON is an error line" true
       (Helpers.contains ~sub:"\"error\"" l)
   | None -> Alcotest.fail "bad JSON got no response");
  (match
     reply
       (Service.Serve.handle_line h
          "{\"pass\":\"nosuch\",\"workload\":\"Ace\"}")
   with
   | Some l ->
     Alcotest.(check bool) "unknown pass is bad-request" true
       (Helpers.contains ~sub:"bad-request" l)
   | None -> Alcotest.fail "unknown pass got no response");
  let req = "{\"pass\":\"analyze\",\"workload\":\"MyScript\"}" in
  ignore (Service.Serve.handle_line h req);
  ignore (Service.Serve.handle_line h req);
  match reply (Service.Serve.handle_line h "{\"op\":\"cache-stats\"}") with
  | Some l ->
    Alcotest.(check bool) "repeat served from cache" true
      (Helpers.contains ~sub:"\"hits\":1" l)
  | None -> Alcotest.fail "cache-stats got no response"

(* Acceptance: every workload answered over the serve protocol is
   byte-identical to the direct service call the CLI subcommands make. *)
let test_serve_matches_direct () =
  let direct = Service.create () in
  let served = Service.create () in
  let h = Service.handler served in
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let req = Service.Request.make Service.Request.Analyze w.name in
       let line =
         reply
           (Service.Serve.handle_line h
              (Service.Json.to_string (Service.Request.to_json req)))
       in
       match line with
       | Some l ->
         Alcotest.(check string)
           (Printf.sprintf "serve = direct for %s" w.name)
           (render (Service.run direct req))
           l
       | None -> Alcotest.failf "no serve response for %s" w.name)
    Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Exit-code convention, both on the typed response and end to end
   against the built executable. *)

let test_exit_codes_unit () =
  let svc = Service.create () in
  let ok = Service.run svc (Service.Request.make Service.Request.Profile "Ace") in
  Alcotest.(check int) "success" Service.Exit.ok
    (Service.Response.exit_code ok);
  let unknown =
    Service.run svc (Service.Request.make Service.Request.Profile "nosuch")
  in
  Alcotest.(check int) "unknown workload" Service.Exit.operational_error
    (Service.Response.exit_code unknown);
  let seq =
    Service.run svc (Service.Request.make Service.Request.Analyze "MyScript")
  in
  Alcotest.(check int) "sequential verdict" Service.Exit.verdict
    (Service.Response.exit_code seq)

let test_exit_codes_cli () =
  let run args = match Helpers.cli args with rc, _, _ -> rc in
  Alcotest.(check int) "list exits 0" 0 (run [ "list" ]);
  Alcotest.(check int) "unknown workload exits 1" 1 (run [ "profile"; "nosuch" ]);
  Alcotest.(check int) "sequential verdict exits 2" 2 (run [ "analyze"; "MyScript" ])

(* The golden serve session (see [golden/dune]) repeats a profile
   request, so its cache-stats line must show the repeat served from
   the cache. *)
let test_golden_session_hits () =
  let lines = String.split_on_char '\n' (Helpers.golden "serve.smoke.out") in
  let is_stats l =
    l <> "" && Service.Json.member "cache" (Helpers.json l) <> None
  in
  match List.find_opt is_stats lines with
  | Some l ->
    Alcotest.(check bool) "cache hits > 0" true
      (Helpers.int_at [ "cache"; "hits" ] (Helpers.json l) > 0)
  | None -> Alcotest.fail "session has no cache-stats line"

(* The parallel analysis driver at -j 2 runs its workloads as pool
   tasks, and [--stats] reports them. *)
let test_pipeline_stats_cli () =
  let rc, out, _ =
    Helpers.cli [ "pipeline"; "--jobs"; "2"; "--stats"; "Ace"; "MyScript" ]
  in
  Alcotest.(check int) "exits 0" 0 rc;
  let pool = Helpers.json_line ~prefix:"pool telemetry: " out in
  Alcotest.(check bool) "pool executed tasks" true
    (Helpers.int_at [ "tasks_executed" ] pool > 0)

(* ------------------------------------------------------------------ *)
(* Encode once: a cached response carries its protocol line. *)

let served h req =
  match
    reply
      (Service.Serve.handle_line h
         (Service.Json.to_string (Service.Request.to_json req)))
  with
  | Some l -> l
  | None -> Alcotest.fail "request got no response"

(* Every hit writes the string its cached response already carries:
   no re-encoding, so two hits return the very same string. *)
let test_hits_share_one_line () =
  let h = Service.handler (Service.create ()) in
  let req = Service.Request.make Service.Request.Analyze "MyScript" in
  let miss = served h req in
  let hit1 = served h req and hit2 = served h req in
  Alcotest.(check string) "hit bytes = miss bytes" miss hit1;
  Alcotest.(check bool) "two hits share one string" true (hit1 == hit2)

(* The batch reply splices the members' lines; it must stay the bytes
   of rendering the batch as one JSON list, cold and warm. *)
let test_batch_line_matches_list_rendering () =
  let reqs =
    List.map
      (fun (pass, w) -> Service.Request.make pass w)
      Service.Request.
        [ (Analyze, "MyScript"); (Analyze, "MyScript"); (Analyze, "ace");
          (Analyze, "nosuch"); (Profile, "MyScript") ]
  in
  let expected =
    Service.Json.to_string
      (List
         (List.map Service.Response.to_json
            (Service.run_batch (Service.create ()) reqs)))
  in
  let h = Service.handler (Service.create ()) in
  let line =
    Service.Json.to_string (List (List.map Service.Request.to_json reqs))
  in
  List.iter
    (fun label ->
       match reply (Service.Serve.handle_line h line) with
       | Some l -> Alcotest.(check string) label expected l
       | None -> Alcotest.fail "batch got no response")
    [ "cold batch = list rendering"; "warm batch = list rendering" ]

(* A failed request is never stored: each one renders its own line,
   echoing its own request. *)
let test_failed_lines_not_stored () =
  let h = Service.handler (Service.create ()) in
  let unknown w = Service.Request.make Service.Request.Analyze w in
  let a1 = served h (unknown "nosuch") and a2 = served h (unknown "nosuch") in
  let b = served h (unknown "other") in
  Alcotest.(check string) "same failure, same bytes" a1 a2;
  Alcotest.(check bool) "rendered per request" false (a1 == a2);
  Alcotest.(check bool) "each line echoes its request" true
    (Helpers.contains ~sub:"\"workload\":\"nosuch\"" a1
     && Helpers.contains ~sub:"\"workload\":\"other\"" b);
  let svc = Service.create ~watchdog_ms:1 () in
  let h = Service.handler svc in
  let req = Service.Request.make Service.Request.Profile "myscript" in
  let f1 = served h req and f2 = served h req in
  Alcotest.(check bool) "watchdog failure answered" true
    (Helpers.contains ~sub:"workload-failed" f1
     && Helpers.contains ~sub:"\"workload\":\"MyScript\"" f1);
  Alcotest.(check string) "same failure, same bytes" f1 f2;
  Alcotest.(check bool) "rendered per request" false (f1 == f2);
  Alcotest.(check int) "nothing cached" 0 (Service.cache_stats svc).entries

(* For every pass the cache stores, a hit's line equals the line a
   fresh service renders for the same request. *)
let test_hit_line_matches_fresh_render () =
  let svc = Service.create () in
  let h = Service.handler svc in
  let workloads = [ "MyScript"; "Normal Mapping" ] in
  List.iter
    (fun w ->
       List.iter
         (fun (name, pass) ->
            let req = Service.Request.make pass w in
            ignore (served h req);
            Alcotest.(check string)
              (Printf.sprintf "%s %s hit = fresh render" name w)
              (render (Service.run (Service.create ()) req))
              (served h req))
         Service.Request.all_passes)
    workloads;
  Alcotest.(check int) "every second request hit"
    (List.length workloads * List.length Service.Request.all_passes)
    (Service.cache_stats svc).hits

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "request JSON round trip" `Quick test_request_roundtrip;
    qtest request_roundtrip_all_passes;
    Alcotest.test_case "serve version gate" `Quick test_serve_version_gate;
    Alcotest.test_case "request rejects junk" `Quick test_request_rejects_junk;
    Alcotest.test_case "cache hit after miss is byte-identical" `Quick
      test_cache_hit_after_miss;
    Alcotest.test_case "LRU eviction order" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache keyed on config" `Quick
      test_cache_keyed_on_config;
    Alcotest.test_case "failures are not cached" `Quick
      test_failures_not_cached;
    Alcotest.test_case "cache clear resets counters" `Quick
      test_cache_clear_resets_counters;
    Alcotest.test_case "serve cache-clear op" `Quick
      test_serve_cache_clear_op;
    Alcotest.test_case "batch dedups identical requests" `Quick
      test_batch_dedups_identical;
    Alcotest.test_case "batcher confines a raising exec" `Quick
      test_batcher_confines_failures;
    Alcotest.test_case "run_batch confines a failing member" `Quick
      test_run_batch_confines_failures;
    qtest batch_equals_sequential;
    Alcotest.test_case "serve protocol" `Quick test_serve_protocol;
    Alcotest.test_case "serve matches direct calls (12 workloads)" `Quick
      test_serve_matches_direct;
    Alcotest.test_case "exit codes (unit)" `Quick test_exit_codes_unit;
    Alcotest.test_case "exit codes (executable)" `Quick test_exit_codes_cli;
    Alcotest.test_case "golden serve session hits the cache" `Quick
      test_golden_session_hits;
    Alcotest.test_case "pipeline --stats runs pool tasks" `Quick
      test_pipeline_stats_cli;
    Alcotest.test_case "cache keyed on workload" `Quick
      test_cache_keyed_on_workload;
    Alcotest.test_case "hits share one stored line" `Quick
      test_hits_share_one_line;
    Alcotest.test_case "batch line = list rendering" `Quick
      test_batch_line_matches_list_rendering;
    Alcotest.test_case "failed lines are not stored" `Quick
      test_failed_lines_not_stored;
    Alcotest.test_case "hit line = fresh render (every pass)" `Quick
      test_hit_line_matches_fresh_render ]
