(* jsceres — command-line front end for the JS-CERES reproduction.

   Every analysis subcommand is a thin adapter over the service core
   (lib/service): it builds a [Service.Request.t], hands it to
   [Service.run] (or [run_batch]), and renders the [Service.Response.t]
   — the same core that backs `jsceres serve` and bench/main, so all
   surfaces produce identical results. Subcommand docs, flags and exit
   codes live in the tables below and are rendered into `--help`; do
   not duplicate them elsewhere. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* The one subcommand table: name -> one-line doc. `jsceres --help`
   and every sub-page are generated from it, so help cannot drift from
   the command set. *)

let subcommand_docs =
  [ ("list", "List the bundled case-study workloads.");
    ("run", "Run a workload without instrumentation.");
    ("profile", "Lightweight profiling (Sec 3.1): session/active/in-loop time.");
    ("loops", "Loop profiling (Sec 3.2): instances, times, trip counts.");
    ( "deps",
      "Dynamic dependence analysis (Sec 3.3): problematic memory accesses \
       observed while the workload runs." );
    ( "analyze",
      "Static loop-parallelizability analysis: scope resolution, effect \
       summaries, loop-carried dependence proofs. Exits 2 when any \
       analyzed loop is sequential." );
    ( "crossval",
      "Cross-validate the static verdicts against the dynamic dependence \
       run, one soundness line per loop." );
    ( "advise",
      "Causal what-if parallelism advisor: rank the hot loop nests into \
       an optimization plan with predicted whole-program speedups at N \
       cores (Amdahl over the deterministic profile), the static \
       blockers, and transformation hints; --measure grades the \
       predictions against real parallel execution." );
    ( "inspect",
      "Full Table 3 pipeline for one workload: profile, analyze, classify." );
    ( "pipeline",
      "Table 2 + Table 3 pipeline for many workloads, batched through the \
       service core — optionally in parallel (--jobs N) and under \
       per-workload supervision flags (--chaos-seed, --deadline-ms); a \
       failed workload prints a FAILED row and makes the exit status 1." );
    ( "serve",
      "Long-running service mode: one JSON request per line, one \
       deterministic JSON response per line, with result caching and \
       request batching. Default transport is stdin/stdout (EOF or \
       {\"op\":\"shutdown\"} ends the loop); --socket PATH serves many \
       concurrent clients over a Unix-domain socket with admission \
       control, per-request deadlines, load shedding and graceful \
       drain (SIGTERM or {\"op\":\"shutdown\"})." );
    ( "loadgen",
      "Replay a deterministic mixed-pass request stream against a \
       running --socket server from N concurrent clients; report \
       throughput and p50/p95/p99 latency as JSON." );
    ( "report",
      "Run the full staged analysis and write a markdown report (the \
       paper's Fig. 5 steps 5-7)." );
    ("survey", "Regenerate the developer-survey analysis (paper Sec. 2).");
    ("file", "Run or analyze an arbitrary MiniJS script.") ]

(* The one exit-code convention (Service.Exit), rendered into every
   subcommand's man page and asserted by the test suite. *)
let exits =
  [ Cmd.Exit.info Service.Exit.ok ~doc:"on success.";
    Cmd.Exit.info Service.Exit.operational_error
      ~doc:
        "on operational errors: unknown workload, failed workload, bad \
         request.";
    Cmd.Exit.info Service.Exit.verdict
      ~doc:
        "analysis verdict: the static analyzer proved at least one \
         analyzed loop sequential." ]

let cmd_info name = Cmd.info name ~doc:(List.assoc name subcommand_docs) ~exits

(* ------------------------------------------------------------------ *)
(* Flags shared by every service-backed subcommand. *)

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"Bundled workload name (see `jsceres list`).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: $(b,text) or $(b,json).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Size of the work-stealing pool that batched requests fan out \
           over (1 = run in the calling domain).")

let retries_arg =
  Arg.(
    value & opt int 1
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry a workload up to $(docv) times after a transient failure \
           (injected faults, interrupted syscalls); permanent failures — \
           parse errors, JS exceptions, watchdog overruns — are never \
           retried.")

let deadline_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request deadline in virtual milliseconds (the vclock \
           watchdog): a request exceeding it answers a structured \
           budget-exhausted failure instead of occupying its slot \
           forever.")

let find_workload name =
  match Workloads.Registry.find name with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S; available:\n  %s\n" name
      (String.concat "\n  " Workloads.Registry.names);
    exit Service.Exit.operational_error

(* Render one service response the way the legacy subcommands printed
   their output, honouring --format=json, and exit with the response's
   code when it is not 0. [json] overrides the JSON rendering (analyze
   keeps its golden-file report format). *)
let emit ?(render = Service.Response.render_text) ?json format
    (resp : Service.Response.t) =
  (match (format, resp.result) with
   | `Text, Ok _ -> print_string (render resp)
   | `Text, Error e -> Printf.eprintf "jsceres: %s\n" e.message
   | `Json, _ ->
     (match (json, resp.result) with
      | Some j, Ok _ -> print_string (j resp)
      | _ ->
        print_endline (Service.Response.line resp)));
  let code = Service.Response.exit_code resp in
  if code <> Service.Exit.ok then exit code

(* One-request commands share this driver: resolve the workload early
   (uniform error text), build the request, run it on a fresh service. *)
let run_one ?scale ?focus ?max_nests ?render ?json ~pass name retries format =
  let w = find_workload name in
  let svc = Service.create ~retries () in
  let req = Service.Request.make ?scale ?focus ?max_nests pass w.name in
  emit ?render ?json format (Service.run svc req)

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_string (Workloads.Registry.table1 ());
    List.iter
      (fun (w : Workloads.Workload.t) ->
         Printf.printf "  %-16s session %.0fs, %d scripted interaction(s)\n"
           w.name (w.session_ms /. 1000.)
           (List.length w.interactions))
      Workloads.Registry.all
  in
  Cmd.v (cmd_info "list") Term.(const run $ const ())

let par_exec_arg =
  Arg.(
    value & flag
    & info [ "par-exec" ]
        ~doc:
          "Execute statically-proven loop nests in parallel over the \
           work-stealing pool (chunks write the heap in place behind a \
           write barrier). Output stays byte-identical to sequential \
           execution; instances the commit cannot prove deterministic roll \
           back and run sequentially.")

let par_stats_arg =
  Arg.(
    value & flag
    & info [ "par-stats" ]
        ~doc:
          "With --par-exec: print per-nest parallel-execution telemetry \
           (chunks, fork/merge time, fallbacks and their reasons, pool \
           counters) as JSON on stderr.")

let print_session (ctx : Workloads.Harness.run_context) =
  List.iter print_endline (List.rev ctx.st.Interp.Value.console);
  let clock = ctx.st.Interp.Value.clock in
  Printf.printf "session: %.1f s total, %.2f s busy\n"
    (Ceres_util.Vclock.to_ms clock (Ceres_util.Vclock.now clock) /. 1000.)
    (Ceres_util.Vclock.to_ms clock (Ceres_util.Vclock.busy clock) /. 1000.)

let timeline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline" ] ~docv:"FILE"
        ~doc:
          "Write a ThreadScope-style scheduler event timeline to $(docv): \
           one JSON object per line (per-domain task start/stop, steals, \
           idle-span starts; schema in DESIGN.md §14) covering the \
           parallel execution. Only the work-stealing pool emits events, \
           so the file is empty without parallel execution.")

(* Bracket [f] with the scheduler event trace when --timeline was
   given; events only accrue while a pool is running inside [f]. *)
let with_timeline timeline f =
  match timeline with
  | None -> f ()
  | Some path ->
    Js_parallel.Telemetry.Trace.start ();
    Fun.protect
      ~finally:(fun () ->
        Js_parallel.Telemetry.Trace.stop ();
        Js_parallel.Telemetry.Trace.write_file path;
        Printf.eprintf "jsceres: wrote timeline %s (%d event(s))\n%!" path
          (List.length (Js_parallel.Telemetry.Trace.events ())))
      f

let run_cmd =
  let run name par_exec jobs par_stats timeline =
    let w = find_workload name in
    if par_exec then
      with_timeline timeline (fun () ->
          Js_parallel.Pool.with_pool ~domains:(max 1 jobs) (fun pool ->
              let pe =
                Js_parallel.Par_exec.create
                  ~mode:(Js_parallel.Par_exec.Parallel pool)
                  ~jobs:(max 1 jobs) ()
              in
              let ctx = Workloads.Harness.run_plain ~par:pe w in
              print_session ctx;
              if par_stats then
                Printf.eprintf "par-exec telemetry: %s\n%!"
                  (Js_parallel.Par_exec.stats_json ~pool pe)))
    else print_session (Workloads.Harness.run_plain w)
  in
  Cmd.v (cmd_info "run")
    Term.(
      const run $ workload_arg $ par_exec_arg $ jobs_arg $ par_stats_arg
      $ timeline_arg)

let profile_cmd =
  let run name retries format =
    run_one ~pass:Service.Request.Profile name retries format
  in
  Cmd.v (cmd_info "profile")
    Term.(const run $ workload_arg $ retries_arg $ format_arg)

let loops_cmd =
  let run name retries format =
    run_one ~pass:Service.Request.Loops name retries format
  in
  Cmd.v (cmd_info "loops")
    Term.(const run $ workload_arg $ retries_arg $ format_arg)

let focus_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "f"; "focus" ] ~docv:"LOOP"
        ~doc:"Restrict dependence recording to the nest of this loop id.")

let deps_cmd =
  let run name focus retries format =
    run_one ?focus ~pass:Service.Request.Deps name retries format
  in
  Cmd.v (cmd_info "deps")
    Term.(const run $ workload_arg $ focus_arg $ retries_arg $ format_arg)

let analyze_cmd =
  let run name retries format =
    (* --format=json keeps printing the analyzer's report document
       (the format committed under test/golden/analyze/), not the
       service envelope; `serve` wraps the same document. *)
    run_one
      ~json:(fun resp ->
          Option.get (Service.Response.render_analyze_json resp))
      ~pass:Service.Request.Analyze name retries format
  in
  Cmd.v (cmd_info "analyze")
    Term.(const run $ workload_arg $ retries_arg $ format_arg)

let crossval_cmd =
  let run name retries format =
    run_one ~pass:Service.Request.Crossval name retries format
  in
  Cmd.v (cmd_info "crossval")
    Term.(const run $ workload_arg $ retries_arg $ format_arg)

let advise_cmd =
  let run name cores measure jobs timeline retries format =
    let w = find_workload name in
    let svc = Service.create ~retries () in
    let req = Service.Request.make ?cores Service.Request.Advise w.name in
    let resp = Service.run svc req in
    (* --timeline only records pool events, which only a --measure run
       creates, so it implies the measurement pass. *)
    let measure = measure || timeline <> None in
    (match resp.result with
     | Ok (Service.Response.Advise rep) when measure ->
       (* Ground truth is attached after the deterministic plan is
          computed, so the JSON/text renderings gain the measured
          section but the plan itself is unchanged. *)
       with_timeline timeline (fun () ->
           let n = Advisor.measure ~jobs:(max 1 jobs) rep w in
           let unforked =
             List.length
               (List.filter
                  (fun (m : Advisor.measured_row) -> m.m_instances = 0)
                  rep.measured)
           in
           Printf.eprintf
             "jsceres: measured %d nest(s) with par-exec (%d never forked)\n%!"
             n unforked)
     | _ -> ());
    emit
      ~json:(fun resp -> Option.get (Service.Response.render_advise_json resp))
      format resp
  in
  let cores_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "cores" ] ~docv:"N,.."
          ~doc:
            "Core counts to model predicted speedups at (comma-separated; \
             default 2,4,8,16).")
  in
  let measure_arg =
    Arg.(
      value & flag
      & info [ "measure" ]
          ~doc:
            "Grade the advisor: additionally execute the proven nests \
             over a real work-stealing pool (-j domains) and attach \
             measured speedups next to the predictions. Wall-clock \
             based, so the measured section is not deterministic.")
  in
  Cmd.v (cmd_info "advise")
    Term.(
      const run $ workload_arg $ cores_arg $ measure_arg $ jobs_arg
      $ timeline_arg $ retries_arg $ format_arg)

let inspect_cmd =
  let run name retries format =
    run_one ~render:Service.Response.render_inspect
      ~pass:Service.Request.Pipeline name retries format
  in
  Cmd.v (cmd_info "inspect")
    Term.(const run $ workload_arg $ retries_arg $ format_arg)

let survey_cmd =
  let run seed =
    let respondents = Survey.Generator.generate ~seed () in
    Printf.printf "%d synthetic respondents (seed %d)\n\n"
      (Array.length respondents) seed;
    let rows, uncoded = Survey.Aggregate.figure1 respondents in
    print_string (Survey.Aggregate.render_figure1 rows);
    Printf.printf "  (%d respondents without a codeable answer)\n\n" uncoded;
    print_string
      (Survey.Aggregate.render_figure2 (Survey.Aggregate.figure2 respondents));
    print_string
      (Survey.Aggregate.render_histogram
         ~title:"functional (1) .. imperative (5):"
         (Survey.Aggregate.figure3 respondents));
    print_string
      (Survey.Aggregate.render_histogram
         ~title:"monomorphic (1) .. polymorphic (5):"
         (Survey.Aggregate.figure4 respondents));
    Printf.printf "operator preference: %.0f%%; inter-rater Jaccard: %.2f\n"
      (Survey.Aggregate.operator_preference_pct respondents)
      (Survey.Coding.inter_rater_agreement respondents)
  in
  let seed_arg =
    Arg.(
      value & opt int 2015
      & info [ "s"; "seed" ] ~docv:"SEED"
          ~doc:"Seed for the synthetic respondent population.")
  in
  Cmd.v (cmd_info "survey") Term.(const run $ seed_arg)

let report_cmd =
  let run name dir =
    let w = find_workload name in
    let path = Workloads.Harness.export_report ~dir w in
    Printf.printf "wrote %s\n" path
  in
  let dir_arg =
    Arg.(
      value
      & opt string "reports"
      & info [ "o"; "output" ] ~docv:"DIR"
          ~doc:"Directory the markdown report is written into.")
  in
  Cmd.v (cmd_info "report") Term.(const run $ workload_arg $ dir_arg)

(* ------------------------------------------------------------------ *)
(* Batched pipeline: one Pipeline request per workload, coalesced into
   a single wave by the service (dedup + pool fan-out). Workload
   crashes — real bugs, watchdog overruns, injected chaos faults —
   come back as error responses and print as FAILED rows while the
   survivors print their rows; stdout stays byte-identical per chaos
   seed (all printed failure fields are virtual-time based). *)
let pipeline_cmd =
  let run names jobs stats chaos_seed retries deadline_ms format par_exec =
    let ws =
      match names with
      | [] -> Workloads.Registry.all
      | ns -> List.map find_workload ns
    in
    (match chaos_seed with
     | Some seed -> Js_parallel.Fault.enable ~seed
     | None -> ignore (Js_parallel.Fault.enable_from_env ()));
    let svc = Service.create ~jobs ~retries ?watchdog_ms:deadline_ms () in
    let reqs =
      List.map
        (fun (w : Workloads.Workload.t) ->
           Service.Request.make Service.Request.Pipeline w.name)
        ws
    in
    let resps = Service.run_batch svc reqs in
    (match format with
     | `Json ->
       List.iter (fun r -> print_endline (Service.Response.line r)) resps
     | `Text ->
       List.iter2
         (fun (w : Workloads.Workload.t) (r : Service.Response.t) ->
            print_string (Service.Response.render_text r);
            match r.result with
            | Ok _ -> ()
            | Error { failure = Some fl; _ } ->
              Printf.eprintf "jsceres: %s failed %s\n%!" w.name
                (Js_parallel.Supervisor.failure_details fl)
            | Error e ->
              Printf.eprintf "jsceres: %s failed: %s\n%!" w.name e.message)
         ws resps);
    let failed =
      List.filter_map
        (fun ((w : Workloads.Workload.t), (r : Service.Response.t)) ->
           match r.result with
           | Ok _ -> None
           | Error e -> Some (w, e))
        (List.combine ws resps)
    in
    if failed <> [] && format = `Text then begin
      Printf.printf "\n%d of %d workload(s) failed:\n" (List.length failed)
        (List.length ws);
      List.iter
        (fun ((w : Workloads.Workload.t), (e : Service.Response.error)) ->
           Printf.printf "  %-16s %s\n" w.name e.message)
        failed
    end;
    (if stats then
       match Service.pool_stats svc with
       | Some s ->
         Printf.printf "pool telemetry: %s\n" (Js_parallel.Telemetry.to_json s)
       | None -> ());
    Service.shutdown svc;
    (* --par-exec: determinism self-check. Re-run each workload plain
       (sequential) and with parallel loop execution and require the
       observable state to match byte for byte; reported on stderr so
       stdout stays identical with and without the flag. Skipped under
       chaos injection (the harness would not install the hook). *)
    let par_mismatch = ref false in
    if par_exec && not (Js_parallel.Fault.enabled ()) then
      Js_parallel.Pool.with_pool ~domains:(max 1 jobs) (fun pool ->
          List.iter
            (fun (w : Workloads.Workload.t) ->
               let seq = Workloads.Harness.run_plain w in
               let pe =
                 Js_parallel.Par_exec.create
                   ~mode:(Js_parallel.Par_exec.Parallel pool)
                   ~jobs:(max 1 jobs) ()
               in
               let par = Workloads.Harness.run_plain ~par:pe w in
               let state (ctx : Workloads.Harness.run_context) =
                 ( List.rev ctx.st.Interp.Value.console,
                   Ceres_util.Vclock.busy ctx.st.Interp.Value.clock,
                   Ceres_util.Vclock.now ctx.st.Interp.Value.clock )
               in
               if state seq <> state par then begin
                 par_mismatch := true;
                 Printf.eprintf
                   "jsceres: par-exec %s: output DIVERGED from sequential\n%!"
                   w.name
               end
               else
                 Printf.eprintf
                   "par-exec %s: identical to sequential (%d nest(s) \
                    parallel)\n%!"
                   w.name
                   (Js_parallel.Par_exec.nests_run pe))
            ws);
    if chaos_seed <> None then Js_parallel.Fault.disable ();
    if failed <> [] || !par_mismatch then exit Service.Exit.operational_error
  in
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workloads to analyze (default: all twelve).")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the pool's scheduling telemetry as JSON at the end.")
  in
  let chaos_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:
            "Enable deterministic fault injection: the failure set is a \
             pure function of $(docv), so repeated runs are byte-identical. \
             Also enabled by the JSCERES_CHAOS environment variable.")
  in
  Cmd.v (cmd_info "pipeline")
    Term.(
      const run $ names_arg $ jobs_arg $ stats_arg $ chaos_seed_arg
      $ retries_arg $ deadline_ms_arg $ format_arg $ par_exec_arg)

let serve_cmd =
  let run jobs retries deadline_ms cache_capacity socket
      max_inflight queue_capacity drain_ms max_request_bytes max_sessions
      chaos_seed chaos_transport =
    (match chaos_seed with
     | Some seed -> Js_parallel.Fault.enable ~seed
     | None -> ignore (Js_parallel.Fault.enable_from_env ()));
    let svc =
      Service.create ~jobs ~retries ?watchdog_ms:deadline_ms ?cache_capacity ()
    in
    (match socket with
     | None -> Service.serve_channels ~max_request_bytes svc stdin stdout
     | Some path ->
       let server =
         Service.Server.create
           ~config_override:(fun c ->
             { c with
               Service.Server.max_inflight;
               queue_capacity;
               drain_ms;
               max_request_bytes;
               max_sessions;
               chaos_transport })
           ~socket_path:path (Service.handler svc)
       in
       Service.Server.run server);
    Service.shutdown svc
  in
  let cache_capacity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Result-cache entry bound (default 128; LRU eviction).")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve many concurrent clients over a Unix-domain socket at \
             $(docv) instead of stdin/stdout. SIGTERM or a client's \
             {\"op\":\"shutdown\"} drains gracefully and exits 0.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 4
      & info [ "max-inflight" ] ~docv:"M"
          ~doc:
            "Admission bound: at most $(docv) requests execute \
             concurrently; a bounded queue waits behind them and \
             anything beyond is shed with a structured overloaded \
             response carrying retry_after_ms.")
  in
  let queue_capacity_arg =
    Arg.(
      value & opt int 16
      & info [ "queue-capacity" ] ~docv:"Q"
          ~doc:"Admission wait-queue bound before shedding begins.")
  in
  let drain_ms_arg =
    Arg.(
      value & opt int 2000
      & info [ "drain-ms" ] ~docv:"MS"
          ~doc:
            "Graceful-drain budget: in-flight sessions get $(docv) ms to \
             finish after shutdown is requested; stragglers are then \
             force-closed.")
  in
  let max_request_bytes_arg =
    Arg.(
      value
      & opt int Service.Serve.default_max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"B"
          ~doc:
            "Longest accepted request line; longer lines answer a \
             structured bad-request without buffering the excess.")
  in
  let max_sessions_arg =
    Arg.(
      value & opt int 64
      & info [ "max-sessions" ] ~docv:"S"
          ~doc:"Concurrent client connection bound (socket mode).")
  in
  let chaos_transport_arg =
    Arg.(
      value & flag
      & info [ "chaos-transport" ]
          ~doc:
            "With --chaos-seed (or JSCERES_CHAOS): additionally inject \
             deterministic transport faults — connections doomed at \
             accept, responses torn mid-write, mid-response disconnects \
             — keyed on the accept ordinal. Off by default so workload \
             chaos alone keeps per-session responses byte-identical.")
  in
  let chaos_seed_serve_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:
            "Enable deterministic fault injection (see $(b,pipeline)); \
             with --chaos-transport the seed also drives transport \
             faults.")
  in
  Cmd.v (cmd_info "serve")
    Term.(
      const run $ jobs_arg $ retries_arg $ deadline_ms_arg
      $ cache_capacity_arg $ socket_arg $ max_inflight_arg
      $ queue_capacity_arg $ drain_ms_arg $ max_request_bytes_arg
      $ max_sessions_arg $ chaos_seed_serve_arg $ chaos_transport_arg)

let loadgen_cmd =
  let run socket clients requests seed chaos_clients =
    let report =
      Service.Loadgen.run
        { Service.Loadgen.socket_path = socket;
          clients;
          requests_per_client = requests;
          seed;
          chaos_clients }
    in
    print_endline
      (Service.Json.to_string (Service.Loadgen.report_json report));
    if report.Service.Loadgen.dropped_connections > 0 then
      exit Service.Exit.operational_error
  in
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of the running server.")
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "c"; "clients" ] ~docv:"N"
          ~doc:"Concurrent client connections.")
  in
  let requests_arg =
    Arg.(
      value & opt int 100
      & info [ "n"; "requests" ] ~docv:"R"
          ~doc:"Requests per client (mixed passes over all workloads).")
  in
  let seed_arg =
    Arg.(
      value & opt int 2015
      & info [ "s"; "seed" ] ~docv:"SEED"
          ~doc:
            "Stream seed: the request mix (and any client chaos) is a \
             pure function of it.")
  in
  let chaos_clients_arg =
    Arg.(
      value & flag
      & info [ "chaos-clients" ]
          ~doc:
            "Make a seed-keyed fraction of requests misbehave: torn \
             request lines, disconnect-before-read, slow-loris writes. \
             The exit status still requires zero server-inflicted \
             drops of well-behaved exchanges.")
  in
  Cmd.v (cmd_info "loadgen")
    Term.(
      const run $ socket_arg $ clients_arg $ requests_arg $ seed_arg
      $ chaos_clients_arg)

(* ------------------------------------------------------------------ *)

let mode_arg =
  let modes =
    [ ("plain", `Plain); ("light", `Light); ("loops", `Loops); ("dep", `Dep) ]
  in
  Arg.(
    value
    & opt (enum modes) `Plain
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:"Instrumentation mode: $(b,plain), $(b,light), $(b,loops) or $(b,dep).")

let file_cmd =
  let run path mode =
    let source =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let program = Jsir.Parser.parse_program source in
    let infos = Jsir.Loops.index program in
    let st = Interp.Eval.create () in
    Interp.Builtins.install st;
    ignore (Dom.Document.install st);
    (match mode with
     | `Plain -> Interp.Eval.run_program st program
     | `Light ->
       let lw = Ceres.Install.lightweight st in
       Interp.Eval.run_program st
         (Ceres.Instrument.program Ceres.Instrument.Lightweight program);
       ignore (Interp.Events.drain st);
       Printf.printf "in loops: %.3f ms\n" (Ceres.Lightweight.in_loops_ms lw)
     | `Loops ->
       let lp = Ceres.Install.loop_profile st infos in
       Interp.Eval.run_program st
         (Ceres.Instrument.program Ceres.Instrument.Loop_profile program);
       ignore (Interp.Events.drain st);
       print_string (Ceres.Report.loop_profile_report lp infos)
     | `Dep ->
       let rt = Ceres.Install.dependence st infos in
       Interp.Eval.run_program st
         (Ceres.Instrument.program Ceres.Instrument.Dependence program);
       ignore (Interp.Events.drain st);
       print_string (Ceres.Report.dependence_report rt infos));
    (match mode with
     | `Plain -> ignore (Interp.Events.drain st)
     | _ -> ());
    List.iter print_endline (List.rev st.Interp.Value.console)
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"MiniJS source file.")
  in
  Cmd.v (cmd_info "file") Term.(const run $ path_arg $ mode_arg)

let () =
  let doc = "JS-CERES: profiling and dependence analysis for MiniJS programs" in
  let info = Cmd.info "jsceres" ~version:"1.0.0" ~doc ~exits in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; profile_cmd; loops_cmd; deps_cmd; analyze_cmd;
            crossval_cmd; advise_cmd; inspect_cmd; pipeline_cmd; serve_cmd;
            loadgen_cmd; report_cmd; survey_cmd; file_cmd ]))
