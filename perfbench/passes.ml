(* The benchmark's passes, each in two forms that must agree:

   - [entry]: the public entry points a user of the libraries calls
     ([Workloads.Harness], [Analysis.Driver], [Advisor]); untraced
     rounds time these.
   - [composed]: the same pass rebuilt from the calls those entry
     points make, in the same order, with a {!Ledger} span around each
     one; traced rounds time these.

   Both forms return the pass's rendered output, so a run can check
   that the spans time the same program the entry points run. *)

module H = Workloads.Harness
module PE = Js_parallel.Par_exec
module W = Workloads.Workload

let span = Ledger.span

module R = Service.Request

let all_passes = R.[ Profile; Deps; Pipeline; Analyze; Advise ]

let render pass (w : W.t) body =
  Ceres_util.Json.to_string
    (Service.Response.to_json (Service.Response.ok (R.make pass w.name) body))

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let entry pass (w : W.t) =
  match (pass : R.pass) with
  | Profile -> render pass w (Service.Response.Profile (H.run_lightweight w))
  | Deps ->
    let ctx, rt = H.run_dependence w in
    Ceres.Report.dependence_report
      ~title:(Printf.sprintf "dependence analysis of %s" w.name) rt ctx.infos
  | Pipeline ->
    let timing = H.run_lightweight w in
    render pass w (Service.Response.Pipeline (timing, H.inspect w))
  | Analyze ->
    Analysis.Driver.to_json
      (Analysis.Driver.analyze (Jsir.Parser.parse_program w.source))
  | Advise -> Advisor.to_json (Advisor.analyze w)
  | Loops | Crossval -> invalid_arg "Passes.entry"

let console (ctx : H.run_context) =
  String.concat "\n" (List.rev ctx.st.Interp.Value.console)

let entry_seq w = console (H.run_plain w)

let entry_par pool w =
  console (H.run_plain ~par:(PE.create ~mode:(PE.Parallel pool) ~jobs:2 ()) w)

(* ------------------------------------------------------------------ *)
(* Composed passes                                                     *)

(* [Harness.prepare] outside supervision (no watchdog budget, no chaos
   session), one span per layer. *)
let prepare ?(scale = 1.0) (w : W.t) : H.run_context =
  let st, doc =
    span "interp.setup" (fun () ->
        let st = Interp.Eval.create ~seed:7 ~ticks_per_ms:H.ticks_per_ms () in
        Interp.Builtins.install st;
        let doc = Dom.Document.install st in
        Interp.Value.declare st.global_scope "SCALE";
        Interp.Value.set_var st st.global_scope "SCALE" (Num scale);
        (st, doc))
  in
  let program = span "jsir.parse" (fun () -> Jsir.Parser.parse_program w.source) in
  let infos = span "jsir.index" (fun () -> Jsir.Loops.index program) in
  { st; doc; program; infos }

(* [Eval.run_program] resolves first; resolving up front lets it skip
   that step ([Resolve.ensure]) and gives resolution its own span. *)
let execute name (ctx : H.run_context) program w =
  span "jsir.resolve" (fun () ->
      Jsir.Resolve.program ctx.st.Interp.Value.symtab program);
  span name (fun () ->
      Interp.Eval.run_program ctx.st program;
      H.drive ctx w)

let instrument mode (ctx : H.run_context) =
  span "ceres.instrument" (fun () -> Ceres.Instrument.program mode ctx.program)

let ms_of (ctx : H.run_context) ticks =
  Ceres_util.Vclock.to_ms ctx.st.Interp.Value.clock ticks

let lightweight (w : W.t) : H.timing =
  let ctx = prepare w in
  let lw = span "ceres.install" (fun () -> Ceres.Install.lightweight ctx.st) in
  let sampler =
    span "ceres.sampler_attach" (fun () ->
        Profiler.Sampler.attach ~period_ms:1.0 ctx.st)
  in
  execute "ceres.profile_exec" ctx (instrument Ceres.Instrument.Lightweight ctx) w;
  let dom, canvas = Dom.Document.stats ctx.doc in
  let clock = ctx.st.Interp.Value.clock in
  { total_ms = ms_of ctx (Ceres_util.Vclock.now clock);
    active_ms = Profiler.Sampler.active_ms sampler;
    busy_ms = ms_of ctx (Ceres_util.Vclock.busy clock);
    in_loops_ms = Ceres.Lightweight.in_loops_ms lw;
    dom_accesses = dom;
    canvas_accesses = canvas;
    console = List.rev ctx.st.Interp.Value.console }

let loop_profile (w : W.t) =
  let ctx = prepare w in
  let lp =
    span "ceres.install" (fun () -> Ceres.Install.loop_profile ctx.st ctx.infos)
  in
  execute "ceres.loops_exec" ctx (instrument Ceres.Instrument.Loop_profile ctx) w;
  (ctx, lp)

let dependence (w : W.t) =
  let ctx = prepare ~scale:w.dep_scale w in
  let rt =
    span "ceres.install" (fun () -> Ceres.Install.dependence ctx.st ctx.infos)
  in
  execute "ceres.deps_exec" ctx (instrument Ceres.Instrument.Dependence ctx) w;
  Ledger.count "ceres.accesses_checked"
    (float_of_int (Ceres.Runtime.accesses_checked rt));
  (ctx, rt)

(* Proven loops per app, from its latest static analysis. *)
let proven : (string, int) Hashtbl.t = Hashtbl.create 16

let proven_loops () = Hashtbl.fold (fun _ n acc -> acc + n) proven 0

let static_analysis (w : W.t) program =
  let report = span "analysis.static" (fun () -> Analysis.Driver.analyze program) in
  Hashtbl.replace proven w.name (List.length (Analysis.Driver.proven report));
  report

(* The Table 3 row assembly of [Harness.inspect], over the composed
   loop-profile and dependence runs. *)
let inspect (w : W.t) : H.nest_row list =
  let ctx_lp, lp = loop_profile w in
  let _, rt = dependence w in
  let static_report = static_analysis w ctx_lp.program in
  span "ceres.classify" (fun () ->
      let module C = Ceres.Classify in
      let module Wf = Ceres_util.Welford in
      let total = Ceres.Loop_profile.total_root_time_ms lp ctx_lp.infos in
      Ceres.Loop_profile.hottest_roots lp ctx_lp.infos
      |> List.filteri (fun i _ -> i < w.hot_nest_count)
      |> List.map (fun (s : Ceres.Loop_profile.loop_stats) ->
          let info = Jsir.Loops.find ctx_lp.infos s.id in
          let trips_mean = Wf.mean s.trips in
          let iter_mean = Wf.mean s.iter_time in
          let iter_cv =
            if iter_mean <= 0. then 0. else Wf.stddev s.iter_time /. iter_mean
          in
          let ws = Ceres.Runtime.warnings_impeding rt ~root:s.id in
          let dom_count =
            List.fold_left
              (fun acc id -> acc + Ceres.Runtime.dom_accesses_in rt id)
              0
              (Jsir.Loops.descendants ctx_lp.infos s.id)
          in
          let iterations =
            float_of_int (Ceres.Runtime.instances_of rt s.id)
            *. Float.max 1. trips_mean
          in
          let divergence =
            C.divergence_of ~iter_cv ~recursion:(Ceres.Runtime.is_tainted rt s.id)
              ~avg_trips:trips_mean
          in
          let dep_difficulty =
            C.dependence_difficulty (C.summarize_warnings ws)
          in
          { H.workload = w.name;
            root = s.id;
            label = Jsir.Loops.label info;
            pct_loop_time =
              (if total <= 0. then 0. else 100. *. Wf.total s.time /. total);
            instances = Wf.count s.time;
            trips_mean;
            trips_sd = Wf.stddev s.trips;
            divergence;
            dom_access = dom_count > 0;
            dep_difficulty;
            par_difficulty =
              C.parallelization_difficulty ~dep:dep_difficulty
                ~dom_per_iteration:
                  (if iterations <= 0. then 0.
                   else float_of_int dom_count /. iterations)
                ~divergence;
            warning_count = List.fold_left (fun a (_, c) -> a + c) 0 ws;
            static_verdict =
              (match Analysis.Driver.verdict_of static_report s.id with
               | Some v -> H.static_label v
               | None -> "-");
            advice =
              Ceres.Advice.for_nest rt ~root:s.id ~dom_accesses:dom_count }))

let composed pass (w : W.t) =
  span ("pass." ^ R.pass_name pass) (fun () ->
      match (pass : R.pass) with
      | Profile -> render pass w (Service.Response.Profile (lightweight w))
      | Deps ->
        let ctx, rt = dependence w in
        span "ceres.report" (fun () ->
            Ceres.Report.dependence_report
              ~title:(Printf.sprintf "dependence analysis of %s" w.name)
              rt ctx.infos)
      | Pipeline ->
        let timing = lightweight w in
        render pass w (Service.Response.Pipeline (timing, inspect w))
      | Analyze ->
        let program = span "jsir.parse" (fun () -> Jsir.Parser.parse_program w.source) in
        Analysis.Driver.to_json (static_analysis w program)
      | Advise ->
        Advisor.to_json (span "advisor.analyze" (fun () -> Advisor.analyze w))
      | Loops | Crossval -> invalid_arg "Passes.composed")

let composed_seq w =
  span "exec.seq" (fun () ->
      let ctx = prepare w in
      execute "interp.exec" ctx ctx.program w;
      console ctx)

(* Nest-level counters of one Par_exec instance. *)
let count_nests pe =
  List.iter
    (fun (_, _, (s : PE.nest_stats)) ->
       Ledger.count "par.instances" (float_of_int s.instances);
       Ledger.count "par.chunks" (float_of_int s.chunks);
       Ledger.count "par.fallbacks" (float_of_int s.fallbacks);
       Ledger.count "par.nest_par_ms" s.par_ms;
       Ledger.count "par.fork_ms" s.fork_ms;
       Ledger.count "par.merge_ms" s.merge_ms)
    (PE.nest_rows pe);
  Ledger.count "par.nests_run" (float_of_int (PE.nests_run pe))

(* Pool counters since the last harvest; the pool keeps only its last
   64 loop records, so traced sessions harvest after every nest. *)
let harvest_pool pool =
  let s = Js_parallel.Pool.stats pool in
  Ledger.count "pool.tasks" (float_of_int (Js_parallel.Telemetry.total_tasks s));
  Ledger.count "pool.steals" (float_of_int (Js_parallel.Telemetry.total_steals s));
  List.iter
    (fun (d : Js_parallel.Telemetry.domain_stats) ->
       Ledger.count "pool.idle_spins" (float_of_int d.idle_spins))
    s.domains;
  List.iter
    (fun (l : Js_parallel.Telemetry.loop_stats) ->
       Ledger.count "pool.join_ms" l.join_ms)
    s.recent_loops;
  Js_parallel.Pool.reset_stats pool

let composed_par pool (w : W.t) =
  span "exec.par" (fun () ->
      let ctx = prepare w in
      let pe = PE.create ~mode:(PE.Parallel pool) ~jobs:2 () in
      let report = static_analysis w ctx.program in
      span "par.install" (fun () -> PE.install pe ctx.st ~report);
      (* One span per visit of a nest the report proves, on the main
         domain only (forked chunks run on the pool's domains). *)
      let proven =
        List.map (fun (r : Analysis.Driver.row) -> r.info.id)
          (Analysis.Driver.proven report)
      in
      (match ctx.st.on_loop with
       | Some hook ->
         ctx.st.on_loop <-
           Some (fun st scope this (lv : Interp.Value.loop_visit) ->
               if List.mem lv.lv_id proven && Domain.is_main_domain () then begin
                 let handled = span "par.nest" (fun () -> hook st scope this lv) in
                 harvest_pool pool;
                 handled
               end
               else hook st scope this lv)
       | None -> ());
      Js_parallel.Pool.reset_stats pool;
      execute "interp.exec" ctx ctx.program w;
      count_nests pe;
      console ctx)

(* The per-nest sequential baseline: Par_exec's measure mode times each
   proven nest on one domain. *)
let nest_baseline (w : W.t) =
  let pe = PE.create ~mode:PE.Measure ~jobs:1 () in
  ignore (H.run_plain ~par:pe w);
  List.fold_left (fun acc (_, _, (s : PE.nest_stats)) -> acc +. s.seq_ms) 0.
    (PE.nest_rows pe)
