(* Execution harness: runs a workload under one of the paper's staged
   analysis modes and collects the measurements behind Tables 2 and 3.

   Stage mapping (paper Sec. 3):
   - [run_plain]      -> baseline, no instrumentation;
   - [run_lightweight]-> Sec. 3.1, open-loop timer + Gecko-model
                         sampling profiler attached simultaneously;
   - [run_loop_profile]-> Sec. 3.2, per-loop statistics;
   - [run_dependence] -> Sec. 3.3, full memory-access analysis
                         (optionally focused on some loop nests);
   - [study]          -> the last two chained: the dependence stage
                         focused on the loop profile's hottest roots. *)

type run_context = {
  st : Interp.Value.state;
  doc : Dom.Document.t;
  program : Jsir.Ast.program;
  infos : Jsir.Loops.info array;
}

let ticks_per_ms = 300
(* The abstract machine executes 300 cost units per virtual
   millisecond; chosen so the 12 sessions land in the paper's 8-62 s
   range while a full staged analysis of all of them stays under a
   minute of wall clock. *)

let prepare ?(seed = 7) ?(scale = 1.0) (w : Workload.t) : run_context =
  (* When a supervised attempt is running on this domain, its watchdog
     budget caps every interpreter state built inside it, and the
     state's busy virtual time is reported back for failure rows. The
     chaos session (if any) arms its tick/DOM probes here too — this is
     the single choke point where all workload interpreters are born. *)
  let budget = Js_parallel.Supervisor.active_budget () in
  let st = Interp.Eval.create ~seed ?budget ~ticks_per_ms () in
  Js_parallel.Supervisor.set_virtual_probe (fun () ->
      Ceres_util.Vclock.to_ms st.Interp.Value.clock
        (Ceres_util.Vclock.busy st.Interp.Value.clock));
  Js_parallel.Fault.arm (Js_parallel.Fault.current_session ()) st;
  Interp.Builtins.install st;
  let doc = Dom.Document.install st in
  (* a host global, like [Math]: the global side table stays empty *)
  Interp.Value.raw_set_prop st.global_obj "SCALE" (Num scale);
  let program = Jsir.Parser.parse_program w.source in
  let infos = Jsir.Loops.index program in
  { st; doc; program; infos }

(* Schedule the scripted user interactions, then run the event loop to
   the end of the session. Interactions target elements by id; an
   event whose target does not exist is dropped, like a click landing
   outside the app. *)
let drive ctx (w : Workload.t) =
  List.iter
    (fun (i : Workload.interaction) ->
       let thunk =
         Interp.Value.make_host_fn ctx.st "scripted-interaction"
           (fun st _ _ ->
              (match Dom.Document.find_by_id st ctx.doc.body i.target_id with
               | Some el ->
                 ignore
                   (Dom.Document.dispatch ctx.doc el i.event ~x:i.x ~y:i.y)
               | None -> ());
              Interp.Value.Undefined)
       in
       ignore
         (Interp.Events.schedule_value ctx.st ~delay_ms:i.at_ms
            (Obj thunk) []))
    w.interactions;
  ignore (Interp.Events.run_until ctx.st ~until_ms:w.session_ms)

let ms_of ctx ticks = Ceres_util.Vclock.to_ms ctx.st.Interp.Value.clock ticks

(* ------------------------------------------------------------------ *)

type timing = {
  total_ms : float; (* scripted session length *)
  active_ms : float; (* sampling-profiler estimate (Gecko model) *)
  busy_ms : float; (* true interpreter busy time *)
  in_loops_ms : float; (* lightweight-mode loop timer *)
  dom_accesses : int;
  canvas_accesses : int;
  console : string list;
}

let run_plain ?scale ?par (w : Workload.t) =
  let ctx = prepare ?scale w in
  (match par with
   | Some pe when not (Js_parallel.Fault.enabled ()) ->
     (* proven nests execute via the pool; under chaos injection the
        hook stays uninstalled so the fault schedule is unchanged *)
     let report = Analysis.Driver.analyze ctx.program in
     Js_parallel.Par_exec.install pe ctx.st ~report
   | _ -> ());
  Interp.Eval.run_program ctx.st ctx.program;
  drive ctx w;
  ctx

(* One instrumented session: [install] attaches the mode's probes to
   the fresh state before the instrumented program runs. *)
let run_instrumented ?scale mode install (w : Workload.t) =
  let ctx = prepare ?scale w in
  let probes = install ctx in
  Interp.Eval.run_program ctx.st (Ceres.Instrument.program mode ctx.program);
  drive ctx w;
  (ctx, probes)

(* Table 2 row: lightweight instrumentation plus the sampler. *)
let run_lightweight ?scale (w : Workload.t) : timing =
  let ctx, (lw, sampler) =
    run_instrumented ?scale Ceres.Instrument.Lightweight
      (fun ctx ->
         let lw = Ceres.Install.lightweight ctx.st in
         (lw, Profiler.Sampler.attach ~period_ms:1.0 ctx.st))
      w
  in
  let dom, canvas = Dom.Document.stats ctx.doc in
  { total_ms = ms_of ctx (Ceres_util.Vclock.now ctx.st.Interp.Value.clock);
    active_ms = Profiler.Sampler.active_ms sampler;
    busy_ms = ms_of ctx (Ceres_util.Vclock.busy ctx.st.Interp.Value.clock);
    in_loops_ms = Ceres.Lightweight.in_loops_ms lw;
    dom_accesses = dom;
    canvas_accesses = canvas;
    console = List.rev ctx.st.Interp.Value.console }

let run_loop_profile ?scale w =
  run_instrumented ?scale Ceres.Instrument.Loop_profile
    (fun ctx -> Ceres.Install.loop_profile ctx.st ctx.infos)
    w

let run_dependence ?focus (w : Workload.t) =
  run_instrumented ~scale:w.dep_scale Ceres.Instrument.Dependence
    (fun ctx -> Ceres.Install.dependence ?focus ctx.st ctx.infos)
    w

(* ------------------------------------------------------------------ *)
(* Table 3: per-nest inspection                                        *)

type nest_row = {
  workload : string;
  root : Jsir.Ast.loop_id;
  label : string;
  pct_loop_time : float; (* share of total root-loop time *)
  instances : int;
  trips_mean : float;
  trips_sd : float;
  divergence : Ceres.Classify.divergence;
  dom_access : bool;
  dep_difficulty : Ceres.Classify.difficulty;
  par_difficulty : Ceres.Classify.difficulty;
  warning_count : int;
  static_verdict : string; (* refined label of the root, see {!static_label} *)
  advice : Ceres.Advice.recommendation list;
}

(* Five-way static classification for the Table 3 column: reductions
   split by whether *every* accumulator was proven order-insensitive
   (those run with identity-seeded partials; order-sensitive ones need
   the journal-replay schedule). *)
let static_label (v : Analysis.Verdict.t) =
  match v with
  | Analysis.Verdict.Parallel _ -> "parallel"
  | Analysis.Verdict.Reduction { accs; _ } ->
    if
      List.for_all
        (fun (a : Analysis.Verdict.acc) -> a.order_insensitive)
        accs
    then "reduction(oi)"
    else "reduction"
  | Analysis.Verdict.Needs_runtime_check _ -> "rtc"
  | Analysis.Verdict.Sequential _ -> "seq"

(* ------------------------------------------------------------------ *)
(* The staged study (paper Sec. 3): the loop profile picks the hottest
   root nests, one dependence session examines only those, and the
   static analyzer reads the profiled program. Table 3, the advisor's
   plan and the report export all read one study. *)

type hot_nest = {
  stats : Ceres.Loop_profile.loop_stats;
  info : Jsir.Loops.info;
  static_row : Analysis.Driver.row option;
  verdict : string; (* [static_label], "-" if unanalyzed *)
  dom_accesses : int;
  advice : Ceres.Advice.recommendation list;
}

type study = {
  ctx : run_context;
  profile : Ceres.Loop_profile.t;
  deps : Ceres.Runtime.t;
  hot : hot_nest list;
}

let study ?nests (w : Workload.t) =
  let ctx, profile = run_loop_profile w in
  let roots =
    Ceres.Loop_profile.hottest_roots profile ctx.infos
    |> List.filteri (fun i _ -> i < Option.value ~default:max_int nests)
  in
  let ids = List.map (fun (s : Ceres.Loop_profile.loop_stats) -> s.id) roots in
  let _, deps = run_dependence ~focus:ids w in
  let static_report = Analysis.Driver.analyze ctx.program in
  let hot_nest (s : Ceres.Loop_profile.loop_stats) =
    let static_row =
      List.find_opt
        (fun (r : Analysis.Driver.row) -> r.info.id = s.id)
        static_report.rows
    in
    let dom_accesses = Ceres.Runtime.nest_dom_accesses deps ~root:s.id in
    { stats = s;
      info = Jsir.Loops.find ctx.infos s.id;
      static_row;
      verdict =
        (match static_row with Some r -> static_label r.verdict | None -> "-");
      dom_accesses;
      advice = Ceres.Advice.for_nest deps ~root:s.id ~dom_accesses }
  in
  { ctx; profile; deps; hot = List.map hot_nest roots }

(* The study's Table 3 rows: its loop statistics and dependence
   evidence, classified. *)
let nest_rows (w : Workload.t) st =
  let total = Ceres.Loop_profile.total_root_time_ms st.profile st.ctx.infos in
  List.map
    (fun ({ stats = s; _ } as n) ->
       let trips_mean = Ceres_util.Welford.mean s.trips in
       let iter_mean = Ceres_util.Welford.mean s.iter_time in
       let iter_cv =
         if iter_mean <= 0. then 0.
         else Ceres_util.Welford.stddev s.iter_time /. iter_mean
       in
       let ws = Ceres.Runtime.warnings_impeding st.deps ~root:s.id in
       let iterations =
         float_of_int (Ceres.Runtime.instances_of st.deps s.id)
         *. Float.max 1. trips_mean
       in
       let dom_per_iteration =
         if iterations <= 0. then 0.
         else float_of_int n.dom_accesses /. iterations
       in
       let divergence =
         Ceres.Classify.divergence_of ~iter_cv
           ~recursion:(Ceres.Runtime.is_tainted st.deps s.id)
           ~avg_trips:trips_mean
       in
       let dep_difficulty =
         Ceres.Classify.dependence_difficulty
           (Ceres.Classify.summarize_warnings ws)
       in
       { workload = w.name;
         root = s.id;
         label = Jsir.Loops.label n.info;
         pct_loop_time =
           (if total <= 0. then 0.
            else 100. *. Ceres_util.Welford.total s.time /. total);
         instances = Ceres_util.Welford.count s.time;
         trips_mean;
         trips_sd = Ceres_util.Welford.stddev s.trips;
         divergence;
         dom_access = n.dom_accesses > 0;
         dep_difficulty;
         par_difficulty =
           Ceres.Classify.parallelization_difficulty ~dep:dep_difficulty
             ~dom_per_iteration ~divergence;
         warning_count = List.fold_left (fun a (_, c) -> a + c) 0 ws;
         static_verdict = n.verdict;
         advice = n.advice })
    st.hot

(* Inspect the application's hottest root nests: as many as the paper
   reports for it (22 rows over the 12 apps), [w.hot_nest_count], or
   [max_nests] when given. *)
let inspect ?max_nests (w : Workload.t) : nest_row list =
  let nests = Option.value ~default:w.hot_nest_count max_nests in
  nest_rows w (study ~nests w)

(* Sec. 4.2: the in-loop share of busy time, scaled by the loop-time
   share of the nests at most medium to parallelize. A root that runs
   inside another root's instance overlaps it, so the shares can add
   past 100%; their union cannot. *)
let parallel_fraction (t : timing) rows =
  let easy_pct =
    List.fold_left
      (fun acc (r : nest_row) ->
         match r.par_difficulty with
         | Ceres.Classify.Very_easy | Easy | Medium -> acc +. r.pct_loop_time
         | Hard | Very_hard -> acc)
      0. rows
  in
  if t.busy_ms <= 0. then 0.
  else t.in_loops_ms *. (Float.min 100. easy_pct /. 100.) /. t.busy_ms

type agreement = { rows : int; exact : int; adjacent : int; dom_exact : int }

(* A paper difficulty cell on [Classify.difficulty_rank]'s scale; a cell
   naming no level is never within one of a measured one. *)
let paper_rank s =
  match
    List.find_opt
      (fun d -> String.equal (Ceres.Classify.difficulty_to_string d) s)
      Ceres.Classify.[ Very_easy; Easy; Medium; Hard; Very_hard ]
  with
  | Some d -> Ceres.Classify.difficulty_rank d
  | None -> -10

let table3_agreement inspected =
  let rows = ref 0 and exact = ref 0 and adjacent = ref 0
  and dom_exact = ref 0 in
  let cell mine theirs =
    match abs (Ceres.Classify.difficulty_rank mine - paper_rank theirs) with
    | 0 -> incr exact
    | 1 -> incr adjacent
    | _ -> ()
  in
  List.iter
    (fun ((w : Workload.t), measured) ->
       let paper =
         List.filter
           (fun (p : Paper_data.t3_row) -> p.app = w.name)
           Paper_data.table3
       in
       List.iteri
         (fun i (r : nest_row) ->
            match List.nth_opt paper i with
            | None -> ()
            | Some p ->
              incr rows;
              cell r.dep_difficulty p.deps;
              cell r.par_difficulty p.par;
              if r.dom_access = p.dom then incr dom_exact)
         measured)
    inspected;
  { rows = !rows; exact = !exact; adjacent = !adjacent;
    dom_exact = !dom_exact }

(* ------------------------------------------------------------------ *)
(* Cross-validation of the static analyzer against the dynamic one.

   Soundness obligation: a loop the static stage proves [Parallel]
   must never be observed by the dynamic stage carrying an
   inter-iteration dependence — an observed flow (Prop_read), output
   (Prop_overwrite) or anti (Prop_war) triple, or a scalar
   accumulation (Var_accum), whose carrier is that loop. A [Reduction]
   verdict additionally tolerates Var_accum warnings over exactly the
   accumulators it declared, and a proven verdict that *declares* anti
   dependences ([war_roots]) tolerates Prop_war warnings on the loop:
   the dynamic warning names the property, not the memory root, so the
   tolerance is per-loop. The declaration is what makes it sound to
   run: chunks write the master's arrays in place, where one chunk
   could read an element another already overwrote, so [Par_exec]
   keeps every nest that declares an anti dependence sequential, and
   reports why. Privatizable Var_write / disjoint-scatter
   Prop_write / Induction_write warnings are advisory on both sides
   and constrain neither verdict. *)

type crossval_row = {
  loop : Jsir.Loops.info;
  static_verdict : Analysis.Verdict.t;
  dynamic_carried : string list;
  (* rendered dynamic warnings carried by this loop that the static
     verdict does not account for *)
  sound : bool; (* false = statically proven yet dynamically carried *)
}

let crossval (w : Workload.t) : crossval_row list =
  let report = Analysis.Driver.analyze (Jsir.Parser.parse_program w.source) in
  let ctx_dep, rt = run_dependence w in
  let warnings = Ceres.Runtime.warnings rt in
  let carried_kind (k : Ceres.Runtime.access_kind) =
    match k with
    | Ceres.Runtime.Prop_overwrite _ | Ceres.Runtime.Prop_read _
    | Ceres.Runtime.Prop_war _ | Ceres.Runtime.Var_accum _ ->
      true
    | Ceres.Runtime.Var_write _ | Ceres.Runtime.Prop_write _
    | Ceres.Runtime.Induction_write _ ->
      false
  in
  List.map
    (fun (r : Analysis.Driver.row) ->
       let allowed (wn : Ceres.Runtime.warning) =
         match (r.verdict, wn.kind) with
         | (Analysis.Verdict.Reduction _ as v), Ceres.Runtime.Var_accum n ->
           List.mem n (Analysis.Verdict.acc_names v)
         | v, Ceres.Runtime.Prop_war _ ->
           Analysis.Verdict.is_proven v
           && Analysis.Verdict.war_roots v <> []
         | _ -> false
       in
       let offending =
         List.filter
           (fun ((wn : Ceres.Runtime.warning), _) ->
              wn.carrier = Some r.info.Jsir.Loops.id
              && carried_kind wn.kind
              && not (allowed wn))
           warnings
       in
       let dynamic_carried =
         List.map (Ceres.Report.warning_to_string ctx_dep.infos) offending
       in
       let sound =
         (not (Analysis.Verdict.is_proven r.verdict))
         || dynamic_carried = []
       in
       { loop = r.info; static_verdict = r.verdict; dynamic_carried; sound })
    report.rows

(* ------------------------------------------------------------------ *)
(* Report export (paper Fig. 5 steps 5-7): write the per-application
   analysis as a markdown report into [dir]; returns the path. *)

let export_report ?dir:(dir = "reports") (w : Workload.t) =
  let timing = run_lightweight w in
  let st = study ~nests:w.hot_nest_count w in
  let timing_text =
    Printf.sprintf
      "session %.1f s, sampler-active %.2f s, busy %.2f s, in loops %.2f s
       DOM accesses: %d, canvas accesses: %d"
      (timing.total_ms /. 1000.) (timing.active_ms /. 1000.)
      (timing.busy_ms /. 1000.) (timing.in_loops_ms /. 1000.)
      timing.dom_accesses timing.canvas_accesses
  in
  let nest_sections =
    List.concat_map
      (fun (r : nest_row) ->
         [ ( Printf.sprintf "Hot nest %s" r.label,
             `Text
               (Printf.sprintf
                  "%.0f%% of loop time, %d instances, trips %.1f±%.1f,
                   divergence %s, DOM %b, breaking dependences %s,
                   parallelization %s."
                  r.pct_loop_time r.instances r.trips_mean r.trips_sd
                  (Ceres.Classify.divergence_to_string r.divergence)
                  r.dom_access
                  (Ceres.Classify.difficulty_to_string r.dep_difficulty)
                  (Ceres.Classify.difficulty_to_string r.par_difficulty)) );
           ( Printf.sprintf "Advice for %s" r.label,
             `Code (Ceres.Advice.render ~label:r.label r.advice) );
           ( Printf.sprintf "Warnings in the nest of %s" r.label,
             `Code
               (Ceres.Report.nest_report st.deps st.ctx.infos ~root:r.root) )
         ])
      (nest_rows w st)
  in
  Ceres.Export.write_report ~dir ~name:w.name
    ~sections:
      (( "Application",
         `Text
           (Printf.sprintf "%s — %s / %s (%s)" w.name w.category
              w.description w.url) )
       :: ("Timing (Sec 3.1)", `Text timing_text)
       :: ("Loop profile (Sec 3.2)",
           `Code (Ceres.Report.loop_profile_report st.profile st.ctx.infos))
       :: nest_sections)
