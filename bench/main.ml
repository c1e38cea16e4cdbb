(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, printing measured values side by side with the published
   ones (EXPERIMENTS.md records the comparison).

   Sections (select on the command line; default: all):
     table1 figure1 figure2 figure3 figure4 table2 table3 amdahl
     speedup parexec overhead nbody

   `overhead` uses Bechamel to measure the wall-clock cost of the four
   instrumentation stages on a fixed program, backing the paper's
   claims that the lightweight and loop-profiling modes have minimal
   impact while dependence analysis is expensive. *)

module PE = Js_parallel.Par_exec

(* The plain session once sequential (Measure mode also times each
   proven nest — the per-nest baseline) and once with the proven nests
   forked across [pool], a 2-domain pool the caller spawns outside the
   timed pass. The two Par_exec instances are joined by loop id into
   the per-nest speedup rows. *)
let exec_passes pool =
  let measure_pe = ref None and par_pe = ref None in
  let passes =
    [ ( "exec-seq",
        fun w ->
          let pe = PE.create ~mode:PE.Measure ~jobs:1 () in
          measure_pe := Some pe;
          ignore (Workloads.Harness.run_plain ~par:pe w) );
      ( "exec-par-j2",
        fun w ->
          let pe = PE.create ~mode:(PE.Parallel pool) ~jobs:2 () in
          par_pe := Some pe;
          ignore (Workloads.Harness.run_plain ~par:pe w) ) ]
  in
  (passes, measure_pe, par_pe)

let nest_speedup_rows measure_pe par_pe =
  let seq_rows = PE.nest_rows measure_pe in
  List.map
    (fun (id, label, (ps : PE.nest_stats)) ->
       let seq_ms =
         match List.find_opt (fun (i, _, _) -> i = id) seq_rows with
         | Some (_, _, ss) -> PE.seq_equivalent_ms ~seq:ss ~par:ps
         | None -> 0.
       in
       (id, label, ps, seq_ms,
        if ps.par_ms > 0. then seq_ms /. ps.par_ms else 0.))
    (PE.nest_rows par_pe)

let section_requested args name = args = [] || List.mem name args

let header name =
  Printf.printf "\n==================== %s ====================\n" name

(* --jobs N: run the per-workload Table 2 / Table 3 pipelines
   concurrently on the service core's work-stealing pool. Each
   pipeline owns a fresh interpreter state (share-nothing), so the
   printed tables are byte-identical to the sequential run; the pool's
   scheduling telemetry goes to stderr at exit. *)
let service : Service.t option ref = ref None

let the_service () =
  match !service with
  | Some s -> s
  | None ->
    let s = Service.create () in
    service := Some s;
    s

(* Every table pass is one batched wave of service requests — the same
   supervised core behind `jsceres serve`, so a workload that crashes
   (or is killed by a JSCERES_CHAOS injection) becomes a stderr
   warning and is dropped from its table instead of aborting the whole
   bench run. *)
let batch ?max_nests pass extract =
  let reqs =
    List.map
      (fun (w : Workloads.Workload.t) ->
         Service.Request.make ?max_nests pass w.name)
      Workloads.Registry.all
  in
  let resps = Service.run_batch (the_service ()) reqs in
  List.filter_map
    (fun ((w : Workloads.Workload.t), (r : Service.Response.t)) ->
       match r.result with
       | Ok body -> Some (w, extract body)
       | Error e ->
         Printf.eprintf "bench: workload %s failed %s\n%!" w.name e.message;
         None)
    (List.combine Workloads.Registry.all resps)

let timing_of = function
  | Service.Response.Profile t -> t
  | _ -> assert false

let rows_of = function
  | Service.Response.Pipeline (_, rows) -> rows
  | _ -> assert false

let crossval_of = function
  | Service.Response.Crossval rows -> rows
  | _ -> assert false

(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: case-study web applications";
  print_string (Workloads.Registry.table1 ())

let respondents = lazy (Survey.Generator.generate ())

let figure1 () =
  header "Figure 1: future web application categories";
  let rows, uncoded = Survey.Aggregate.figure1 (Lazy.force respondents) in
  print_string (Survey.Aggregate.render_figure1 rows);
  Printf.printf "(coded %d answers; %d without codeable answer)\n"
    (List.fold_left
       (fun a (r : Survey.Aggregate.figure1_row) -> a + r.count)
       0 rows)
    uncoded;
  Printf.printf "paper:    31%% / 20%% / 18%% / 8%% / 9%% / 8%% / 6%%\n";
  Printf.printf
    "inter-rater agreement (Jaccard, 20%% sample): %.2f (paper: > 0.80)\n"
    (Survey.Coding.inter_rater_agreement (Lazy.force respondents))

let figure2 () =
  header "Figure 2: performance bottlenecks";
  print_string
    (Survey.Aggregate.render_figure2
       (Survey.Aggregate.figure2 (Lazy.force respondents)));
  print_string
    "paper:   resource loading 8/40/52, DOM 13/38/49, Canvas 24/46/30,\n\
    \         WebGL 25/48/27, number crunching 39/39/21, CSS 38/47/15\n"

let figure3 () =
  header "Figure 3: functional (1) .. imperative (5) preference";
  print_string
    (Survey.Aggregate.render_histogram ~title:""
       (Survey.Aggregate.figure3 (Lazy.force respondents)));
  Printf.printf "paper:    31%% / 30%% / 25%% / 9%% / 5%%\n";
  Printf.printf
    "operator preference (Sec 2.3): %.0f%% prefer builtin operators (paper: 74%%)\n"
    (Survey.Aggregate.operator_preference_pct (Lazy.force respondents))

let figure4 () =
  header "Figure 4: monomorphic (1) .. polymorphic (5) variables";
  print_string
    (Survey.Aggregate.render_histogram ~title:""
       (Survey.Aggregate.figure4 (Lazy.force respondents)));
  Printf.printf "paper:    58%% / 29%% / 7%% / 5%% / 1%%\n";
  let globals = Survey.Aggregate.global_use_counts (Lazy.force respondents) in
  Printf.printf "global-variable uses (Sec 2.4, %d answers):\n"
    (List.fold_left (fun a (_, n) -> a + n) 0 globals);
  List.iter
    (fun (use, n) ->
       Printf.printf "  %-36s %d\n" (Survey.Types.global_use_name use) n)
    globals

(* ------------------------------------------------------------------ *)

(* Shared by table2/amdahl: one lightweight (Table 2) pass per app. *)
let timings = lazy (batch Service.Request.Profile timing_of)

let table2 () =
  header "Table 2: running time (measured | paper)";
  let tbl =
    Ceres_util.Table.create
      [ "Name"; "Total (s)"; "Active"; "In Loops"; "paper Total";
        "paper Active"; "paper Loops" ]
  in
  Ceres_util.Table.set_align tbl
    [ Left; Right; Right; Right; Right; Right; Right ];
  List.iter
    (fun ((w : Workloads.Workload.t), (t : Workloads.Harness.timing)) ->
       let pt, pa, pl =
         match
           List.find_opt
             (fun (n, _, _, _) -> n = w.name)
             Workloads.Paper_data.table2
         with
         | Some (_, t, a, l) -> (t, a, l)
         | None -> (0., 0., 0.)
       in
       Ceres_util.Table.add_row tbl
         [ w.name;
           Printf.sprintf "%.0f" (t.total_ms /. 1000.);
           Printf.sprintf "%.2f" (t.active_ms /. 1000.);
           Printf.sprintf "%.2f" (t.in_loops_ms /. 1000.);
           Printf.sprintf "%.0f" pt;
           Printf.sprintf "%.2f" pa;
           Printf.sprintf "%.2f" pl ])
    (Lazy.force timings);
  Ceres_util.Table.print tbl

(* Shared by table3/amdahl: inspection is the expensive pass. *)
let inspection = lazy (batch Service.Request.Pipeline rows_of)

let difficulty_rank = function
  | "very easy" -> 0
  | "easy" -> 1
  | "medium" -> 2
  | "hard" -> 3
  | "very hard" -> 4
  | _ -> -10

let table3 () =
  header "Table 3: detailed inspection of loop nests (measured | paper)";
  let tbl =
    Ceres_util.Table.create
      [ "name"; "%"; "inst"; "trips"; "diverg."; "DOM"; "deps"; "difficulty";
        "static"; "|paper %"; "trips"; "div"; "DOM"; "deps"; "diff" ]
  in
  List.iter
    (fun ((w : Workloads.Workload.t), rows) ->
       let paper_rows =
         List.filter
           (fun (r : Workloads.Paper_data.t3_row) -> r.app = w.name)
           Workloads.Paper_data.table3
       in
       List.iteri
         (fun i (r : Workloads.Harness.nest_row) ->
            let p = List.nth_opt paper_rows i in
            let pget f = match p with Some p -> f p | None -> "-" in
            Ceres_util.Table.add_row tbl
              [ (if i = 0 then w.name else "");
                Printf.sprintf "%.0f" r.pct_loop_time;
                string_of_int r.instances;
                Printf.sprintf "%.0f±%.0f" r.trips_mean r.trips_sd;
                Ceres.Classify.divergence_to_string r.divergence;
                (if r.dom_access then "yes" else "no");
                Ceres.Classify.difficulty_to_string r.dep_difficulty;
                Ceres.Classify.difficulty_to_string r.par_difficulty;
                r.static_verdict;
                pget (fun (p : Workloads.Paper_data.t3_row) ->
                    Printf.sprintf "%.0f" p.pct);
                pget (fun p ->
                    match p.trips_sd with
                    | Some sd -> Printf.sprintf "%.0f±%.0f" p.trips sd
                    | None -> Printf.sprintf "%.0f" p.trips);
                pget (fun p -> p.divergence);
                pget (fun p -> if p.dom then "yes" else "no");
                pget (fun p -> p.deps);
                pget (fun p -> p.par) ])
         rows;
       Ceres_util.Table.add_separator tbl)
    (Lazy.force inspection);
  Ceres_util.Table.print tbl;
  (* agreement summary over the ordinal columns *)
  let cells = ref 0 and agree = ref 0 and near = ref 0 in
  List.iter
    (fun ((w : Workloads.Workload.t), rows) ->
       let paper_rows =
         List.filter
           (fun (r : Workloads.Paper_data.t3_row) -> r.app = w.name)
           Workloads.Paper_data.table3
       in
       List.iteri
         (fun i (r : Workloads.Harness.nest_row) ->
            match List.nth_opt paper_rows i with
            | None -> ()
            | Some p ->
              let check mine theirs =
                incr cells;
                let dm = difficulty_rank mine
                and dt = difficulty_rank theirs in
                if dm = dt then incr agree
                else if abs (dm - dt) <= 1 then incr near
              in
              check
                (Ceres.Classify.difficulty_to_string r.dep_difficulty)
                p.deps;
              check
                (Ceres.Classify.difficulty_to_string r.par_difficulty)
                p.par;
              incr cells;
              if r.dom_access = p.dom then incr agree)
         rows)
    (Lazy.force inspection);
  Printf.printf
    "ordinal agreement with the paper: %d/%d cells exact, +%d within one level\n"
    !agree !cells !near;
  (* static column totals over the inspected nests, five-way *)
  let statics =
    List.concat_map
      (fun (_, rows) ->
         List.map
           (fun (r : Workloads.Harness.nest_row) -> r.static_verdict)
           rows)
      (Lazy.force inspection)
  in
  let n lbl = List.length (List.filter (String.equal lbl) statics) in
  Printf.printf
    "static verdicts over %d nests: %d parallel / %d reduction(oi) / %d \
     reduction / %d rtc / %d seq\n"
    (List.length statics) (n "parallel")
    (n "reduction(oi)")
    (n "reduction") (n "rtc") (n "seq")

(* ------------------------------------------------------------------ *)

(* Static-vs-dynamic cross-validation: one row per workload, counting
   statically proven loops and checking the soundness obligation (a
   statically [Parallel]/[Reduction] loop must not be observed
   dynamically carrying an inter-iteration dependence). *)
let crossval () =
  header "Cross-validation: static verdicts vs dynamic dependence analysis";
  let tbl =
    Ceres_util.Table.create
      [ "name"; "loops"; "parallel"; "reduction"; "runtime-check";
        "sequential"; "unsound" ]
  in
  let total_unsound = ref 0 and total_proven = ref 0 in
  List.iter
    (fun ((w : Workloads.Workload.t), rows) ->
       let count p = List.length (List.filter p rows) in
       let kind k (r : Workloads.Harness.crossval_row) =
         String.equal (Analysis.Verdict.kind_name r.static_verdict) k
       in
       let unsound =
         List.filter
           (fun (r : Workloads.Harness.crossval_row) -> not r.sound)
           rows
       in
       total_unsound := !total_unsound + List.length unsound;
       total_proven :=
         !total_proven
         + count (fun r -> Analysis.Verdict.is_proven r.static_verdict);
       Ceres_util.Table.add_row tbl
         [ w.name;
           string_of_int (List.length rows);
           string_of_int (count (kind "parallel"));
           string_of_int (count (kind "reduction"));
           string_of_int (count (kind "needs-runtime-check"));
           string_of_int (count (kind "sequential"));
           string_of_int (List.length unsound) ];
       List.iter
         (fun (r : Workloads.Harness.crossval_row) ->
            Printf.printf "  UNSOUND %s %s [%s]: %s\n" w.name
              (Jsir.Loops.label r.loop)
              (Analysis.Verdict.to_string r.static_verdict)
              (String.concat " | " r.dynamic_carried))
         unsound)
    (batch Service.Request.Crossval crossval_of);
  Ceres_util.Table.print tbl;
  Printf.printf "statically proven: %d loops; soundness violations: %d\n"
    !total_proven !total_unsound

(* ------------------------------------------------------------------ *)

(* The Amdahl fraction counts every parallelizable nest, not only the
   Table 3 rows (fluidSim spreads its loop time over many small solver
   nests, all of them parallelizable). *)
let full_inspection =
  lazy (batch ~max_nests:16 Service.Request.Pipeline rows_of)

let amdahl () =
  header "Amdahl bounds (Sec 4.2: '>3x for 5 of the 12 applications')";
  let tbl =
    Ceres_util.Table.create
      [ "name"; "parallel fraction"; "bound N=2"; "N=4"; "N=8"; "N=inf" ]
  in
  Ceres_util.Table.set_align tbl [ Left; Right; Right; Right; Right; Right ];
  let over_3 = ref 0 in
  List.iter
    (fun ((w : Workloads.Workload.t), rows) ->
       match List.assq_opt w (Lazy.force timings) with
       | None -> () (* workload failed in the timing pass: no row *)
       | Some t ->
       let easy_pct =
         List.fold_left
           (fun acc (r : Workloads.Harness.nest_row) ->
              match r.par_difficulty with
              | Ceres.Classify.Very_easy | Ceres.Classify.Easy
              | Ceres.Classify.Medium ->
                acc +. r.pct_loop_time
              | Ceres.Classify.Hard | Ceres.Classify.Very_hard -> acc)
           0. rows
       in
       (* A root that runs inside another root's instance overlaps it,
          so the shares can add past 100%; their union cannot. *)
       let p =
         if t.busy_ms <= 0. then 0.
         else t.in_loops_ms *. (Float.min 100. easy_pct /. 100.) /. t.busy_ms
       in
       let bound n =
         Js_parallel.Amdahl.speedup ~parallel_fraction:p ~workers:n
       in
       if bound 0 > 3. then incr over_3;
       Ceres_util.Table.add_row tbl
         [ w.name;
           Printf.sprintf "%.2f" p;
           Printf.sprintf "%.2f" (bound 2);
           Printf.sprintf "%.2f" (bound 4);
           Printf.sprintf "%.2f" (bound 8);
           (let b = bound 0 in
            if b = Float.infinity then "inf" else Printf.sprintf "%.2f" b) ])
    (Lazy.force full_inspection);
  Ceres_util.Table.print tbl;
  Printf.printf
    "applications with unbounded-worker speedup > 3x: %d (paper: %d)\n"
    !over_3 Workloads.Paper_data.amdahl_easy_apps

(* ------------------------------------------------------------------ *)

let speedup () =
  header "Measured kernel speedups under the domain pool";
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "machine reports %d available core(s); measured scaling is bounded by\n\
     the hardware. Checksum equality below validates parallel correctness\n\
     independently of core count.\n\n"
    cores;
  let domain_counts =
    List.filter (fun d -> d <= max 2 (2 * cores)) [ 1; 2; 4; 8 ]
  in
  let tbl =
    Ceres_util.Table.create
      (("kernel" :: "workload" :: "seq (ms)"
        :: List.map (fun d -> Printf.sprintf "x%d dom" d) domain_counts)
       @ [ "checksums" ])
  in
  List.iter
    (fun (k : Workloads.Kernels.kernel) ->
       let time f =
         let t0 = Unix.gettimeofday () in
         let r = f () in
         (r, 1000. *. (Unix.gettimeofday () -. t0))
       in
       let seq_sum, seq_ms = time (fun () -> k.run k.default_size) in
       let speedups =
         List.map
           (fun d ->
              let sum, ms =
                Js_parallel.Pool.with_pool ~domains:d (fun p ->
                    time (fun () -> k.run ~pool:p k.default_size))
              in
              (d, seq_ms /. ms, sum))
           domain_counts
       in
       let all_equal =
         List.for_all
           (fun (_, _, sum) ->
              Float.abs (sum -. seq_sum)
              < (1e-6 *. Float.abs seq_sum) +. 1e-9)
           speedups
       in
       (match List.rev speedups with
        | (d, s, _) :: _ when d > 1 ->
          Printf.printf
            "  %-12s Karp-Flatt serial fraction at x%d domains: %.2f\n"
            k.kname d
            (Js_parallel.Amdahl.karp_flatt ~measured_speedup:s ~workers:d)
        | _ -> ());
       Ceres_util.Table.add_row tbl
         ((k.kname :: k.workload
           :: Printf.sprintf "%.1f" seq_ms
           :: List.map (fun (_, s, _) -> Printf.sprintf "%.2fx" s) speedups)
          @ [ (if all_equal then "equal" else "MISMATCH") ]))
    Workloads.Kernels.all;
  Ceres_util.Table.print tbl

(* ------------------------------------------------------------------ *)

(* The Amdahl table above is a *bound*; this section closes the loop
   with measured execution: every statically-proven nest runs once
   sequentially (individually timed) and once forked over a 2-domain
   pool, and the table reports the measured per-nest speedup over the
   instances the work gate forked ("refused" counts the ones it ran
   sequentially; "seq" is priced at the forked instances' iterations).
   On a single-core host the speedups hover near or below 1x — the
   rows then validate correctness (0 fallbacks, byte-identical
   sessions are separately enforced by `make check`) rather than
   scaling. *)
let parexec () =
  header "Parallel loop execution: measured per-nest speedup (-j 2)";
  let tbl =
    Ceres_util.Table.create
      [ "workload"; "nest"; "inst"; "refused"; "chunks"; "fallback";
        "seq (ms)"; "par (ms)"; "speedup" ]
  in
  Ceres_util.Table.set_align tbl
    [ Left; Left; Right; Right; Right; Right; Right; Right; Right ];
  let nests = ref 0 and fallbacks = ref 0 in
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (w : Workloads.Workload.t) ->
           let m = PE.create ~mode:PE.Measure ~jobs:1 () in
           ignore (Workloads.Harness.run_plain ~par:m w);
           let p = PE.create ~mode:(PE.Parallel pool) ~jobs:2 () in
           ignore (Workloads.Harness.run_plain ~par:p w);
           List.iter
             (fun (_, label, (ps : PE.nest_stats), seq_ms, speedup) ->
                if ps.instances > 0 then incr nests;
                fallbacks := !fallbacks + ps.fallbacks;
                Ceres_util.Table.add_row tbl
                  [ w.name; label;
                    string_of_int ps.instances;
                    string_of_int ps.refused;
                    string_of_int ps.chunks;
                    string_of_int ps.fallbacks;
                    Printf.sprintf "%.1f" seq_ms;
                    Printf.sprintf "%.1f" ps.par_ms;
                    (if speedup > 0. then Printf.sprintf "%.2fx" speedup
                     else "-") ])
             (nest_speedup_rows m p))
        Workloads.Registry.all);
  Ceres_util.Table.print tbl;
  Printf.printf
    "nests executed in parallel: %d; poisoned instances that fell back\n\
     to the sequential path: %d (each fallback re-ran on the untouched\n\
     master state, so session output is unaffected)\n"
    !nests !fallbacks

(* ------------------------------------------------------------------ *)

(* The advisor grades itself: the deterministic plan's top nests with
   their predicted whole-program speedups, next to the measured
   program-equivalent speedup of every nest par-exec actually ran at
   -j 2, and whether the measurement landed inside the documented
   tolerance band (DESIGN.md §14). On a single-core host expect
   off-model rows — that is the point of printing the band. *)
let advise () =
  header "Advisor: predicted vs measured whole-program speedup (-j 2)";
  let tbl =
    Ceres_util.Table.create
      [ "workload"; "nest"; "verdict"; "busy%"; "pred @2"; "pred @4";
        "meas @2"; "band" ]
  in
  Ceres_util.Table.set_align tbl
    [ Left; Left; Left; Right; Right; Right; Right; Left ];
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let rep = Advisor.analyze w in
       ignore (Advisor.measure ~jobs:2 rep w);
       let pred (n : Advisor.nest) c =
         match
           List.find_opt (fun (p : Advisor.predicted) -> p.cores = c)
             n.predicted
         with
         | Some p -> Printf.sprintf "%.2fx" p.speedup
         | None -> "-"
       in
       List.iteri
         (fun i (n : Advisor.nest) ->
            if i < 3 then begin
              let m =
                List.find_opt
                  (fun (m : Advisor.measured_row) -> m.m_id = n.id)
                  rep.measured
              in
              Ceres_util.Table.add_row tbl
                [ w.name; n.label; n.verdict;
                  Printf.sprintf "%.1f" n.pct_busy;
                  pred n 2; pred n 4;
                  (match m with
                   | Some m -> Printf.sprintf "%.2fx" m.m_program_speedup
                   | None -> "-");
                  (match m with
                   | Some m -> Advisor.grade m
                   | None -> "-") ]
            end)
         rep.nests)
    Workloads.Registry.all;
  Ceres_util.Table.print tbl

(* ------------------------------------------------------------------ *)

let overhead_program =
  {|
var grid = [];
var i;
for (i = 0; i < 900; i++) { grid.push((i * 37) % 101); }
function smooth() {
  var j;
  var out = [];
  for (j = 0; j < grid.length; j++) {
    var left = j > 0 ? grid[j - 1] : 0;
    var right = j + 1 < grid.length ? grid[j + 1] : 0;
    out.push((left + grid[j] * 2 + right) / 4);
  }
  grid = out;
}
var r;
for (r = 0; r < 30; r++) { smooth(); }
|}

let overhead () =
  header "Instrumentation overhead per mode (Bechamel)";
  let program = Jsir.Parser.parse_program overhead_program in
  let run mode () =
    let st = Interp.Eval.create () in
    Interp.Builtins.install st;
    match mode with
    | `Plain -> Interp.Eval.run_program st program
    | `Light ->
      ignore (Ceres.Install.lightweight st);
      Interp.Eval.run_program st
        (Ceres.Instrument.program Ceres.Instrument.Lightweight program)
    | `Loop ->
      ignore (Ceres.Install.loop_profile st (Jsir.Loops.index program));
      Interp.Eval.run_program st
        (Ceres.Instrument.program Ceres.Instrument.Loop_profile program)
    | `Dep ->
      ignore (Ceres.Install.dependence st (Jsir.Loops.index program));
      Interp.Eval.run_program st
        (Ceres.Instrument.program Ceres.Instrument.Dependence program)
  in
  let open Bechamel in
  let open Toolkit in
  let tests =
    Test.make_grouped ~name:"instrumentation"
      [ Test.make ~name:"0-baseline" (Staged.stage (run `Plain));
        Test.make ~name:"1-lightweight" (Staged.stage (run `Light));
        Test.make ~name:"2-loop-profile" (Staged.stage (run `Loop));
        Test.make ~name:"3-dependence" (Staged.stage (run `Dep)) ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let baseline = ref 0. in
  List.iter
    (fun result ->
       Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) result []
       |> List.sort compare
       |> List.iter (fun (name, ols) ->
           match Analyze.OLS.estimates ols with
           | Some (est :: _) ->
             let is_baseline =
               let suffix = "0-baseline" in
               String.length name >= String.length suffix
               && String.sub name
                    (String.length name - String.length suffix)
                    (String.length suffix)
                  = suffix
             in
             if is_baseline then baseline := est;
             let factor = if !baseline > 0. then est /. !baseline else 1. in
             Printf.printf "  %-32s %10.2f us/run  (%.2fx baseline)\n" name
               (est /. 1000.) factor
           | Some [] | None -> Printf.printf "  %-32s (no estimate)\n" name))
    results;
  print_string
    "paper: lightweight mode 'no discernible impact', loop profiling\n\
     'minimal discernible impact', dependence mode 'very high overhead'\n"

(* ------------------------------------------------------------------ *)

(* Sec. 4.2 polymorphism check, measured: "our manual inspection did
   not reveal any polymorphic variables within the computationally-
   intensive loops". *)
let polymorphism () =
  header "Polymorphism in the hot loops (Sec 4.2, measured)";
  let tbl =
    Ceres_util.Table.create
      [ "workload"; "write sites observed"; "polymorphic sites" ]
  in
  Ceres_util.Table.set_align tbl [ Left; Right; Right ];
  let total_poly = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let _ctx, rt = Workloads.Harness.run_dependence w in
       let poly = Ceres.Runtime.polymorphic_sites rt in
       total_poly := !total_poly + List.length poly;
       Ceres_util.Table.add_row tbl
         [ w.name;
           string_of_int
             (Ceres.Runtime.monomorphic_site_count rt + List.length poly);
           string_of_int (List.length poly) ];
       List.iter
         (fun (name, line, tags) ->
            Printf.printf "  %s: %s (line %d) stores %s\n" w.name name line
              (String.concat "/" tags))
         poly)
    Workloads.Registry.all;
  Ceres_util.Table.print tbl;
  Printf.printf
    "polymorphic write sites across all hot loops: %d (paper: none found)\n"
    !total_poly

(* Call-site census vs Richards et al. [31] (cited in Sec. 2.4/5.2):
   "81% of the call sites ... monomorphic; over 90% of functions
   non-variadic". *)
let callsites () =
  header "Call-site census (context of Sec 2.4/5.2)";
  let tbl =
    Ceres_util.Table.create
      [ "workload"; "sites"; "monomorphic"; "non-variadic"; "calls" ]
  in
  Ceres_util.Table.set_align tbl [ Left; Right; Right; Right; Right ];
  let tot = ref 0 and mono = ref 0 and nonvar = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let ctx = Workloads.Harness.prepare w in
       let monitor = Ceres.Callsites.attach ctx.st in
       Interp.Eval.run_program ctx.st ctx.program;
       Workloads.Harness.drive ctx w;
       let c = Ceres.Callsites.census monitor in
       tot := !tot + c.sites_total;
       mono := !mono + c.monomorphic;
       nonvar := !nonvar + c.non_variadic;
       Ceres_util.Table.add_row tbl
         [ w.name;
           string_of_int c.sites_total;
           Printf.sprintf "%d (%.0f%%)" c.monomorphic
             (Ceres_util.Stats.pct c.monomorphic c.sites_total);
           Printf.sprintf "%d (%.0f%%)" c.non_variadic
             (Ceres_util.Stats.pct c.non_variadic c.sites_total);
           string_of_int c.calls_total ])
    Workloads.Registry.all;
  Ceres_util.Table.print tbl;
  Printf.printf
    "overall: %.0f%% monomorphic call sites, %.0f%% non-variadic\n\
     (Richards et al., real-world web: 81%% / >90%% - our corpus is the\n\
     emerging-app code the paper argues is even more static)\n"
    (Ceres_util.Stats.pct !mono !tot)
    (Ceres_util.Stats.pct !nonvar !tot)

(* Sec. 2.3 / 5.5 style census: loops vs functional operators. *)
let style () =
  header "Programming style census (Sec 5.5)";
  let tbl =
    Ceres_util.Table.create
      [ "workload"; "syntactic loops"; "HOF call sites"; "operators used" ]
  in
  Ceres_util.Table.set_align tbl [ Left; Right; Right; Left ];
  let loops_total = ref 0 and ops_total = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
       let c = Ceres.Style.census (Jsir.Parser.parse_program w.source) in
       loops_total := !loops_total + c.loops;
       ops_total := !ops_total + c.operator_calls;
       Ceres_util.Table.add_row tbl
         [ w.name;
           string_of_int c.loops;
           string_of_int c.operator_calls;
           String.concat ", "
             (List.map (fun (n, k) -> Printf.sprintf "%s x%d" n k)
                c.per_operator) ])
    Workloads.Registry.all;
  Ceres_util.Table.print tbl;
  Printf.printf
    "totals: %d syntactic loops vs %d operator call sites - the paper's\n\
     observation that compute-intensive code is written imperatively\n\
     even though surveyed developers prefer the operators (74%%).\n"
    !loops_total !ops_total

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out.                  *)

(* Sampler period: the Gecko-model anomaly depends on the sampling
   window; sweeping it shows the active-time estimate converging to
   busy time as the window shrinks below the call-free stretches. *)
let ablation_sampler () =
  header "Ablation: sampling period vs active-time estimate";
  let tbl =
    Ceres_util.Table.create
      [ "workload"; "busy (s)"; "0.2 ms"; "0.5 ms"; "1 ms"; "2 ms"; "5 ms" ]
  in
  List.iter
    (fun name ->
       let w = Option.get (Workloads.Registry.find name) in
       let actives =
         List.map
           (fun period ->
              let ctx = Workloads.Harness.prepare w in
              ignore (Ceres.Install.lightweight ctx.st);
              let sampler =
                Profiler.Sampler.attach ~period_ms:period ctx.st
              in
              Interp.Eval.run_program ctx.st
                (Ceres.Instrument.program Ceres.Instrument.Lightweight
                   ctx.program);
              Workloads.Harness.drive ctx w;
              ( Profiler.Sampler.active_ms sampler /. 1000.,
                Ceres_util.Vclock.to_ms ctx.st.Interp.Value.clock
                  (Ceres_util.Vclock.busy ctx.st.Interp.Value.clock)
                /. 1000. ))
           [ 0.2; 0.5; 1.0; 2.0; 5.0 ]
       in
       let busy = snd (List.hd actives) in
       Ceres_util.Table.add_row tbl
         (name :: Printf.sprintf "%.2f" busy
          :: List.map (fun (a, _) -> Printf.sprintf "%.2f" a) actives))
    [ "Raytracing"; "CamanJS"; "Ace" ];
  Ceres_util.Table.print tbl;
  print_string
    "reading: with call-free inner loops (Raytracing, CamanJS) the
     active estimate falls as the window grows past the call-free
     stretches - the mechanism behind the paper's Table 2 anomaly.
"

(* Dependence-mode focus: the paper's tool "allows the programmer to
   focus on a specific loop" to control the very high overhead. *)
let ablation_focus () =
  header "Ablation: dependence analysis, focused vs full";
  let w = Option.get (Workloads.Registry.find "fluidSim") in
  let run ?focus () =
    let t0 = Unix.gettimeofday () in
    let _ctx, rt = Workloads.Harness.run_dependence ?focus w in
    ( Unix.gettimeofday () -. t0,
      Ceres.Runtime.accesses_checked rt,
      List.length (Ceres.Runtime.warnings rt) )
  in
  let full_s, full_acc, full_w = run () in
  let foc_s, foc_acc, foc_w = run ~focus:[ 2 ] () in
  Printf.printf
    "  full analysis:    %.2fs wall, %d accesses checked, %d warning families
"
    full_s full_acc full_w;
  Printf.printf
    "  focused (loop 2): %.2fs wall, %d accesses checked, %d warning families
"
    foc_s foc_acc foc_w;
  Printf.printf "  access-check reduction: %.1fx
"
    (float_of_int full_acc /. float_of_int (max 1 foc_acc))

(* Pool chunking: dynamic chunk size vs fixed extremes on one kernel. *)
let ablation_chunk () =
  header "Ablation: pool chunk size (normal-map kernel)";
  let k = Option.get (Workloads.Kernels.find "normal-map") in
  let size = k.default_size / 2 in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    1000. *. (Unix.gettimeofday () -. t0)
  in
  let seq_ms = time (fun () -> k.run size) in
  Printf.printf "  sequential:         %7.1f ms
" seq_ms;
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      (* exercise the chunked loop through parallel_for directly *)
      let n = size * size in
      let sink = Array.make n 0. in
      List.iter
        (fun chunk ->
           let ms =
             time (fun () ->
                 Js_parallel.Pool.parallel_for p ~lo:0 ~hi:n ~chunk (fun i ->
                     sink.(i) <- sqrt (float_of_int (i land 1023))))
           in
           Printf.printf "  chunk %-8d      %7.1f ms
" chunk ms)
        [ 1; 64; 4096; n ]);
  print_string
    "reading: tiny chunks drown in the atomic counter, one big chunk
     serialises; the default (range / 8 participants) sits between.
"

(* ------------------------------------------------------------------ *)

let nbody () =
  header "Sec 3.3 walkthrough: the N-body example";
  print_string (Examples_support.Nbody.report ())

(* ------------------------------------------------------------------ *)
(* `--json`: the machine-readable perf baseline behind
   BENCH_baseline.json and `make bench-smoke`. Runs each requested
   workload (default: all) cold through the four analysis passes plus
   the two execution passes (sequential and pool-parallel sessions) on
   a fresh interpreter state, fixed scale, and prints per-pass wall
   milliseconds plus GC minor/major words and the per-nest
   parallel-execution speedup rows. With
   `--check-against FILE` the run additionally compares itself against
   a committed baseline and exits 1 on a wall-time regression. *)

let bench_passes : (string * (Workloads.Workload.t -> unit)) list =
  [ ("profile", fun w -> ignore (Workloads.Harness.run_lightweight w));
    ("loops", fun w -> ignore (Workloads.Harness.run_loop_profile w));
    ("deps", fun w -> ignore (Workloads.Harness.run_dependence w));
    ("pipeline", fun w -> ignore (Workloads.Harness.inspect w)) ]

(* Allocation via [Gc.quick_stat], which sums every domain: the
   pool-parallel pass allocates mostly on its worker domains, which
   [Gc.counters] (calling domain only) would miss. *)
let measure f =
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = 1000. *. (Unix.gettimeofday () -. t0) in
  let s1 = Gc.quick_stat () in
  (wall, s1.minor_words -. s0.minor_words, s1.major_words -. s0.major_words)

let json_bench names : Ceres_util.Json.t =
  let open Ceres_util.Json in
  let ws =
    match names with
    | [] -> Workloads.Registry.all
    | names ->
      List.map
        (fun n ->
           match Workloads.Registry.find n with
           | Some w -> w
           | None ->
             Printf.eprintf "bench --json: unknown workload %S\n" n;
             exit 1)
        names
  in
  (* one pool for the whole run: domain spawn and join stay outside
     every [measure] *)
  Js_parallel.Pool.with_pool ~domains:2 @@ fun pool ->
  Obj
    [ ("schema", Str "jsceres-bench-1");
      ("jobs", Int 1);
      ( "workloads",
        List
          (List.map
             (fun (w : Workloads.Workload.t) ->
                let exec, measure_pe, par_pe = exec_passes pool in
                let passes_json =
                  List
                    (List.map
                       (fun (pass, run) ->
                          let wall, minor, major =
                            measure (fun () -> run w)
                          in
                          Obj
                            [ ("pass", Str pass);
                              ("wall_ms", Fixed (3, wall));
                              ("minor_words", Fixed (0, minor));
                              ("major_words", Fixed (0, major)) ])
                       (bench_passes @ exec))
                in
                (* [passes_json] is forced above, so both Par_exec
                   instances exist by the time the nest rows render. *)
                let parexec_json =
                  match (!measure_pe, !par_pe) with
                  | Some m, Some p ->
                    List.map
                      (fun (id, label, (ps : PE.nest_stats), seq_ms, speedup)
                        ->
                          Obj
                            [ ("id", Int id);
                              ("label", Str label);
                              ("instances", Int ps.instances);
                              ("chunks", Int ps.chunks);
                              ("fallbacks", Int ps.fallbacks);
                              ("refused", Int ps.refused);
                              ("seq_ms", Fixed (3, seq_ms));
                              ("par_ms", Fixed (3, ps.par_ms));
                              ("speedup", Fixed (2, speedup)) ])
                      (nest_speedup_rows m p)
                  | _ -> []
                in
                Obj
                  [ ("name", Str w.name);
                    ("passes", passes_json);
                    ("parexec", List parexec_json) ])
             ws) ) ]

(* Wall time of one workload across all passes in a bench document. *)
let bench_workload_wall doc name =
  let open Ceres_util.Json in
  match member "workloads" doc with
  | Some (List ws) ->
    List.find_map
      (fun w ->
         match member "name" w with
         | Some (Str n) when String.equal n name ->
           (match member "passes" w with
            | Some (List ps) ->
              Some
                (List.fold_left
                   (fun acc p ->
                      match
                        Option.bind (member "wall_ms" p) float_opt
                      with
                      | Some ms -> acc +. ms
                      | None -> acc)
                   0. ps)
            | _ -> None)
         | _ -> None)
      ws
  | _ -> None

(* Regression gate for `make bench-smoke`: a workload regresses when
   its total pass wall time exceeds the committed baseline by more
   than 25% *and* by more than 25 ms (the absolute floor keeps timer
   noise on sub-100ms passes from tripping the relative gate). *)
let json_check ~baseline_file (doc : Ceres_util.Json.t) =
  let baseline =
    let text =
      try
        let ic = open_in_bin baseline_file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      with Sys_error m ->
        Printf.eprintf "bench --json: cannot read %s: %s\n" baseline_file m;
        exit 1
    in
    match Ceres_util.Json.of_string text with
    | Ok doc -> doc
    | Error m ->
      Printf.eprintf "bench --json: %s does not parse: %s\n" baseline_file m;
      exit 1
  in
  let failed = ref false in
  (match doc with
   | Ceres_util.Json.Obj _ ->
     (match Ceres_util.Json.member "workloads" doc with
      | Some (Ceres_util.Json.List ws) ->
        List.iter
          (fun w ->
             match Ceres_util.Json.member "name" w with
             | Some (Ceres_util.Json.Str name) ->
               (match
                  ( bench_workload_wall doc name,
                    bench_workload_wall baseline name )
                with
                | Some cur, Some base ->
                  if cur > (base *. 1.25) +. 0.0 && cur -. base > 25. then begin
                    Printf.eprintf
                      "bench --json: %s regressed: %.1f ms vs baseline \
                       %.1f ms (>25%%)\n"
                      name cur base;
                    failed := true
                  end
                  else
                    Printf.eprintf "bench --json: %s ok: %.1f ms vs %.1f ms\n"
                      name cur base
                | _, None ->
                  Printf.eprintf
                    "bench --json: %s not in baseline; skipping gate\n" name
                | None, _ -> ())
             | _ -> ())
          ws
      | _ -> ())
   | _ -> ());
  if !failed then exit 1

let json_main rest =
  let check, names =
    let rec go check acc = function
      | [] -> (check, List.rev acc)
      | "--check-against" :: file :: rest -> go (Some file) acc rest
      | [ "--check-against" ] ->
        Printf.eprintf "--check-against expects a file\n";
        exit 1
      | a :: rest -> go check (a :: acc) rest
    in
    go None [] rest
  in
  let doc = json_bench names in
  let rendered = Ceres_util.Json.to_string_pretty doc in
  (* self-check: the document we print must re-parse *)
  (match Ceres_util.Json.of_string rendered with
   | Ok _ -> ()
   | Error m ->
     Printf.eprintf "bench --json: emitted JSON does not parse: %s\n" m;
     exit 1);
  print_string rendered;
  (match check with
   | Some file -> json_check ~baseline_file:file doc
   | None -> ())

(* Pull `--jobs N` (or `--jobs=N`) out of argv; everything else is a
   section name. *)
let parse_jobs args =
  let rec go jobs acc = function
    | [] -> (jobs, List.rev acc)
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some j when j >= 1 -> go j acc rest
       | _ ->
         Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
         exit 1)
    | [ "--jobs" ] ->
      Printf.eprintf "--jobs expects a positive integer\n";
      exit 1
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
      (match int_of_string_opt (String.sub a 7 (String.length a - 7)) with
       | Some j when j >= 1 -> go j acc rest
       | _ ->
         Printf.eprintf "bad --jobs value in %S\n" a;
         exit 1)
    | a :: rest -> go jobs (a :: acc) rest
  in
  go 1 [] args

let bench_main argv =
  let jobs, args = parse_jobs argv in
  if Js_parallel.Fault.enable_from_env () then
    Printf.eprintf "bench: chaos injection enabled (%s)\n%!"
      Js_parallel.Fault.env_var;
  service := Some (Service.create ~jobs ());
  let sections =
    [ ("table1", table1); ("figure1", figure1); ("figure2", figure2);
      ("figure3", figure3); ("figure4", figure4); ("table2", table2);
      ("table3", table3); ("crossval", crossval);
      ("amdahl", amdahl); ("speedup", speedup);
      ("parexec", parexec);
      ("advise", advise);
      ("overhead", overhead);
      ("polymorphism", polymorphism);
      ("callsites", callsites);
      ("style", style);
      ("ablation-sampler", ablation_sampler);
      ("ablation-focus", ablation_focus);
      ("ablation-chunk", ablation_chunk);
      ("nbody", nbody) ]
  in
  let known = List.map fst sections in
  List.iter
    (fun a ->
       if not (List.mem a known) then begin
         Printf.eprintf "unknown section %s; known sections: %s\n" a
           (String.concat " " known);
         exit 1
       end)
    args;
  List.iter
    (fun (name, f) -> if section_requested args name then f ())
    sections;
  match !service with
  | None -> ()
  | Some s ->
    (* Telemetry goes to stderr so stdout stays byte-identical to the
       sequential run. *)
    (match Service.pool_stats s with
     | Some st ->
       Printf.eprintf "analysis pool telemetry: %s\n"
         (Js_parallel.Telemetry.to_json st)
     | None -> ());
    Service.shutdown s

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "--json" :: rest -> json_main rest
  | argv -> bench_main argv
