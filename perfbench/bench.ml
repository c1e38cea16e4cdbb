(* js-ceres cost-ledger benchmark.

     bench.exe --workload exec|analysis|serve --seed N --seconds S
               --trace 0|1 [--commit ID]

   Run from the root of a built checkout (perfbench/run.py builds it
   first). One run sets up its workload several times (the median is
   [setup_s]), then measures rounds of the workload for [--seconds]
   and checks every output. The last stdout line is the result:

     {"correct":..,"attempted":..,"failed":..,"metrics":{..}}

   With [--trace 0] the metrics are the end-to-end ones of
   perfbench/README.md, with every time scaled to a reference host
   speed ({!Reference}); with [--trace 1] untraced rounds alternate with
   traced ones (spans from {!Ledger}) and the metrics are the per-layer
   ones, per traced round. The line before the result is a detail
   document: host block, sample counts, checks. *)

module J = Ceres_util.Json
module PE = Js_parallel.Par_exec

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload exec|analysis|serve --seed N --seconds S \
     --trace 0|1 [--commit ID]";
  exit 2

let parse_args () =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = v = "1" } rest
    | "--commit" :: v :: rest -> go { a with commit = v } rest
    | [] -> a
    | _ -> usage ()
  in
  try
    go { workload = ""; seed = 1; seconds = 10.; trace = false; commit = "unknown" }
      (List.tl (Array.to_list Sys.argv))
  with Failure _ -> usage ()

let out_dir = ".perfbench_out"

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* 0 on an empty sample set, such as a short serve stream's misses. *)
let quantile q = function
  | [] -> 0.
  | xs -> Ceres_util.Stats.percentile (Array.of_list xs) (100. *. q)

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  ((Unix.gettimeofday () -. t0) *. 1000., r)

(* ------------------------------------------------------------------ *)
(* The run's ledger of results                                         *)

let attempted = ref 0
let failed = ref 0
let checks : (string * bool) list ref = ref []
let detail : (string * J.t) list ref = ref []
let extras : (string, float) Hashtbl.t = Hashtbl.create 32

let check name ok =
  checks := (name, ok) :: !checks;
  if not ok then prerr_endline ("perfbench: check failed: " ^ name)

(* One attempted operation, failed unless [ok]. *)
let op ok =
  incr attempted;
  if not ok then incr failed

let note k v = detail := (k, v) :: !detail
let extra k v = Hashtbl.replace extras k v
let get_extra k = Option.value ~default:0. (Hashtbl.find_opt extras k)

(* Set up five times; all but the last are torn down. Returns the
   median scaled set-up time in seconds and the last set-up. *)
let setup_median ~teardown f =
  let n = 5 in
  let rec go i acc =
    let ms, v = Reference.time f in
    if i = n then (median (ms :: acc) /. 1000., v)
    else (
      teardown v;
      go (i + 1) (ms :: acc))
  in
  go 1 []

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Untraced rounds until the deadline (at least one). With tracing,
   traced rounds alternate with them, starting untraced, and at least
   one of each runs. Returns (untraced, traced) round wall times, less
   the time spent on reference slices. *)
let rounds ~args ~untraced ~traced =
  let deadline = Unix.gettimeofday () +. args.seconds in
  let timed f =
    let s0 = !Reference.spent_ms in
    let ms, () = time f in
    ms -. (!Reference.spent_ms -. s0)
  in
  let rec go n us ts =
    let want_traced = args.trace && n mod 2 = 1 in
    let us, ts =
      if want_traced then (us, timed traced :: ts)
      else (timed untraced :: us, ts)
    in
    let need_more = us = [] || (args.trace && ts = []) in
    if need_more || Unix.gettimeofday () < deadline then go (n + 1) us ts
    else begin
      let us = List.rev us in
      note "round_ms" (J.List (List.map (fun x -> J.Fixed (1, x)) us));
      note "round_ms_median" (J.Fixed (1, median us));
      (us, List.rev ts)
    end
  in
  go 0 [] []

let find_workload name =
  match Workloads.Registry.find name with
  | Some w -> w
  | None -> failwith ("unknown app " ^ name)

(* Scaled times of each job over the rounds. A job is one app's session
   in one mode (exec) or one (pass, app) pair (analysis). *)
let job_ms : (string, float list) Hashtbl.t = Hashtbl.create 64

let record job ms =
  Hashtbl.replace job_ms job (ms :: Option.value ~default:[] (Hashtbl.find_opt job_ms job))

(* Latency metrics of exec and analysis, from each job's median over
   the rounds, so that a slow spell of the host moves a job's median
   only when it covers most of the job's rounds: p50 and p90 over the
   jobs, and jobs per second of one round at the median times. *)
let job_metrics () =
  let medians = Hashtbl.fold (fun _ ms acc -> median ms :: acc) job_ms [] in
  note "samples" (J.Int (Hashtbl.fold (fun _ ms n -> n + List.length ms) job_ms 0));
  note "jobs" (J.Int (List.length medians));
  note "tail_percentile" (J.Float 90.);
  [ ("p50_ms", median medians, "ms");
    ("tail_ms", quantile 0.9 medians, "ms");
    ("ops_per_s", float_of_int (List.length medians) /. (sum medians /. 1000.), "1/s") ]

let peak_rss_self () =
  note "peak_heap_mb"
    (J.Fixed (2, float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
                 /. 1048576.));
  ("peak_rss_mb", Host.peak_rss_mb ~pid:(Unix.getpid ()), "MB")

(* ------------------------------------------------------------------ *)
(* exec: plain sessions, sequential and under Par_exec                 *)

let exec_apps =
  [ "HAAR.js"; "CamanJS"; "fluidSim"; "MyScript"; "Raytracing"; "Normal Mapping" ]

let run_exec args =
  let apps = List.map find_workload exec_apps in
  (* Set-up: spawn the 2-domain pool and warm it up with one untimed
     sequential and parallel session per app. *)
  let setup_s, pool =
    setup_median ~teardown:Js_parallel.Pool.shutdown (fun () ->
        let pool = Js_parallel.Pool.create ~domains:2 () in
        List.iter
          (fun w ->
             ignore (Passes.entry_seq w);
             ignore (Passes.entry_par pool w))
          apps;
        pool)
  in
  let rng = Random.State.make [| args.seed |] in
  let seq_rounds = ref [] and par_rounds = ref [] in
  let consoles = Hashtbl.create 8 in
  let untraced () =
    let rs = ref 0. and rp = ref 0. in
    List.iter
      (fun (w : Workloads.Workload.t) ->
         let ts, seq = Reference.time (fun () -> Passes.entry_seq w) in
         let tp, par = Reference.time (fun () -> Passes.entry_par pool w) in
         (* one op per app: both sessions print what the first did *)
         if not (Hashtbl.mem consoles w.name) then Hashtbl.replace consoles w.name seq;
         let first = Hashtbl.find consoles w.name in
         op (String.equal seq first && String.equal par first);
         record (w.name ^ "/seq") ts;
         record (w.name ^ "/par") tp;
         rs := !rs +. ts;
         rp := !rp +. tp)
      (shuffle rng apps);
    seq_rounds := !rs :: !seq_rounds;
    par_rounds := !rp :: !par_rounds
  in
  let traced () =
    Ledger.start ();
    List.iter
      (fun (w : Workloads.Workload.t) ->
         let seq = Passes.composed_seq w in
         Js_parallel.Telemetry.Trace.start ();
         let started = Unix.gettimeofday () in
         let par = Passes.composed_par pool w in
         Js_parallel.Telemetry.Trace.stop ();
         Ledger.take_pool_trace ~started;
         let expected = Hashtbl.find consoles w.name in
         op (String.equal seq expected);
         op (String.equal par expected))
      (shuffle rng apps);
    Ledger.stop ();
    Ledger.keep_timeline := false
  in
  let untraced_rounds, traced_rounds = rounds ~args ~untraced ~traced in
  (* The per-nest sequential baseline, outside the traced rounds. *)
  if args.trace then
    extra "par.nest_seq_ms" (sum (List.map Passes.nest_baseline apps));
  Js_parallel.Pool.shutdown pool;
  extra "exec_seq_ms" (median !seq_rounds);
  extra "exec_par_ms" (median !par_rounds);
  (setup_s, job_metrics () @ [ peak_rss_self () ], untraced_rounds, traced_rounds)

(* ------------------------------------------------------------------ *)
(* analysis: the staged analysis of all 12 apps                        *)

let golden dir (w : Workloads.Workload.t) =
  let file =
    Printf.sprintf "test/golden/%s/%s.json" dir
      (String.map (fun c -> if c = ' ' then '_' else c) w.name)
  in
  In_channel.with_open_bin file In_channel.input_all

let run_analysis args =
  let apps = Workloads.Registry.all in
  (* Set-up: load the goldens and statically analyze every app. A
     profile pass per app then warms up the heap, untimed: a set-up that
     ran it was long enough for the host's drift to swing it. *)
  let setup_s, (expected, proven) =
    setup_median ~teardown:ignore (fun () ->
        let goldens = Hashtbl.create 32 in
        let proven =
          List.fold_left
            (fun acc (w : Workloads.Workload.t) ->
               Hashtbl.replace goldens (w.name, Service.Request.Analyze) (golden "analyze" w);
               Hashtbl.replace goldens (w.name, Service.Request.Advise) (golden "advise" w);
               let report = Analysis.Driver.analyze (Jsir.Parser.parse_program w.source) in
               acc + List.length (Analysis.Driver.proven report))
            0 apps
        in
        (goldens, proven))
  in
  List.iter (fun w -> ignore (Passes.entry Service.Request.Profile w)) apps;
  check (Printf.sprintf "proven loops %d >= 22" proven) (proven >= 22);
  note "proven_loops" (J.Int proven);
  let rng = Random.State.make [| args.seed |] in
  let pass_rounds = Hashtbl.create 8 in
  let job (w : Workloads.Workload.t) pass out =
    match Hashtbl.find_opt expected (w.name, pass) with
    | Some e -> op (String.equal out e)
    | None ->
      (* no golden: later rounds must repeat the first *)
      Hashtbl.replace expected (w.name, pass) out;
      op true
  in
  let untraced () =
    let per_pass = Hashtbl.create 8 in
    List.iter
      (fun (w : Workloads.Workload.t) ->
         List.iter
           (fun pass ->
              let ms, out = Reference.time (fun () -> Passes.entry pass w) in
              job w pass out;
              record (Service.Request.pass_name pass ^ "/" ^ w.name) ms;
              Hashtbl.replace per_pass pass
                (ms +. Option.value ~default:0. (Hashtbl.find_opt per_pass pass)))
           Passes.all_passes)
      (shuffle rng apps);
    Hashtbl.iter
      (fun pass ms ->
         Hashtbl.replace pass_rounds pass
           (ms :: Option.value ~default:[] (Hashtbl.find_opt pass_rounds pass)))
      per_pass
  in
  let traced () =
    Ledger.start ();
    List.iter
      (fun (w : Workloads.Workload.t) ->
         List.iter (fun pass -> job w pass (Passes.composed pass w)) Passes.all_passes)
      (shuffle rng apps);
    Ledger.stop ();
    Ledger.keep_timeline := false
  in
  let untraced_rounds, traced_rounds = rounds ~args ~untraced ~traced in
  Hashtbl.iter
    (fun pass ms -> extra (Service.Request.pass_name pass ^ "_ms") (median ms))
    pass_rounds;
  (setup_s, job_metrics () @ [ peak_rss_self () ], untraced_rounds, traced_rounds)

(* ------------------------------------------------------------------ *)
(* serve: closed loop against a jsceres serve --socket child           *)

(* Latency metrics of serve's correct replies, each scaled by the
   reference slices around its segment: p50 over all of them, and the
   median over the segments of each one's p95 and throughput, so that a
   scheduling stall of the host moves only its own segment. The tail is
   p95: over ten seeds, p99's IQR/median was 0.34 and p95's 0.19.
   [segs] holds each segment's wall seconds and scale. *)
let serve_metrics ~segs (ok : Serve_load.sample list) =
  let per_seg = Array.make (Array.length segs) [] in
  List.iter
    (fun (s : Serve_load.sample) ->
       per_seg.(s.seg) <- (s.ms *. snd segs.(s.seg)) :: per_seg.(s.seg))
    ok;
  let per_seg = Array.to_list per_seg in
  note "samples" (J.Int (List.length ok));
  note "segments" (J.Int (Array.length segs));
  note "tail_percentile" (J.Float 95.);
  [ ("p50_ms", median (List.concat per_seg), "ms");
    ("tail_ms", median (List.filter_map (function [] -> None | l -> Some (quantile 0.95 l)) per_seg), "ms");
    ( "ops_per_s",
      median
        (List.map2
           (fun l (wall, scale) -> float_of_int (List.length l) /. wall /. scale)
           per_seg (Array.to_list segs)),
      "1/s" ) ]

let server_exe = "_build/default/bin/jsceres.exe"
let traced_requests = 1500 (* per client, traced runs *)
let replay_requests = 300 (* in-process replay of the traced run *)

let run_serve args =
  let module S = Serve_load in
  if not (Sys.file_exists server_exe) then failwith (server_exe ^ " is not built");
  let oracle = S.oracle () in
  let socket = Filename.concat out_dir "serve.sock" in
  let setup_s, server = setup_median ~teardown:S.stop (fun () -> S.setup ~exe:server_exe ~socket) in
  Fun.protect ~finally:(fun () -> S.stop server) @@ fun () ->
  let c0 = S.counters server in
  check "warm-up misses" (c0.misses = Array.length S.warm_keys && c0.hits = 0);
  (* The load runs in segments of about a second, each between two
     reference slices. A traced run sends a fixed stream in one segment. *)
  let tallies = S.tallies 2 in
  let segs = ref [] in
  let segment stop =
    let scaled_ms, wall =
      Reference.time (fun () ->
          S.drive ~socket ~seed:args.seed ~tallies ~seg:(List.length !segs) ~stop
            ~expected:(S.expected oracle))
    in
    segs := (wall, scaled_ms /. (wall *. 1000.)) :: !segs
  in
  let deadline = Unix.gettimeofday () +. args.seconds in
  if args.trace then segment (fun _ n -> n >= traced_requests)
  else
    while Unix.gettimeofday () < deadline do
      let seg_end = Float.min deadline (Unix.gettimeofday () +. 1.) in
      segment (fun _ _ -> Unix.gettimeofday () > seg_end)
    done;
  let segs = Array.of_list (List.rev !segs) in
  let wall_s = Array.fold_left (fun a (w, _) -> a +. w) 0. segs in
  let tallies = Array.to_list tallies in
  let c1 = S.counters server in
  let samples = List.concat_map (fun (t : S.tally) -> t.samples) tallies in
  let ok = List.filter (fun (s : S.sample) -> s.outcome = S.Ok_body) samples in
  List.iter (fun (s : S.sample) -> op (s.outcome = S.Ok_body)) samples;
  let planned f = List.fold_left (fun a t -> a + f t) 0 tallies in
  let hits = c1.hits - c0.hits and misses = c1.misses - c0.misses in
  check "cache hits match the stream"
    (hits = planned (fun (t : S.tally) -> t.sent_hits));
  check "cache misses match the stream"
    (misses = planned (fun (t : S.tally) -> t.sent_misses));
  let lat pred = List.filter_map (fun (s : S.sample) -> if pred s then Some s.ms else None) ok in
  let all_ms = lat (fun _ -> true) in
  note "latency_percentiles_ms"
    (J.Obj
       (List.map
          (fun q -> (Printf.sprintf "p%g" (100. *. q), J.Fixed (4, quantile q all_ms)))
          [ 0.5; 0.9; 0.95; 0.99; 0.999 ]));
  let rps = float_of_int (List.length ok) /. wall_s in
  extra "serve_p50_ms" (median all_ms);
  extra "serve_p99_ms" (quantile 0.99 all_ms);
  extra "serve_rps" rps;
  extra "serve.hit_p50_ms" (median (lat (fun s -> not s.miss)));
  extra "serve.miss_p50_ms" (median (lat (fun s -> s.miss)));
  extra "service.hits" (float_of_int hits);
  extra "service.misses" (float_of_int misses);
  extra "service.evictions" (float_of_int (c1.evictions - c0.evictions));
  extra "service.hit_ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  extra "server.admitted" (float_of_int (c1.admitted - c0.admitted));
  extra "server.shed" (float_of_int (c1.shed - c0.shed));
  extra "server.timed_out" (float_of_int (c1.timed_out - c0.timed_out));
  let peak = S.peak_rss_mb server in
  (* Traced: replay the head of client 0's stream in process, through
     Service.run (untraced rounds) and composed with spans (traced
     rounds), for the rest of the run. *)
  let untraced_rounds, traced_rounds =
    if not args.trace then ([ wall_s *. 1000. ], [])
    else begin
      let reqs = List.init replay_requests (fun i -> S.plan ~seed:args.seed ~client:0 i) in
      let plain = Hashtbl.create 64 in
      (* Misses go to a fresh service each time, so that every round
         computes them, as the composed rounds do. *)
      let untraced () =
        List.iteri
          (fun i p ->
             let svc = match p with S.Hit _ -> oracle.svc | S.Miss _ -> Service.create () in
             Hashtbl.replace plain i (S.response_line (Service.run svc (S.request_of p))))
          reqs
      in
      let traced () =
        Ledger.start ();
        List.iteri
          (fun i p ->
             let line =
               match p with
               | S.Hit k ->
                 S.response_line
                   (Ledger.span "service.hit" (fun () ->
                        Service.run oracle.svc S.warm_keys.(k)))
               | S.Miss req ->
                 Ledger.span "service.miss" (fun () ->
                     let w = find_workload req.workload in
                     let program =
                       Ledger.span "jsir.parse" (fun () ->
                           Jsir.Parser.parse_program w.source)
                     in
                     S.response_line
                       (Service.Response.ok req
                          (Service.Response.Analyze (Passes.static_analysis w program))))
             in
             op (String.equal line (Hashtbl.find plain i)))
          reqs;
        Ledger.stop ();
        Ledger.keep_timeline := false
      in
      rounds ~args:{ args with seconds = Float.max 0. (deadline -. Unix.gettimeofday ()) }
        ~untraced ~traced
    end
  in
  note "raw_rps" (J.Fixed (1, rps));
  (setup_s, serve_metrics ~segs ok @ [ ("peak_rss_mb", peak, "MB") ], untraced_rounds, traced_rounds)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (traced runs), per traced round                   *)

let exec_spans = [ "interp.exec"; "ceres.profile_exec"; "ceres.loops_exec"; "ceres.deps_exec" ]
let layers = [ "jsir"; "interp"; "ceres"; "analysis"; "advisor"; "par"; "gc"; "service" ]

let per_layer ~traced_rounds ~overhead_ms ~overhead_share =
  let n = float_of_int (max 1 traced_rounds) in
  let per_round v = v /. n in
  let ms name = per_round (Ledger.ms name) in
  let c name = per_round (Ledger.counter name) in
  let acc = Ledger.span_acc in
  let gc = Ledger.gc () in
  let par = acc "exec.par" in
  let instances = c "par.instances" and fallbacks = c "par.fallbacks" in
  let hits = get_extra "service.hits" in
  [ ("jsir.parse_ms", ms "jsir.parse", "ms");
    ("jsir.resolve_ms", ms "jsir.resolve", "ms");
    ("interp.setup_ms", ms "interp.setup", "ms");
    ("interp.exec_ms", per_round (Ledger.sum_over exec_spans (fun a -> a.ms)), "ms");
    ("interp.minor_words", per_round (Ledger.sum_over exec_spans (fun a -> a.minor_words)), "words");
    ("interp.major_words", per_round (Ledger.sum_over exec_spans (fun a -> a.major_words)), "words");
    ("ceres.instrument_ms", ms "ceres.instrument", "ms");
    ("ceres.profile_exec_ms", ms "ceres.profile_exec", "ms");
    ("ceres.loops_exec_ms", ms "ceres.loops_exec", "ms");
    ("ceres.deps_exec_ms", ms "ceres.deps_exec", "ms");
    ("ceres.deps_minor_words", per_round (acc "ceres.deps_exec").minor_words, "words");
    ("ceres.accesses_checked", c "ceres.accesses_checked", "count");
    ("analysis.static_ms", ms "analysis.static", "ms");
    ("analysis.proven_loops", float_of_int (Passes.proven_loops ()), "count");
    ("par.instances", instances, "count");
    ("par.chunks", c "par.chunks", "count");
    ("par.fallbacks", fallbacks, "count");
    ( "par.fallback_ratio",
      (if instances +. fallbacks > 0. then fallbacks /. (instances +. fallbacks) else 0.),
      "ratio" );
    ("par.nests_run", c "par.nests_run", "count");
    ("par.nest_seq_ms", get_extra "par.nest_seq_ms", "ms");
    ("par.nest_par_ms", c "par.nest_par_ms", "ms");
    ("par.fork_ms", c "par.fork_ms", "ms");
    ("par.merge_ms", c "par.merge_ms", "ms");
    ("pool.tasks", c "pool.tasks", "count");
    ("pool.steals", c "pool.steals", "count");
    ("pool.idle_spins", c "pool.idle_spins", "count");
    ("pool.join_ms", c "pool.join_ms", "ms");
    ("gc.minor_count", per_round (float_of_int gc.minor_collections), "count");
    ("gc.minor_ms", per_round gc.gc_minor_ms, "ms");
    ("gc.major_ms", per_round gc.gc_major_ms, "ms");
    ("gc.seq_minor_count", per_round (float_of_int (gc.minor_collections - par.minor_collections)), "count");
    ("gc.seq_minor_ms", per_round (gc.gc_minor_ms -. par.gc_minor_ms), "ms");
    ("gc.seq_major_ms", per_round (gc.gc_major_ms -. par.gc_major_ms), "ms");
    ("gc.par_minor_count", per_round (float_of_int par.minor_collections), "count");
    ("gc.par_minor_ms", per_round par.gc_minor_ms, "ms");
    ("gc.par_major_ms", per_round par.gc_major_ms, "ms");
    ( "service.hit_ms",
      (match Ledger.calls "service.hit" with
       | 0 -> 0.
       | k -> Ledger.ms "service.hit" /. float_of_int k),
      "ms" );
    ("serve.hit_p50_ms", get_extra "serve.hit_p50_ms", "ms");
    ("serve.miss_p50_ms", get_extra "serve.miss_p50_ms", "ms");
    ("service.hits", hits, "count");
    ("service.misses", get_extra "service.misses", "count");
    ("service.evictions", get_extra "service.evictions", "count");
    ("service.hit_ratio", get_extra "service.hit_ratio", "ratio");
    ("server.admitted", get_extra "server.admitted", "count");
    ("server.shed", get_extra "server.shed", "count");
    ("server.timed_out", get_extra "server.timed_out", "count") ]
  @ List.map (fun l -> ("self." ^ l ^ "_ms", per_round (Ledger.self_ms l), "ms")) layers
  @ [ ("trace.overhead_ms", overhead_ms, "ms");
      ("trace.overhead_share", overhead_share, "ratio");
      ("trace.lost_events", float_of_int (Ledger.lost ()), "count") ]
  @ List.map
      (fun k -> (k, get_extra k, if k = "serve_rps" then "1/s" else "ms"))
      [ "exec_seq_ms"; "exec_par_ms"; "profile_ms"; "deps_ms"; "pipeline_ms";
        "analyze_ms"; "advise_ms"; "serve_p50_ms"; "serve_p99_ms"; "serve_rps" ]

(* ------------------------------------------------------------------ *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
          metrics))

let () =
  let args = parse_args () in
  let run =
    match args.workload with
    | "exec" -> run_exec
    | "analysis" -> run_analysis
    | "serve" -> run_serve
    | _ -> usage ()
  in
  if not (Sys.file_exists "dune-project" && Sys.file_exists "test/golden") then begin
    prerr_endline "perfbench: run from the root of a js-ceres checkout";
    exit 2
  end;
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let setup_s, e2e, untraced, traced = run args in
  note "reference_slices" (J.Int (List.length !Reference.slices));
  note "reference_slice_ms_median" (J.Fixed (3, median !Reference.slices));
  let metrics =
    if not args.trace then ("setup_s", setup_s, "s") :: e2e
    else begin
      let u = median untraced and t = median traced in
      let file = Filename.concat out_dir (Printf.sprintf "timeline-%s.jsonl" args.workload) in
      note "timeline" (J.Str file);
      note "timeline_events" (J.Int (Ledger.write_timeline file));
      per_layer ~traced_rounds:(List.length traced) ~overhead_ms:(t -. u)
        ~overhead_share:(if u > 0. then (t -. u) /. u else 0.)
      @ [ ( "error_rate",
            float_of_int !failed /. float_of_int (max 1 !attempted),
            "ratio" ) ]
    end
  in
  let correct = !failed = 0 && List.for_all snd !checks && !attempted > 0 in
  note "checks"
    (J.Obj (List.rev_map (fun (k, ok) -> (k, J.Bool ok)) !checks));
  note "host" (Host.block ~commit:args.commit);
  print_endline
    (J.to_string
       (J.Obj
          (("workload", J.Str args.workload) :: ("seed", J.Int args.seed)
           :: List.rev !detail)));
  print_endline (result_line ~correct metrics)
