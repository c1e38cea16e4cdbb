(* Causal what-if advisor over the vclock profile.

   TASKPROF's observation carries over directly: because the abstract
   machine's clock is deterministic, a single loop-profile run yields
   exact per-nest busy fractions, and Amdahl's law turns each fraction
   into the whole-program speedup parallelizing that nest alone would
   buy at N cores. The static analyzer supplies the other half of the
   answer — whether the nest may be parallelized today (proven), after
   a mechanical rewrite (the Advice hints), or not as written (the
   why-not fact chain). [measure] closes the loop against Par_exec's
   measured speedups on the nests it already executes. *)

module PE = Js_parallel.Par_exec

type predicted = { cores : int; speedup : float }

type measured_row = {
  m_id : int;
  m_label : string;
  m_fraction : float;
  m_jobs : int;
  m_seq_ms : float;
  m_par_ms : float;
  m_nest_speedup : float;
  m_program_speedup : float;
  m_predicted : float;
  m_karp_flatt : float;
  m_within_band : bool;
  m_instances : int;
  m_refused : int;
  m_fallbacks : int;
  m_poisons : (string * int) list;
}

type nest = {
  rank : int;
  id : int;
  label : string;
  in_function : string option;
  verdict : string;
  proven : bool;
  fraction : float;
  pct_busy : float;
  instances : int;
  trips_mean : float;
  bound : float;
  predicted : predicted list;
  blockers : Analysis.Verdict.fact list;
  hints : string list;
}

type report = {
  workload : string;
  cores : int list;
  busy_ms : float;
  loop_ms : float;
  nests : nest list;
  mutable measured : measured_row list;
  fractions : float array;
}

let default_cores = [ 2; 4; 8; 16 ]

let sanitize_cores = function
  | None -> default_cores
  | Some cs -> (
      match List.sort_uniq compare (List.filter (fun c -> c >= 1) cs) with
      | [] -> default_cores
      | cs -> cs)

(* The tolerance band the advisor grades itself against (documented in
   DESIGN.md §14): a measured program-equivalent speedup within 25% of
   the prediction is on-model, anything further off is flagged. *)
let within_band ~predicted ~measured =
  Float.abs (predicted -. measured) <= 0.25 *. predicted

(* ------------------------------------------------------------------ *)

(* Whole-program speedup when the region covering [fraction] of busy
   time runs [s]x faster — Amdahl generalized from a core count to an
   arbitrary region speedup. *)
let program_speedup ~fraction ~region_speedup:s =
  if s <= 0. then 0. else 1. /. (1. -. fraction +. (fraction /. s))

(* Hints: the dynamic Advice transformations (ranked, blockers first)
   plus any statically-detected privatizable temporaries the dynamic
   run did not already name. [Already_parallel] is a non-hint — the
   verdict column says it better. *)
let hints_for advice ~notes =
  let advice =
    List.filter (fun a -> a <> Ceres.Advice.Already_parallel) advice
  in
  let static_privatizable =
    List.filter_map
      (fun note ->
         match String.split_on_char ':' note with
         | [ "privatizable"; name ]
           when not (List.mem (Ceres.Advice.Privatize name) advice) ->
           Some
             (Printf.sprintf
                "privatize variable '%s' (statically detected \
                 loop-local temporary)"
                name)
         | _ -> None)
      notes
  in
  List.map Ceres.Advice.recommendation_to_string advice @ static_privatizable

(* The plan follows the study's hottest-first order: a nest's fraction
   rises with its time, so that order is also descending fraction. *)
let analyze ?cores (w : Workloads.Workload.t) : report =
  let cores = sanitize_cores cores in
  let st = Workloads.Harness.study w in
  let clock = st.ctx.st.Interp.Value.clock in
  let busy_ms =
    Ceres_util.Vclock.to_ms clock (Ceres_util.Vclock.busy clock)
  in
  let fraction_of (s : Ceres.Loop_profile.loop_stats) =
    if busy_ms <= 0. then 0.
    else Float.min 1. (Ceres_util.Welford.total s.time /. busy_ms)
  in
  let fractions =
    Array.map
      (fun (info : Jsir.Loops.info) ->
         fraction_of (Ceres.Loop_profile.stats st.profile info.id))
      st.ctx.infos
  in
  let nests =
    List.mapi
      (fun i (n : Workloads.Harness.hot_nest) ->
         let fraction = fraction_of n.stats in
         let proven, blockers, notes =
           match n.static_row with
           | Some r ->
             ( Analysis.Verdict.is_proven r.verdict,
               Analysis.Verdict.facts r.verdict,
               r.notes )
           | None -> (false, [], [])
         in
         { rank = i + 1;
           id = n.info.id;
           label = Jsir.Loops.label n.info;
           in_function = n.info.in_function;
           verdict = n.verdict;
           proven;
           fraction;
           pct_busy = 100. *. fraction;
           instances = Ceres_util.Welford.count n.stats.time;
           trips_mean = Ceres_util.Welford.mean n.stats.trips;
           bound = Js_parallel.Amdahl.asymptote ~parallel_fraction:fraction;
           predicted =
             List.map
               (fun c ->
                  { cores = c;
                    speedup =
                      Js_parallel.Amdahl.speedup ~parallel_fraction:fraction
                        ~workers:c })
               cores;
           blockers;
           hints = hints_for n.advice ~notes })
      st.hot
  in
  { workload = w.name;
    cores;
    busy_ms;
    loop_ms = Ceres.Loop_profile.total_root_time_ms st.profile st.ctx.infos;
    nests;
    measured = [];
    fractions }

(* ------------------------------------------------------------------ *)
(* Sampling nests' wall times                                          *)

type nest_sample = {
  s_id : int;
  s_label : string;
  s_stats : PE.nest_stats;
  s_seq_ms : float;
  s_par_ms : float;
}

let speedup s =
  if s.s_par_ms > 0. && s.s_seq_ms > 0. then s.s_seq_ms /. s.s_par_ms else 0.

(* One Measure run and one Parallel run, joined by loop id. The Measure
   run times every instance, the Parallel run only those the work gate
   forked, so the sequential side is priced at the parallel side's
   iterations. *)
let join_nests ~seq ~par =
  let seq_rows = PE.nest_rows seq in
  List.map
    (fun (id, label, (ps : PE.nest_stats)) ->
       let seq_ms =
         match List.find_opt (fun (i, _, _) -> i = id) seq_rows with
         | Some (_, _, ss) -> PE.seq_equivalent_ms ~seq:ss ~par:ps
         | None -> 0.
       in
       { s_id = id; s_label = label; s_stats = ps; s_seq_ms = seq_ms;
         s_par_ms = ps.par_ms })
    (PE.nest_rows par)

let sampled_pairs = 3

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* A nest's wall times from one sample are noise: the first pair after a
   pool starts runs cold, and a minor collection landing in a fork can
   double a chunk. So one untimed pair warms the pool and the heap, then
   [sampled_pairs] Measure/Parallel pairs alternate, and each side is
   the median of its samples. The counts are deterministic and come
   from the last pair. *)
let sample_nests ~pool ~jobs (w : Workloads.Workload.t) =
  let pair () =
    let seq = PE.create ~mode:PE.Measure ~jobs:1 () in
    ignore (Workloads.Harness.run_plain ~par:seq w);
    let par = PE.create ~mode:(PE.Parallel pool) ~jobs () in
    ignore (Workloads.Harness.run_plain ~par w);
    join_nests ~seq ~par
  in
  ignore (pair ());
  let runs = List.init sampled_pairs (fun _ -> pair ()) in
  List.map
    (fun last ->
       let side f =
         median
           (List.map
              (fun run ->
                 match List.find_opt (fun s -> s.s_id = last.s_id) run with
                 | Some s -> f s
                 | None -> 0.)
              runs)
       in
       { last with
         s_seq_ms = side (fun s -> s.s_seq_ms);
         s_par_ms = side (fun s -> s.s_par_ms) })
    (List.nth runs (sampled_pairs - 1))

(* Ground truth: every nest's sampled seq and par times at -j [jobs]. A
   nest the gate refused on every instance keeps a row with no par
   time, so the report says why it stayed sequential. *)
let measure ?(jobs = 2) (r : report) (w : Workloads.Workload.t) =
  let rows =
    Js_parallel.Pool.with_pool ~domains:jobs (fun pool ->
        List.filter_map
          (fun s ->
             let ps = s.s_stats in
             if ps.instances <= 0 && ps.refused <= 0 && ps.fallbacks <= 0
             then None
             else begin
               let nest_speedup = speedup s in
               let fraction = r.fractions.(s.s_id) in
               let predicted =
                 Js_parallel.Amdahl.speedup ~parallel_fraction:fraction
                   ~workers:jobs
               in
               let program =
                 program_speedup ~fraction ~region_speedup:nest_speedup
               in
               Some
                 { m_id = s.s_id;
                   m_label = s.s_label;
                   m_fraction = fraction;
                   m_jobs = jobs;
                   m_seq_ms = s.s_seq_ms;
                   m_par_ms = s.s_par_ms;
                   m_nest_speedup = nest_speedup;
                   m_program_speedup = program;
                   m_predicted = predicted;
                   m_karp_flatt =
                     Js_parallel.Amdahl.karp_flatt
                       ~measured_speedup:nest_speedup ~workers:jobs;
                   m_within_band =
                     ps.instances > 0
                     && within_band ~predicted ~measured:program;
                   m_instances = ps.instances;
                   m_refused = ps.refused;
                   m_fallbacks = ps.fallbacks;
                   m_poisons = ps.poisons }
             end)
          (sample_nests ~pool ~jobs w))
  in
  r.measured <- rows;
  List.length rows

(* ------------------------------------------------------------------ *)
(* Renderings. All virtual-time numbers print through [Fixed] so the
   default report is byte-deterministic; measured (wall-clock) fields
   appear only after [measure] and never in golden-compared output. *)

let json_of_fact (f : Analysis.Verdict.fact) : Ceres_util.Json.t =
  Obj
    [ ("pass", Str f.pass); ("why", Str f.why); ("line", Int f.line) ]

let json_of_nest (n : nest) : Ceres_util.Json.t =
  let open Ceres_util.Json in
  Obj
    [ ("rank", Int n.rank);
      ("id", Int n.id);
      ("label", Str n.label);
      ( "function",
        match n.in_function with Some f -> Str f | None -> Null );
      ("verdict", Str n.verdict);
      ("proven", Bool n.proven);
      ("fraction", Fixed (4, n.fraction));
      ("pct_busy", Fixed (1, n.pct_busy));
      ("instances", Int n.instances);
      ("trips_mean", Fixed (1, n.trips_mean));
      ("bound", Fixed (2, n.bound));
      ( "predicted",
        List
          (List.map
             (fun (p : predicted) ->
                Obj
                  [ ("cores", Int p.cores);
                    ("speedup", Fixed (2, p.speedup)) ])
             n.predicted) );
      ("blockers", List (List.map json_of_fact n.blockers));
      ("hints", List (List.map (fun h -> Str h) n.hints)) ]

(* A nest the work gate refused some instances of is flagged, not
   graded: its parallel instances are the ones the gate expected to
   pay, so their speedup says little about the nest as a whole. A nest
   whose every instance was poisoned has nothing to grade. *)
let grade (m : measured_row) =
  if m.m_refused > 0 then "refused"
  else if m.m_instances = 0 then "fell back"
  else if m.m_within_band then "ok"
  else "off-model"

(* Why a nest's poisoned instances ran sequentially, the paper's §5.3
   abort report: "fell back N instance(s): <reason>", each reason with
   its count when there are several. *)
let why_not (m : measured_row) =
  if m.m_fallbacks = 0 then None
  else
    Some
      (Printf.sprintf "fell back %d instance(s): %s" m.m_fallbacks
         (match m.m_poisons with
          | [ (why, _) ] -> why
          | ps ->
            String.concat ", "
              (List.map (fun (why, n) -> Printf.sprintf "%s (%d)" why n) ps)))

(* A nest that never forked has no par time: its timing members are
   [null] rather than zeros that read as measurements. *)
let json_of_measured (m : measured_row) : Ceres_util.Json.t =
  let open Ceres_util.Json in
  let timed d v = if m.m_instances > 0 then Fixed (d, v) else Null in
  Obj
    [ ("id", Int m.m_id);
      ("label", Str m.m_label);
      ("fraction", Fixed (4, m.m_fraction));
      ("jobs", Int m.m_jobs);
      ("seq_ms", timed 1 m.m_seq_ms);
      ("par_ms", timed 1 m.m_par_ms);
      ("nest_speedup", timed 2 m.m_nest_speedup);
      ("program_speedup", timed 2 m.m_program_speedup);
      ("predicted", Fixed (2, m.m_predicted));
      ("karp_flatt", timed 2 m.m_karp_flatt);
      ("within_band", Bool m.m_within_band);
      ("instances", Int m.m_instances);
      ("refused", Int m.m_refused);
      ("fallbacks", Int m.m_fallbacks);
      ("why_not", match why_not m with Some w -> Str w | None -> Null);
      ("grade", Str (grade m)) ]

let json_of_report (r : report) : Ceres_util.Json.t =
  let open Ceres_util.Json in
  Obj
    ([ ("workload", Str r.workload);
       ("cores", List (List.map (fun c -> Int c) r.cores));
       ("busy_ms", Fixed (3, r.busy_ms));
       ("loop_ms", Fixed (3, r.loop_ms));
       ("plan", List (List.map json_of_nest r.nests)) ]
     @
     match r.measured with
     | [] -> []
     | ms ->
       [ ( "measured",
           Obj
             [ ("measured_nests", Int (List.length ms));
               ("nests", List (List.map json_of_measured ms)) ] ) ])

let to_json r = Ceres_util.Json.to_string_pretty (json_of_report r)

(* The headline core count of a plan line ("... at 4 cores"): 4 when
   modeled, else the largest modeled count. *)
let headline_cores r =
  if List.mem 4 r.cores then 4
  else match List.rev r.cores with c :: _ -> c | [] -> 4

let to_text (r : report) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "advisor plan for %s: busy %.2f s, %.0f%% of it in root loop nests\n"
       r.workload (r.busy_ms /. 1000.)
       (if r.busy_ms <= 0. then 0. else 100. *. r.loop_ms /. r.busy_ms));
  let hc = headline_cores r in
  List.iter
    (fun (n : nest) ->
       Buffer.add_string buf
         (Printf.sprintf "%3d. %s%s — %s%s, %.1f%% of busy time\n" n.rank
            n.label
            (match n.in_function with
             | Some f -> " in " ^ f
             | None -> "")
            n.verdict
            (if n.proven then " (proven)" else "")
            n.pct_busy);
       let at_hc =
         match List.find_opt (fun (p : predicted) -> p.cores = hc) n.predicted with
         | Some p -> p.speedup
         | None -> n.bound
       in
       Buffer.add_string buf
         (Printf.sprintf "     predicted whole-program speedup: %s (bound %.2fx)\n"
            (String.concat ", "
               (List.map
                  (fun (p : predicted) ->
                     Printf.sprintf "%.2fx @%d" p.speedup p.cores)
                  n.predicted))
            n.bound);
       Buffer.add_string buf
         (if n.proven then
            Printf.sprintf
              "     parallelize this nest -> predicted whole-program %.2fx \
               at %d cores\n"
              at_hc hc
          else
            Printf.sprintf
              "     if unblocked -> predicted whole-program %.2fx at %d \
               cores\n"
              at_hc hc);
       List.iter
         (fun (f : Analysis.Verdict.fact) ->
            Buffer.add_string buf
              (Printf.sprintf "     blocked by: %s [%s, line %d]\n" f.why
                 f.pass f.line))
         n.blockers;
       List.iter
         (fun h ->
            Buffer.add_string buf (Printf.sprintf "     hint: %s\n" h))
         n.hints)
    r.nests;
  (match r.measured with
   | [] -> ()
   | ms ->
     Buffer.add_string buf
       (Printf.sprintf "measured (par-exec, %d nest(s)):\n" (List.length ms));
     List.iter
       (fun (m : measured_row) ->
          let verdict =
            if m.m_refused > 0 then
              Printf.sprintf "refused %d instance(s) below break-even"
                m.m_refused
            else grade m
          in
          Buffer.add_string buf
            (if m.m_instances = 0 then
               Printf.sprintf "  %s: never forked; predicted %.2fx @%d [%s]\n"
                 m.m_label m.m_predicted m.m_jobs verdict
             else
               Printf.sprintf
                 "  %s: seq %.1f ms -> par %.1f ms = %.2fx nest; program \
                  %.2fx vs predicted %.2fx @%d (karp-flatt %.2f) [%s]\n"
                 m.m_label m.m_seq_ms m.m_par_ms m.m_nest_speedup
                 m.m_program_speedup m.m_predicted m.m_jobs m.m_karp_flatt
                 verdict);
          Option.iter
            (fun w -> Buffer.add_string buf (Printf.sprintf "     %s\n" w))
            (why_not m))
       ms);
  Buffer.contents buf
