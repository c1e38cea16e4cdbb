(* Responses and their renderings. The text formats here are the
   historical per-subcommand stdout formats, moved out of bin/jsceres
   and bench/main so that every consumer (CLI, serve, bench) prints a
   given response identically. *)

type error_code =
  | Bad_request
  | Unknown_workload
  | Workload_failed
  | Overloaded
  | Unsupported_version

let error_code_name = function
  | Bad_request -> "bad-request"
  | Unknown_workload -> "unknown-workload"
  | Workload_failed -> "workload-failed"
  | Overloaded -> "overloaded"
  | Unsupported_version -> "unsupported-version"

type error = {
  code : error_code;
  message : string;
  failure : Js_parallel.Supervisor.failure option;
  retry_after_ms : int option;
}

type body =
  | Profile of Workloads.Harness.timing
  | Loops of string
  | Deps of string
  | Analyze of Analysis.Driver.report
  | Crossval of Workloads.Harness.crossval_row list
  | Pipeline of Workloads.Harness.timing * Workloads.Harness.nest_row list
  | Advise of Advisor.report

type t = {
  request : Request.t option;
  result : (body, error) result;
  mutable line : string option;
}

let ok request body = { request = Some request; result = Ok body; line = None }

let error ?request ?retry_after_ms code message =
  { request;
    result = Error { code; message; failure = None; retry_after_ms };
    line = None }

let overloaded ~retry_after_ms message =
  error ~retry_after_ms Overloaded message

let of_failure request fl =
  { request = Some request;
    result =
      Error
        { code = Workload_failed;
          message = Js_parallel.Supervisor.failure_to_string fl;
          failure = Some fl;
          retry_after_ms = None };
    line = None }

(* The watchdog's printer text (registered in Interp.Value): a failed
   response whose exception was the vclock budget is a deadline
   overrun, counted as [requests_timed_out] by the service. *)
let budget_text = "interpreter vclock budget exhausted"

let timed_out (t : t) =
  match t.result with
  | Error { failure = Some fl; _ } ->
    let n = String.length budget_text in
    let rec find i =
      i + n <= String.length fl.exn_text
      && (String.sub fl.exn_text i n = budget_text || find (i + 1))
    in
    find 0
  | _ -> false

let exit_code (t : t) =
  match t.result with
  | Error _ -> 1
  | Ok (Analyze rep) -> if Analysis.Driver.any_sequential rep then 2 else 0
  | Ok _ -> 0

(* ------------------------------------------------------------------ *)
(* Protocol JSON *)

let json_of_timing (t : Workloads.Harness.timing) : Ceres_util.Json.t =
  let open Ceres_util.Json in
  Obj
    [ ("total_ms", Float t.total_ms);
      ("active_ms", Float t.active_ms);
      ("busy_ms", Float t.busy_ms);
      ("in_loops_ms", Float t.in_loops_ms);
      ("dom_accesses", Int t.dom_accesses);
      ("canvas_accesses", Int t.canvas_accesses);
      ("console", List (List.map (fun l -> Str l) t.console)) ]

let json_of_nest (r : Workloads.Harness.nest_row) : Ceres_util.Json.t =
  let open Ceres_util.Json in
  Obj
    [ ("label", Str r.label);
      ("pct_loop_time", Float r.pct_loop_time);
      ("instances", Int r.instances);
      ("trips_mean", Float r.trips_mean);
      ("trips_sd", Float r.trips_sd);
      ("divergence", Str (Ceres.Classify.divergence_to_string r.divergence));
      ("dom_access", Bool r.dom_access);
      ( "dep_difficulty",
        Str (Ceres.Classify.difficulty_to_string r.dep_difficulty) );
      ( "par_difficulty",
        Str (Ceres.Classify.difficulty_to_string r.par_difficulty) );
      ("warning_count", Int r.warning_count);
      ("static_verdict", Str r.static_verdict);
      ( "advice",
        List
          (List.map
             (fun a -> Str (Ceres.Advice.recommendation_to_string a))
             r.advice) ) ]

let json_of_crossval (rows : Workloads.Harness.crossval_row list) :
  Ceres_util.Json.t =
  let open Ceres_util.Json in
  let proven =
    List.length
      (List.filter
         (fun (r : Workloads.Harness.crossval_row) ->
            Analysis.Verdict.is_proven r.static_verdict)
         rows)
  and unsound =
    List.length
      (List.filter
         (fun (r : Workloads.Harness.crossval_row) -> not r.sound)
         rows)
  in
  Obj
    [ ( "rows",
        List
          (List.map
             (fun (r : Workloads.Harness.crossval_row) ->
                Obj
                  [ ("loop", Str (Jsir.Loops.label r.loop));
                    ( "verdict",
                      Str (Analysis.Verdict.kind_name r.static_verdict) );
                    ("sound", Bool r.sound);
                    ( "carried",
                      List (List.map (fun c -> Str c) r.dynamic_carried) ) ])
             rows) );
      ("proven", Int proven);
      ("violations", Int unsound) ]

let json_of_body = function
  | Profile t -> json_of_timing t
  | Loops report | Deps report -> Ceres_util.Json.Obj [ ("report", Str report) ]
  | Analyze rep ->
    (match Analysis.Driver.json_of_report rep with
     | Ceres_util.Json.Obj fields ->
       Ceres_util.Json.Obj
         (("sequential", Ceres_util.Json.Bool (Analysis.Driver.any_sequential rep))
          :: fields)
     | other -> other)
  | Crossval rows -> json_of_crossval rows
  | Pipeline (t, rows) ->
    Ceres_util.Json.Obj
      [ ("timing", json_of_timing t);
        ("nests", Ceres_util.Json.List (List.map json_of_nest rows)) ]
  | Advise rep -> Advisor.json_of_report rep

(* Every protocol line leads with the envelope version (DESIGN.md §9)
   so clients can dispatch on it before reading anything else. *)
let protocol_version = 1

let to_json (t : t) : Ceres_util.Json.t =
  let open Ceres_util.Json in
  let head =
    ("v", Int protocol_version)
    ::
    (match t.request with
     | Some r ->
       [ ("workload", Str r.workload);
         ("pass", Str (Request.pass_name r.pass)) ]
     | None -> [])
  in
  match t.result with
  | Ok body -> Obj (head @ [ ("result", json_of_body body) ])
  | Error e ->
    Obj
      (head
       @ [ ( "error",
             Obj
               ([ ("code", Str (error_code_name e.code));
                  ("message", Str e.message) ]
                @
                match e.retry_after_ms with
                | None -> []
                | Some ms -> [ ("retry_after_ms", Int ms) ]) ) ])

(* Two sessions rendering one fresh record both store equal bytes, so
   either store may win. *)
let line (t : t) =
  match t.line with
  | Some l -> l
  | None ->
    let l = Ceres_util.Json.to_string (to_json t) in
    t.line <- Some l;
    l

(* ------------------------------------------------------------------ *)
(* CLI text renderings — the historical byte formats. *)

let workload_name (t : t) =
  match t.request with Some r -> r.workload | None -> "?"

let timing_line name (ti : Workloads.Harness.timing) =
  Printf.sprintf
    "%s: total %.1f s, sampler-active %.2f s, busy %.2f s, in loops %.2f s\n"
    name (ti.total_ms /. 1000.) (ti.active_ms /. 1000.)
    (ti.busy_ms /. 1000.) (ti.in_loops_ms /. 1000.)

let nest_line ~indent (r : Workloads.Harness.nest_row) =
  Printf.sprintf
    "%s%s: %.0f%% of loop time, %d instances, trips %.1f±%.1f,\n\
     %s  divergence %s, DOM %b, breaking deps %s, parallelization %s\n"
    indent r.label r.pct_loop_time r.instances r.trips_mean r.trips_sd
    indent
    (Ceres.Classify.divergence_to_string r.divergence)
    r.dom_access
    (Ceres.Classify.difficulty_to_string r.dep_difficulty)
    (Ceres.Classify.difficulty_to_string r.par_difficulty)

let render_crossval rows =
  let buf = Buffer.create 256 in
  let proven = ref 0 and unsound = ref 0 in
  List.iter
    (fun (r : Workloads.Harness.crossval_row) ->
       if Analysis.Verdict.is_proven r.static_verdict then incr proven;
       if r.sound then
         Buffer.add_string buf
           (Printf.sprintf "%s [%s]: ok\n"
              (Jsir.Loops.label r.loop)
              (Analysis.Verdict.to_string r.static_verdict))
       else begin
         incr unsound;
         Buffer.add_string buf
           (Printf.sprintf "%s [%s]: UNSOUND (%s)\n"
              (Jsir.Loops.label r.loop)
              (Analysis.Verdict.to_string r.static_verdict)
              (String.concat " | " r.dynamic_carried))
       end)
    rows;
  Buffer.add_string buf
    (Printf.sprintf "statically proven: %d loop(s); soundness violations: %d\n"
       !proven !unsound);
  Buffer.contents buf

let render_text (t : t) =
  match t.result with
  | Error { failure = Some fl; _ } ->
    Printf.sprintf "%s: FAILED %s\n" (workload_name t)
      (Js_parallel.Supervisor.failure_to_string fl)
  | Error e -> Printf.sprintf "jsceres: error: %s\n" e.message
  | Ok (Profile ti) ->
    timing_line (workload_name t) ti
    ^ Printf.sprintf "DOM accesses: %d, canvas accesses: %d\n"
        ti.dom_accesses ti.canvas_accesses
  | Ok (Loops report) | Ok (Deps report) -> report
  | Ok (Analyze rep) -> Analysis.Driver.to_text rep
  | Ok (Crossval rows) -> render_crossval rows
  | Ok (Pipeline (ti, rows)) ->
    timing_line (workload_name t) ti
    ^ String.concat "" (List.map (nest_line ~indent:"  ") rows)
  | Ok (Advise rep) -> Advisor.to_text rep

let render_inspect (t : t) =
  match t.result with
  | Ok (Pipeline (_, rows)) ->
    String.concat ""
      (List.map
         (fun (r : Workloads.Harness.nest_row) ->
            nest_line ~indent:"" r
            ^ Ceres.Advice.render ~label:r.label r.advice)
         rows)
  | _ -> render_text t

let render_analyze_json (t : t) =
  match t.result with
  | Ok (Analyze rep) -> Some (Analysis.Driver.to_json rep)
  | _ -> None

let render_advise_json (t : t) =
  match t.result with
  | Ok (Advise rep) -> Some (Advisor.to_json rep)
  | _ -> None
