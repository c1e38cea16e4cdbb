(* Speculative loop parallelization with abort reporting.

   Paper Sec. 5.3: "As speculative parallelization gains ground for
   JavaScript, it ... not only need[s] to abort when it fails to run a
   loop in parallel, but also [to] have ways to report to the developer
   the reason for aborting."

   This executor takes a candidate loop — setup source plus the source
   of an iteration function — and speculates that its iterations are
   independent:

   1. a *validation* run executes the iterations sequentially under the
      full JS-CERES dependence instrumentation, watching for
      loop-carried dependences and DOM traffic;
   2. on a clean validation the iterations are replayed in parallel,
      each domain running an isolated interpreter over its slice (the
      share-nothing execution a browser could implement with workers),
      and per-iteration results are combined;
   3. any conflict aborts the speculation and the warnings are returned
      verbatim as the abort reason.

   The iteration function must return a number (its "result"); the
   combined result is the sum, which doubles as the checksum the tests
   compare against sequential execution. *)

type abort_reason =
  | Carried_dependence of string list (* rendered JS-CERES warnings *)
  | Dom_access of int (* host DOM/canvas operations inside the loop *)
  | Runtime_error of string

type outcome =
  | Committed of { result : float; domains : int }
  | Aborted of abort_reason

let harness_src ~iter_src =
  Printf.sprintf
    {|var __iter = %s;
var __acc = 0;
for (var __i = __lo; __i < __hi; __i++) {
  __acc = __acc + __iter(__i);
}|}
    iter_src

let fresh_state ?budget ~setup_src () =
  let st = Interp.Eval.create ?budget () in
  Interp.Builtins.install st;
  let doc = Dom.Document.install st in
  Interp.Eval.run_program st (Jsir.Parser.parse_program setup_src);
  (st, doc)

let define_range (st : Interp.Value.state) ~lo ~hi =
  Interp.Value.declare st.global_scope "__lo";
  Interp.Value.set_var st st.global_scope "__lo" (Num (float_of_int lo));
  Interp.Value.declare st.global_scope "__hi";
  Interp.Value.set_var st st.global_scope "__hi" (Num (float_of_int hi))

let read_acc (st : Interp.Value.state) =
  match Interp.Value.get_var st st.global_scope "__acc" with
  | Interp.Value.Num f -> f
  | v -> Interp.Value.to_number st v

(* Sequential oracle: run uninstrumented, return the accumulated
   result. *)
let run_sequential ?budget ~setup_src ~iter_src ~lo ~hi () =
  let st, _doc = fresh_state ?budget ~setup_src () in
  define_range st ~lo ~hi;
  Interp.Eval.run_program st (Jsir.Parser.parse_program (harness_src ~iter_src));
  read_acc st

(* Validation run under dependence instrumentation. *)
let validate ?budget ~setup_src ~iter_src ~lo ~hi () =
  let st, _doc = fresh_state ?budget ~setup_src () in
  define_range st ~lo ~hi;
  let program = Jsir.Parser.parse_program (harness_src ~iter_src) in
  let infos = Jsir.Loops.index program in
  let rt = Ceres.Install.dependence st infos in
  let instrumented = Ceres.Instrument.program Ceres.Instrument.Dependence program in
  (try Interp.Eval.run_program st instrumented
   with Interp.Value.Js_throw v ->
     raise (Failure (Interp.Value.to_string st v)));
  let carried =
    (* Speculation aborts on *observed* conflicts only: a WAW overwrite
       of one slot from different iterations, a loop-carried RAW, or a
       write to a variable shared across iterations. [Prop_write]
       warnings without a matching overwrite are disjoint scatter
       writes — exactly the "well-defined write pattern that allows
       parallelism" of the paper's Sec. 4.2 — and do not abort. *)
    Ceres.Runtime.warnings rt
    |> List.filter (fun ((w : Ceres.Runtime.warning), _) ->
        match w.kind with
        | Ceres.Runtime.Induction_write _ | Ceres.Runtime.Prop_write _ ->
          false
        | Ceres.Runtime.Prop_war _ ->
          (* anti dependences are satisfied by the share-nothing replay:
             a reader ordered before the writer sees the pre-loop value
             in both the sequential and the replayed execution *)
          false
        | Ceres.Runtime.Var_write name | Ceres.Runtime.Var_accum name ->
          (* the harness accumulator is reduced, not shared *)
          not (String.equal name "__acc")
        | Ceres.Runtime.Prop_overwrite _ | Ceres.Runtime.Prop_read _ -> true)
    |> List.map (fun w -> Ceres.Report.warning_to_string infos w)
  in
  let dom =
    Array.to_list infos
    |> List.fold_left
         (fun acc (info : Jsir.Loops.info) ->
            acc + Ceres.Runtime.dom_accesses_in rt info.id)
         0
  in
  (carried, dom)

(* Validation and replay both run arbitrary MiniJS under speculation:
   any interpreter exception — including [Value.Budget_exhausted] from
   a runaway iteration body hitting the vclock watchdog — must abort
   with a reported reason, never escape to the caller (paper Sec. 5.3). *)
let abort_of_exn context = function
  | Interp.Value.Budget_exhausted ->
    Aborted
      (Runtime_error
         (context
          ^ ": interpreter budget exhausted (runaway or non-terminating \
             iteration body)"))
  | exn -> Aborted (Runtime_error (context ^ ": " ^ Printexc.to_string exn))

(* Share-nothing parallel replay: one interpreter per slice. *)
let replay ~domains ?budget ~setup_src ~iter_src ~lo ~hi () : outcome =
  let domains = max 1 domains in
  let span = hi - lo in
  let slice = (span + domains - 1) / max 1 domains in
  let partials = Array.make domains 0. in
  let slices =
    List.init domains (fun d ->
        let slo = lo + (d * slice) in
        let shi = min hi (slo + slice) in
        (d, slo, shi))
    |> List.filter (fun (_, slo, shi) -> shi > slo)
  in
  let run_slice (d, slo, shi) =
    partials.(d) <-
      run_sequential ?budget ~setup_src ~iter_src ~lo:slo ~hi:shi ()
  in
  (* The replay runs on the work-stealing pool rather than raw
     [Domain.spawn]s, so speculation inherits the pool's dynamic
     load balancing and its scheduling telemetry. *)
  match
    (match slices with
     | [] -> ()
     | [ s ] -> run_slice s
     | _ ->
       let arr = Array.of_list slices in
       Pool.with_pool ~domains (fun p ->
           Pool.parallel_for p ~lo:0 ~hi:(Array.length arr) ~chunk:1
             (fun i -> run_slice arr.(i))))
  with
  | () -> Committed { result = Array.fold_left ( +. ) 0. partials; domains }
  | exception exn -> abort_of_exn "parallel replay" exn

(* ------------------------------------------------------------------ *)
(* Static fast path: when the static analyzer already proved the
   harness loop parallel (or a reduction over the harness accumulator
   alone), the validation run — a full sequential execution under
   dependence instrumentation — is pure bookkeeping and is skipped. *)

let analyze_candidate ~iter_src =
  Analysis.Driver.analyze (Jsir.Parser.parse_program (harness_src ~iter_src))

(* The harness driver loop is the top-level [for] the template wraps
   around [__iter] — identified structurally, not by id, so the
   template can evolve. *)
let driver_verdict (rep : Analysis.Driver.report) =
  List.find_map
    (fun (r : Analysis.Driver.row) ->
       if
         r.info.parent = None && r.info.in_function = None
         && r.info.kind = Jsir.Ast.Kfor
       then Some r.verdict
       else None)
    rep.rows

let statically_proven rep =
  match driver_verdict rep with
  | Some (Analysis.Verdict.Parallel _) -> true
  | Some (Analysis.Verdict.Reduction _ as v) ->
    (* only the harness's own accumulator may be reduced: a reduction
       over user state would change observable behaviour under the
       share-nothing replay *)
    List.for_all (String.equal "__acc") (Analysis.Verdict.acc_names v)
  | _ -> false

let run ?(domains = Domain.recommended_domain_count ()) ?budget
    ?static_verdicts ~setup_src ~iter_src ~lo ~hi () : outcome =
  let skip_validation =
    match static_verdicts with
    | Some rep -> statically_proven rep
    | None -> false
  in
  if skip_validation then begin
    Telemetry.(incr speculation_skipped_static);
    replay ~domains ?budget ~setup_src ~iter_src ~lo ~hi ()
  end
  else
    match validate ?budget ~setup_src ~iter_src ~lo ~hi () with
    | exception Failure msg -> Aborted (Runtime_error msg)
    | exception exn -> abort_of_exn "validation" exn
    | carried, dom ->
      if carried <> [] then Aborted (Carried_dependence carried)
      else if dom > 0 then Aborted (Dom_access dom)
      else replay ~domains ?budget ~setup_src ~iter_src ~lo ~hi ()

let abort_reason_to_string = function
  | Carried_dependence ws ->
    "loop-carried dependences:\n  " ^ String.concat "\n  " ws
  | Dom_access n ->
    Printf.sprintf "%d DOM/canvas accesses inside the loop (non-concurrent)" n
  | Runtime_error msg -> "runtime error during validation: " ^ msg
