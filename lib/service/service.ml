(* The service core: one [run] that every consumer routes through.

   Each cache miss runs under a per-workload chaos session keyed on
   the workload *name* (so injected failure sets stay a pure function
   of the seed, independent of scheduling), supervised by
   [Js_parallel.Supervisor.run] with the service's retry and watchdog
   policy; the batcher fans a batch's misses out over the pool. On top
   of that sits the result cache. *)

module Json = Ceres_util.Json
module Request = Request
module Response = Response
module Cache = Cache
module Batcher = Batcher
module Serve = Serve
module Admission = Admission
module Server = Server
module Loadgen = Loadgen

module Exit = struct
  let ok = 0
  let operational_error = 1
  let verdict = 2
end

type t = {
  pool : Js_parallel.Pool.t option;
  cache : Response.t Cache.t;
  retries : int;
  budget : int64 option;
}

let create ?(jobs = 1) ?(retries = 1) ?watchdog_ms ?cache_capacity () =
  { pool =
      (if jobs > 1 then Some (Js_parallel.Pool.create ~domains:jobs ())
       else None);
    cache = Cache.create ?capacity:cache_capacity ();
    retries;
    budget =
      Option.map
        (fun ms -> Int64.of_int (ms * Workloads.Harness.ticks_per_ms))
        watchdog_ms }

let jobs t =
  match t.pool with Some p -> Js_parallel.Pool.size p | None -> 1

(* ------------------------------------------------------------------ *)

let execute_body (w : Workloads.Workload.t) (req : Request.t) :
  Response.body =
  let cfg = req.Request.config in
  match req.Request.pass with
  | Request.Profile ->
    Response.Profile (Workloads.Harness.run_lightweight ?scale:cfg.scale w)
  | Request.Loops ->
    let ctx, lp = Workloads.Harness.run_loop_profile ?scale:cfg.scale w in
    Response.Loops (Ceres.Report.loop_profile_report lp ctx.infos)
  | Request.Deps ->
    let focus = Option.map (fun id -> [ id ]) cfg.focus in
    let ctx, rt = Workloads.Harness.run_dependence ?focus w in
    Response.Deps
      (Ceres.Report.dependence_report
         ~title:(Printf.sprintf "dependence analysis of %s" w.name)
         rt ctx.infos)
  | Request.Analyze ->
    Response.Analyze
      (Analysis.Driver.analyze (Jsir.Parser.parse_program w.source))
  | Request.Crossval -> Response.Crossval (Workloads.Harness.crossval w)
  | Request.Pipeline ->
    let timing = Workloads.Harness.run_lightweight ?scale:cfg.scale w in
    let rows = Workloads.Harness.inspect ?max_nests:cfg.max_nests w in
    Response.Pipeline (timing, rows)
  | Request.Advise ->
    Response.Advise (Advisor.analyze ?cores:cfg.cores w)

(* Supervised execution of a cache miss; fills the cache on success.
   Failures are not cached: a transient fault must not be replayed
   from the cache after the fault is gone. *)
let compute t (w : Workloads.Workload.t) (req : Request.t) key =
  let session = Js_parallel.Fault.session ~key:w.Workloads.Workload.name in
  match
    Js_parallel.Supervisor.run ~retries:t.retries ?budget:t.budget
      (fun () ->
         Js_parallel.Fault.attempt_gate session;
         Js_parallel.Fault.with_session session (fun () ->
             execute_body w req))
  with
  | Ok body ->
    let resp = Response.ok req body in
    Cache.add t.cache key resp;
    resp
  | Error fl ->
    let resp = Response.of_failure req fl in
    (* A failure whose exception was the vclock watchdog is a missed
       per-request deadline: visible in the server telemetry. *)
    if Response.timed_out resp then
      Js_parallel.Telemetry.(incr requests_timed_out);
    resp

let unknown_workload req =
  Response.error ~request:req Response.Unknown_workload
    (Printf.sprintf "unknown workload %S; available: %s" req.Request.workload
       (String.concat ", " Workloads.Registry.names))

(* Each registered workload's source digest, taken once: a cache hit
   then hashes no source. *)
let source_digests =
  List.map
    (fun (w : Workloads.Workload.t) ->
       (w, Digest.to_hex (Digest.string w.source)))
    Workloads.Registry.all

(* Resolve the registry name (case-insensitive) and normalize the
   echoed request so responses always carry the canonical name. *)
let resolve (req : Request.t) =
  match Workloads.Registry.find req.Request.workload with
  | None -> Error (unknown_workload req)
  | Some w ->
    let req = { req with Request.workload = w.Workloads.Workload.name } in
    Ok (req, w, Request.key ~digest:(List.assq w source_digests) req)

let run t req =
  match resolve req with
  | Error resp -> resp
  | Ok (req, w, key) -> (
      match Cache.find t.cache key with
      | Some resp -> resp
      | None -> compute t w req key)

let run_batch t reqs =
  (* Probe the cache in request order first, then fan the distinct
     misses out as one wave. *)
  let items =
    List.map
      (fun req ->
         match resolve req with
         | Error resp -> Either.Right resp
         | Ok (req, w, key) -> (
             match Cache.find t.cache key with
             | Some resp -> Either.Right resp
             | None -> Either.Left (req, w, key)))
      reqs
  in
  let misses =
    List.filter_map
      (function Either.Left m -> Some m | Either.Right _ -> None)
      items
  in
  let computed =
    (* [compute] confines workload failures itself (Supervisor.run),
       but a bug in the service layer — cache, keying, report
       rendering — must cost one error response, not the wave. *)
    Batcher.run ?pool:t.pool
      ~recover:(fun (req, _, _) exn ->
        Response.error ~request:req Response.Workload_failed
          ("internal: " ^ Printexc.to_string exn))
      ~key:(fun (_, _, k) -> k)
      ~exec:(fun (req, w, key) -> compute t w req key)
      misses
  in
  let remaining = ref computed in
  List.map
    (function
      | Either.Right resp -> resp
      | Either.Left _ ->
        (match !remaining with
         | resp :: rest ->
           remaining := rest;
           resp
         | [] -> assert false))
    items

let cache_stats t = Cache.stats t.cache

let pool_stats t = Option.map Js_parallel.Pool.stats t.pool

let handler t : Serve.handler =
  { exec = run t;
    exec_batch = run_batch t;
    cache_stats = (fun () -> cache_stats t);
    cache_clear = (fun () -> Cache.clear t.cache);
    telemetry =
      (fun () -> Option.map Js_parallel.Telemetry.json_of_stats (pool_stats t));
    health =
      (fun () ->
         Obj [ ("status", Str "ok"); ("transport", Str "stdio") ]) }

let serve_channels ?max_request_bytes t ic oc =
  Serve.serve ?max_request_bytes (handler t) ic oc

let shutdown t =
  match t.pool with None -> () | Some p -> Js_parallel.Pool.shutdown p
