(* JSONL request/response protocol. Kept independent of the service
   core (it receives the exec functions in a [handler] record) so the
   protocol layer is testable line-by-line without a process, and so
   the stdin loop and the socket server (Server) share one protocol
   implementation — the two transports cannot drift. A response line
   is [Response.line], so a cache hit writes the bytes its cached
   response already carries instead of re-encoding the JSON tree. *)

type handler = {
  exec : Request.t -> Response.t;
  exec_batch : Request.t list -> Response.t list;
  cache_stats : unit -> Cache.stats;
  cache_clear : unit -> unit;
  telemetry : unit -> Ceres_util.Json.t option;
  health : unit -> Ceres_util.Json.t;
}

type step =
  | No_reply
  | Reply of string
  | Stop of string

let default_max_request_bytes = 1 lsl 20 (* 1 MiB *)

let error_line code message = Response.line (Response.error code message)

let invalid_json_line msg =
  error_line Response.Bad_request ("invalid JSON: " ^ msg)

let oversized_line max_bytes =
  error_line Response.Bad_request
    (Printf.sprintf "request exceeds %d bytes" max_bytes)

(* Op replies are hand-built (they are not [Response.t]s), so each one
   leads with the same versioned envelope as the response lines. *)
let versioned fields =
  Ceres_util.Json.Obj (("v", Int Response.protocol_version) :: fields)

let cache_json (s : Cache.stats) =
  Ceres_util.Json.Obj
    [ ("hits", Int s.hits);
      ("misses", Int s.misses);
      ("evictions", Int s.evictions);
      ("entries", Int s.entries) ]

let cache_stats_line s =
  Ceres_util.Json.to_string (versioned [ ("cache", cache_json s) ])

(* Optional protocol version on any incoming document (DESIGN.md §9):
   absent means v1, [1] is accepted, any other integer earns the
   structured [unsupported-version] error — never a crash or a bare
   parse failure. *)
let version_mismatch (doc : Ceres_util.Json.t) =
  match doc with
  | Obj _ ->
    (match Ceres_util.Json.member "v" doc with
     | None -> None
     | Some v ->
       (match Ceres_util.Json.int_opt v with
        | Some n when n = Response.protocol_version -> None
        | Some n ->
          Some
            ( Response.Unsupported_version,
              Printf.sprintf
                "unsupported protocol version %d (this server speaks v%d)"
                n Response.protocol_version )
        | None -> Some (Response.Bad_request, "\"v\" must be an integer")))
  | _ -> None

(* The server needs to know whether a document is a control op (served
   without admission) or an execution request (admitted) before acting
   on it, so the classification is its own function. *)
let op_of_doc (doc : Ceres_util.Json.t) =
  match doc with
  | Obj _ when Ceres_util.Json.member "op" doc <> None -> Some doc
  | _ -> None

let is_op doc = op_of_doc doc <> None

let handle_doc h (doc : Ceres_util.Json.t) : step =
  match version_mismatch doc with
  | Some (code, msg) -> Reply (error_line code msg)
  | None ->
  match doc with
  | Obj _ when Ceres_util.Json.member "op" doc <> None ->
    (match Option.bind (Ceres_util.Json.member "op" doc)
             Ceres_util.Json.string_opt
     with
     | Some "cache-stats" -> Reply (cache_stats_line (h.cache_stats ()))
     | Some "cache-clear" ->
       (* Reply with the post-clear stats so the caller can assert the
          wipe took effect without a second round-trip. *)
       h.cache_clear ();
       Reply (cache_stats_line (h.cache_stats ()))
     | Some "telemetry" ->
       (* One health snapshot: pool scheduling stats (null when the
          service runs single-job), the result cache's counters, the
          server request-lifecycle counters (admission/deadline/
          session fate), and the process GC totals — enough to see
          from the outside whether a long-lived server is reusing
          results, shedding load, or churning the heap. *)
       let gc = Gc.quick_stat () in
       Reply
         (Ceres_util.Json.to_string
            (versioned
               [ ( "telemetry",
                   Ceres_util.Json.Obj
                     [ ( "pool",
                         match h.telemetry () with
                         | Some doc -> doc
                         | None -> Ceres_util.Json.Null );
                       ("cache", cache_json (h.cache_stats ()));
                       ("server", Js_parallel.Telemetry.server_counters_json ());
                       ( "gc",
                         Obj
                           [ ("minor_words", Fixed (0, gc.Gc.minor_words));
                             ( "promoted_words",
                               Fixed (0, gc.Gc.promoted_words) );
                             ("major_words", Fixed (0, gc.Gc.major_words));
                             ( "minor_collections",
                               Int gc.Gc.minor_collections );
                             ( "major_collections",
                               Int gc.Gc.major_collections ) ] ) ] ) ]))
     | Some "health" ->
       Reply
         (Ceres_util.Json.to_string
            (versioned [ ("health", h.health ()) ]))
     | Some "shutdown" ->
       (* Acknowledge, then stop the transport: the stdin loop ends,
          the socket server begins its graceful drain. *)
       Stop
         (Ceres_util.Json.to_string
            (versioned [ ("ok", Bool true); ("draining", Bool true) ]))
     | Some "ping" ->
       Reply (Ceres_util.Json.to_string (versioned [ ("ok", Bool true) ]))
     | Some op ->
       Reply
         (error_line Response.Bad_request (Printf.sprintf "unknown op %S" op))
     | None ->
       Reply (error_line Response.Bad_request "\"op\" must be a string"))
  | Obj _ ->
    (match Request.of_json doc with
     | Ok req -> Reply (Response.line (h.exec req))
     | Error msg -> Reply (error_line Response.Bad_request msg))
  | List items ->
    (match List.find_map version_mismatch items with
     | Some (code, msg) -> Reply (error_line code ("in batch: " ^ msg))
     | None ->
    let parsed = List.map Request.of_json items in
    (match
       List.find_map (function Error m -> Some m | Ok _ -> None) parsed
     with
     | Some msg ->
       Reply (error_line Response.Bad_request ("in batch: " ^ msg))
     | None ->
       let reqs =
         List.filter_map (function Ok r -> Some r | Error _ -> None) parsed
       in
       (* The same bytes as rendering the batch as one [List]: a hit's
          stored line is spliced in, not re-encoded. *)
       Reply
         ("[" ^ String.concat "," (List.map Response.line (h.exec_batch reqs))
          ^ "]")))
  | _ ->
    Reply (error_line Response.Bad_request "request must be an object or array")

let handle_line h line : step =
  let line = String.trim line in
  if line = "" then No_reply
  else
    match Ceres_util.Json.of_string line with
    | Error msg -> Reply (invalid_json_line msg)
    | Ok doc -> (
        try handle_doc h doc
        with exn ->
          (* Last-ditch confinement: a serve loop must answer with an
             error line, never die on a request. *)
          Reply
            (error_line Response.Bad_request
               ("internal error: " ^ Printexc.to_string exn)))

(* ------------------------------------------------------------------ *)
(* Bounded line reader: a hostile line longer than [max_bytes] is
   discarded as it streams past instead of being buffered into OOM,
   and a torn final line (EOF with no newline) is distinguished from a
   clean EOF so sessions can account for dropped clients. *)

type read_result =
  | Line of string
  | Oversized
  | Eof of { partial : bool }

let read_line_bounded ~max_bytes ic =
  let buf = Buffer.create 256 in
  let rec discard () =
    match input_char ic with
    | '\n' -> Oversized
    | _ -> discard ()
    | exception End_of_file -> Oversized
  in
  let rec go () =
    match input_char ic with
    | '\n' -> Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= max_bytes then discard ()
      else begin
        Buffer.add_char buf c;
        go ()
      end
    | exception End_of_file -> Eof { partial = Buffer.length buf > 0 }
  in
  go ()

(* ------------------------------------------------------------------ *)

let ignore_sigpipe () =
  (* A client gone mid-response must surface as [Sys_error EPIPE], not
     kill the process. No-op where SIGPIPE does not exist. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let serve ?(max_request_bytes = default_max_request_bytes) h ic oc =
  ignore_sigpipe ();
  let emit out =
    output_string oc out;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match read_line_bounded ~max_bytes:max_request_bytes ic with
    | Eof _ -> ()
    | Oversized ->
      emit (oversized_line max_request_bytes);
      loop ()
    | Line line -> (
        match handle_line h line with
        | No_reply -> loop ()
        | Reply out ->
          emit out;
          loop ()
        | Stop out -> emit out)
  in
  (* [Sys_error] (e.g. broken pipe mid-response, read error) ends the
     session cleanly instead of escaping: client I/O failures are the
     client's problem, never the server's. *)
  try loop () with End_of_file | Sys_error _ -> ()
