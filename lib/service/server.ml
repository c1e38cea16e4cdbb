(* Unix-domain socket front-end: N concurrent client sessions
   multiplexed over one service, structured as an explicit

     accept -> parse -> admit -> execute -> respond

   pipeline. Sessions are systhreads (the pool's domains stay
   dedicated to workload fan-out); per-request supervision state is
   thread-local ([Js_parallel.Tls]), so concurrent sessions cannot
   stomp each other's watchdog budgets or chaos sessions.

   Robustness invariants, each exercised by tests:
   - crash confinement: a torn line, oversized frame, bad JSON, or
     mid-request disconnect ends (or answers on) *that* session only;
   - no silent drops: a request the server will not run is answered
     with a structured [overloaded] line carrying [retry_after_ms];
   - graceful drain: SIGTERM or [{"op":"shutdown"}] stops accepting,
     lets in-flight work finish (shedding queued work), force-closes
     stragglers at the drain budget, and exits 0. *)

module Telemetry = Js_parallel.Telemetry
module Fault = Js_parallel.Fault

type config = {
  socket_path : string;
  max_inflight : int;
  queue_capacity : int;
  drain_ms : int;
  max_request_bytes : int;
  max_sessions : int;
  chaos_transport : bool;
}

let default_config ~socket_path =
  { socket_path;
    max_inflight = 4;
    queue_capacity = 16;
    drain_ms = 2000;
    max_request_bytes = Serve.default_max_request_bytes;
    max_sessions = 64;
    chaos_transport = false }

type t = {
  config : config;
  handler : Serve.handler;
  admission : Admission.t;
  listen_fd : Unix.file_descr;
  stop_flag : bool Atomic.t;
  conn_counter : int Atomic.t;
  reg_m : Mutex.t;
  live : (int, Unix.file_descr) Hashtbl.t; (* conn -> session fd *)
  mutable threads : Thread.t list;
}

exception End_session

let register t conn fd thread =
  Mutex.lock t.reg_m;
  Hashtbl.replace t.live conn fd;
  t.threads <- thread :: t.threads;
  Mutex.unlock t.reg_m

let unregister t conn =
  Mutex.lock t.reg_m;
  Hashtbl.remove t.live conn;
  Mutex.unlock t.reg_m

let live_sessions t =
  Mutex.lock t.reg_m;
  let n = Hashtbl.length t.live in
  Mutex.unlock t.reg_m;
  n

let health_doc t () : Ceres_util.Json.t =
  Obj
    [ ( "status",
        Str (if Atomic.get t.stop_flag then "draining" else "ok") );
      ("transport", Str "socket");
      ("inflight", Int (Admission.inflight t.admission));
      ("queued", Int (Admission.waiting t.admission));
      ("sessions", Int (live_sessions t)) ]

let shed_line retry_after_ms =
  Response.line
    (Response.overloaded ~retry_after_ms "server overloaded; retry later")

(* ------------------------------------------------------------------ *)
(* One client session. *)

let run_session t conn fd =
  let handler = { t.handler with health = health_doc t } in
  let plan =
    if t.config.chaos_transport then Fault.transport_plan ~conn else None
  in
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  let sent = ref 0 in
  let dropped = ref false in
  let chaos_key = Printf.sprintf "conn-%d" conn in
  let cut site n =
    dropped := true;
    (try Fault.fire site chaos_key n with Fault.Injected _ -> ());
    raise End_session
  in
  (* Respond, with the chaos plan's transport faults woven in: tearing
     the Nth response mid-write, or cutting the connection right after
     it — exactly what a crashing peer or flaky link does to us. *)
  let emit line =
    incr sent;
    match plan with
    | Some { Fault.torn_after = Some n; _ } when n = !sent ->
      output_string oc (String.sub line 0 (String.length line / 2));
      flush oc;
      cut Fault.Torn n
    | _ ->
      output_string oc line;
      output_char oc '\n';
      flush oc;
      (match plan with
       | Some { Fault.disconnect_after = Some n; _ } when n = !sent ->
         cut Fault.Disconnect n
       | _ -> ())
  in
  let rec loop () =
    match
      Serve.read_line_bounded ~max_bytes:t.config.max_request_bytes ic
    with
    | Serve.Eof { partial } -> if partial then dropped := true
    | Serve.Oversized ->
      emit (Serve.oversized_line t.config.max_request_bytes);
      loop ()
    | Serve.Line raw ->
      let line = String.trim raw in
      if line = "" then loop ()
      else (
        match Ceres_util.Json.of_string line with
        | Error msg ->
          emit (Serve.error_line Response.Bad_request ("invalid JSON: " ^ msg));
          loop ()
        | Ok doc ->
          if Serve.is_op doc then (
            (* Control ops bypass admission: health checks and drain
               requests must work precisely when the gate is full. *)
            match Serve.handle_doc handler doc with
            | Serve.No_reply -> loop ()
            | Serve.Reply out ->
              emit out;
              loop ()
            | Serve.Stop out ->
              emit out;
              Atomic.set t.stop_flag true)
          else (
            match Admission.acquire t.admission with
            | Admission.Shed { retry_after_ms } ->
              emit (shed_line retry_after_ms);
              loop ()
            | Admission.Admitted ->
              let step =
                Fun.protect
                  ~finally:(fun () -> Admission.release t.admission)
                  (fun () -> Serve.handle_doc handler doc)
              in
              (match step with
               | Serve.No_reply -> loop ()
               | Serve.Reply out ->
                 emit out;
                 loop ()
               | Serve.Stop out -> emit out)))
  in
  (try loop () with
   | End_session -> ()
   | End_of_file | Sys_error _ ->
     (* The client vanished or the drain force-closed us: this
        session's problem alone. *)
     dropped := true
   | exn ->
     dropped := true;
     prerr_endline
       (Printf.sprintf "jsceres: session %d died: %s" conn
          (Printexc.to_string exn)));
  if !dropped then Telemetry.(incr sessions_dropped);
  unregister t conn;
  (* [close_out] flushes and closes the shared fd; the input channel
     must not be closed too (double-close of a numbered fd races with
     fd reuse in other threads). *)
  (try close_out oc with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)

let listen_socket path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let create ?(config_override = Fun.id) ~socket_path handler =
  let config = config_override (default_config ~socket_path) in
  Serve.ignore_sigpipe ();
  { config;
    handler;
    admission =
      Admission.create ~max_inflight:config.max_inflight
        ~queue_capacity:config.queue_capacity;
    listen_fd = listen_socket config.socket_path;
    stop_flag = Atomic.make false;
    conn_counter = Atomic.make 0;
    reg_m = Mutex.create ();
    live = Hashtbl.create 16;
    threads = [] }

let begin_drain t = Atomic.set t.stop_flag true
let draining t = Atomic.get t.stop_flag

(* Turn away an accepted connection we will not serve (session cap
   reached): still a structured answer, never a silent close. *)
let refuse_session fd =
  let oc = Unix.out_channel_of_descr fd in
  (try
     output_string oc (shed_line 100);
     output_char oc '\n';
     flush oc
   with Sys_error _ -> ());
  Telemetry.(incr requests_shed);
  (try close_out oc with Sys_error _ -> ())

let accept_loop t =
  let rec go () =
    if Atomic.get t.stop_flag then ()
    else
      let readable =
        (* Poll so a drain flag set by a signal handler (which cannot
           do more than set the flag) is noticed within 50ms. *)
        match Unix.select [ t.listen_fd ] [] [] 0.05 with
        | [], _, _ -> false
        | _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      if (not readable) || Atomic.get t.stop_flag then go ()
      else (
        match Unix.accept t.listen_fd with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> go ()
        | fd, _ ->
          let conn = 1 + Atomic.fetch_and_add t.conn_counter 1 in
          let doomed =
            t.config.chaos_transport
            &&
            match Fault.transport_plan ~conn with
            | Some p -> p.Fault.doomed_accept
            | None -> false
          in
          if doomed then begin
            (* The chaos plan kills this connection at the door — the
               client sees a clean close before any byte. *)
            (try
               Fault.fire Fault.Accept (Printf.sprintf "conn-%d" conn) 1
             with Fault.Injected _ -> ());
            Telemetry.(incr sessions_dropped);
            (try Unix.close fd with Unix.Unix_error _ -> ());
            go ()
          end
          else if live_sessions t >= t.config.max_sessions then begin
            refuse_session fd;
            go ()
          end
          else begin
            let thread = Thread.create (fun () -> run_session t conn fd) () in
            register t conn fd thread;
            go ()
          end)
  in
  go ()

let drain t =
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ());
  (* Queued requests are shed immediately; only in-flight work is owed
     the drain budget. *)
  Admission.begin_drain t.admission;
  let deadline =
    Unix.gettimeofday () +. (float_of_int t.config.drain_ms /. 1000.)
  in
  while live_sessions t > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  (* Budget spent: force-close the stragglers' sockets. Their session
     loops surface [Sys_error]/EOF, count themselves dropped, and
     exit; the joins below then terminate. *)
  Mutex.lock t.reg_m;
  let stragglers = Hashtbl.fold (fun _ fd acc -> fd :: acc) t.live [] in
  let threads = t.threads in
  Mutex.unlock t.reg_m;
  List.iter
    (fun fd ->
       try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    stragglers;
  List.iter Thread.join threads

let run t =
  (* Signal handlers may only flip the flag; the polling accept loop
     does the actual draining on its own thread. *)
  let previous =
    List.map
      (fun sg ->
         try (sg, Some (Sys.signal sg (Sys.Signal_handle (fun _ -> begin_drain t))))
         with Invalid_argument _ | Sys_error _ -> (sg, None))
      [ Sys.sigterm; Sys.sigint ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (sg, prev) ->
           match prev with
           | Some b -> ( try Sys.set_signal sg b with _ -> ())
           | None -> ())
        previous)
    (fun () ->
       accept_loop t;
       drain t)
