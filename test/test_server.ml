(* The socket server: admission control and shedding, crash
   confinement (torn lines, oversized frames, broken pipes,
   mid-request disconnects), per-session determinism against serial
   replay (including under a chaos seed), deadlines, and graceful
   drain.

   Each test builds a real Unix-domain server on a fresh socket path
   and talks to it over real connections — the same code path
   `jsceres serve --socket` runs; the two stress rounds at the end run
   that built CLI itself, under `jsceres loadgen` and SIGTERM. *)

module Serve = Service.Serve
module Server = Service.Server
module Admission = Service.Admission

let socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jsceres-test-%d-%d.sock" (Unix.getpid ()) !n)

(* A server over a real service, running its accept loop on a
   background thread; [stop] drains it and asserts the clean exit. *)
let with_server ?(config_override = Fun.id) ?(jobs = 1) ?watchdog_ms f =
  Js_parallel.Telemetry.reset_counters ();
  let svc = Service.create ~jobs ?watchdog_ms () in
  let path = socket_path () in
  let server =
    Server.create ~config_override ~socket_path:path (Service.handler svc)
  in
  let runner = Thread.create (fun () -> Server.run server) () in
  let stop () =
    Server.begin_drain server;
    Thread.join runner;
    Service.shutdown svc
  in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f ~path ~server)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec try_connect n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      Thread.delay 0.02;
      try_connect (n - 1)
  in
  try_connect 100;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let roundtrip (_, ic, oc) line =
  send oc line;
  input_line ic

let close_client (_, _, oc) = try close_out oc with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)

let test_basic_roundtrip () =
  with_server (fun ~path ~server:_ ->
      let c = connect path in
      Alcotest.(check string) "ping" "{\"v\":1,\"ok\":true}"
        (roundtrip c "{\"op\":\"ping\"}");
      let resp = roundtrip c "{\"pass\":\"analyze\",\"workload\":\"MyScript\"}" in
      Alcotest.(check bool) "analyze answered" true
        (Helpers.contains ~sub:"\"workload\":\"MyScript\"" resp);
      let health = roundtrip c "{\"op\":\"health\"}" in
      Alcotest.(check bool) "socket health" true
        (Helpers.contains ~sub:"\"transport\":\"socket\"" health
         && Helpers.contains ~sub:"\"status\":\"ok\"" health);
      close_client c)

(* Crash confinement: a session feeding garbage, oversized frames, or
   tearing its connection mid-request never disturbs a well-behaved
   neighbour on the same server. *)
let test_confinement () =
  with_server
    ~config_override:(fun c -> { c with Server.max_request_bytes = 4096 })
    (fun ~path ~server ->
      let good = connect path in
      let bad = connect path in
      (* torn line: half a request, then gone *)
      let (_, _, bad_oc) = bad in
      output_string bad_oc "{\"pass\":\"ana";
      flush bad_oc;
      close_client bad;
      (* oversized frame on a second hostile session *)
      let bad2 = connect path in
      let resp =
        roundtrip bad2 (String.concat "" (List.init 5000 (fun _ -> "x")))
      in
      Alcotest.(check bool) "oversized answers bad-request" true
        (Helpers.contains ~sub:"bad-request" resp
         && Helpers.contains ~sub:"exceeds 4096 bytes" resp);
      (* bad JSON on the same session — still alive *)
      let resp = roundtrip bad2 "not json" in
      Alcotest.(check bool) "bad JSON answers error" true
        (Helpers.contains ~sub:"invalid JSON" resp);
      close_client bad2;
      (* the good session never noticed *)
      Alcotest.(check string) "good session alive" "{\"v\":1,\"ok\":true}"
        (roundtrip good "{\"op\":\"ping\"}");
      close_client good;
      (* the torn session was accounted *)
      let rec await n =
        if Js_parallel.Telemetry.(count sessions_dropped) >= 1 || n = 0 then ()
        else (Thread.delay 0.02; await (n - 1))
      in
      await 100;
      Alcotest.(check bool) "torn session counted dropped" true
        (Js_parallel.Telemetry.(count sessions_dropped) >= 1);
      ignore server)

(* No silent drops: with a zero-slot gate every execution request is
   shed with a structured overloaded response carrying retry_after_ms,
   while control ops still work. *)
let test_shedding () =
  with_server
    ~config_override:(fun c ->
      { c with Server.max_inflight = 0; queue_capacity = 0 })
    (fun ~path ~server:_ ->
      let c = connect path in
      let resp = roundtrip c "{\"pass\":\"analyze\",\"workload\":\"MyScript\"}" in
      Alcotest.(check bool) "structured overloaded" true
        (Helpers.contains ~sub:"\"code\":\"overloaded\"" resp
         && Helpers.contains ~sub:"\"retry_after_ms\":" resp);
      Alcotest.(check string) "ops bypass admission" "{\"v\":1,\"ok\":true}"
        (roundtrip c "{\"op\":\"ping\"}");
      close_client c;
      Alcotest.(check bool) "shed counted" true
        (Js_parallel.Telemetry.(count requests_shed) >= 1);
      Alcotest.(check int) "nothing admitted" 0
        (Js_parallel.Telemetry.(count requests_admitted)))

(* Loadgen percentiles cover well-behaved replies only: against a gate
   that sheds every execution request, the shed replies are counted
   but contribute no latency samples. *)
let test_loadgen_samples_ok_only () =
  with_server
    ~config_override:(fun c ->
      { c with Server.max_inflight = 0; queue_capacity = 0 })
    (fun ~path ~server:_ ->
      let r =
        Service.Loadgen.run
          { Service.Loadgen.socket_path = path; clients = 1;
            requests_per_client = 4; seed = 1; chaos_clients = false }
      in
      Alcotest.(check bool) "shed reported" true (r.shed > 0);
      Alcotest.(check int) "one sample per ok reply" r.ok r.samples)

(* Deadline: a watchdog budget small enough that real workloads
   overrun it turns into a workload-failed response naming the vclock
   budget, and the timed-out counter moves. *)
let test_deadline () =
  with_server ~watchdog_ms:1 (fun ~path ~server:_ ->
      let c = connect path in
      let resp = roundtrip c "{\"pass\":\"profile\",\"workload\":\"Ace\"}" in
      Alcotest.(check bool) "deadline overrun reported" true
        (Helpers.contains ~sub:"vclock budget exhausted" resp);
      close_client c;
      Alcotest.(check bool) "timed-out counter moved" true
        (Js_parallel.Telemetry.(count requests_timed_out) >= 1))

(* The per-session request mix the determinism tests replay: every
   pass of the protocol, over a couple of workloads, plus control
   ops wedged between (their responses are excluded from the
   comparison — cache stats legitimately depend on global order). *)
let session_mix client =
  let w = if client mod 2 = 0 then "MyScript" else "Sunspider" in
  [ Printf.sprintf "{\"pass\":\"analyze\",\"workload\":%S}" w;
    Printf.sprintf "{\"pass\":\"profile\",\"workload\":%S}" w;
    Printf.sprintf "{\"pass\":\"loops\",\"workload\":%S}" w;
    Printf.sprintf "{\"pass\":\"deps\",\"workload\":%S}" w;
    Printf.sprintf "{\"pass\":\"crossval\",\"workload\":%S}" w;
    Printf.sprintf "{\"pass\":\"pipeline\",\"workload\":%S}" w;
    Printf.sprintf "{\"pass\":\"analyze\",\"workload\":%S}" w;
    (* a batch line, exercising the pool fan-out path *)
    Printf.sprintf
      "[{\"pass\":\"analyze\",\"workload\":%S},{\"pass\":\"profile\",\"workload\":%S}]"
      w w ]

let replay_session path client =
  let c = connect path in
  let responses = List.map (roundtrip c) (session_mix client) in
  close_client c;
  responses

(* Determinism boundary: two clients running interleaved full-mix
   sessions get byte-identical per-session transcripts to running the
   same mixes serially against a fresh server. *)
let determinism_check ~chaos_seed () =
  let serial =
    Fun.protect
      ~finally:(fun () -> Js_parallel.Fault.disable ())
      (fun () ->
         (match chaos_seed with
          | Some seed -> Js_parallel.Fault.enable ~seed
          | None -> ());
         with_server ~jobs:2 (fun ~path ~server:_ ->
             List.map (replay_session path) [ 1; 2 ]))
  in
  let interleaved =
    Fun.protect
      ~finally:(fun () -> Js_parallel.Fault.disable ())
      (fun () ->
         (match chaos_seed with
          | Some seed -> Js_parallel.Fault.enable ~seed
          | None -> ());
         with_server ~jobs:2 (fun ~path ~server:_ ->
             let results = Array.make 2 [] in
             let threads =
               List.map
                 (fun client ->
                    Thread.create
                      (fun () ->
                         results.(client - 1) <- replay_session path client)
                      ())
                 [ 1; 2 ]
             in
             List.iter Thread.join threads;
             Array.to_list results))
  in
  List.iteri
    (fun i (serial_resps, inter_resps) ->
       List.iteri
         (fun j (s, p) ->
            Alcotest.(check string)
              (Printf.sprintf "client %d line %d identical" (i + 1) (j + 1))
              s p)
         (List.combine serial_resps inter_resps))
    (List.combine serial interleaved)

let test_determinism () = determinism_check ~chaos_seed:None ()
let test_determinism_chaos () = determinism_check ~chaos_seed:(Some 42) ()

(* Graceful drain via the protocol: {"op":"shutdown"} is acknowledged,
   the server stops accepting, run returns, and the socket file is
   gone. *)
let test_shutdown_op () =
  Js_parallel.Telemetry.reset_counters ();
  let svc = Service.create () in
  let path = socket_path () in
  let server = Server.create ~socket_path:path (Service.handler svc) in
  let runner = Thread.create (fun () -> Server.run server) () in
  let c = connect path in
  let ack = roundtrip c "{\"op\":\"shutdown\"}" in
  Alcotest.(check string) "shutdown acknowledged"
    "{\"v\":1,\"ok\":true,\"draining\":true}" ack;
  close_client c;
  Thread.join runner;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
  Service.shutdown svc

(* The socket stress rounds, end to end through the built CLI: a
   [jsceres serve --socket] child, a [jsceres loadgen] burst against it,
   then SIGTERM. [wait_bounded pid] is [pid]'s exit status, or [None]
   when it was still running after 60 s and had to be killed: a hang
   fails the test instead of stalling the suite. *)
let wait_bounded pid =
  let rec go n =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when n > 0 ->
      Unix.sleepf 0.05;
      go (n - 1)
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      None
    | _, st -> Some st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go n
  in
  go 1200

let spawn ?(stdout = Unix.stdout) args =
  let argv = Array.of_list (Helpers.jsceres :: args) in
  Unix.create_process Helpers.jsceres argv Unix.stdin stdout Unix.stderr

(* [f ~path ~drain] runs once the server's socket is bound; [drain ()]
   sends SIGTERM and returns the server's exit status. A server still
   running when [f] returns is drained. *)
let with_cli_server serve_args f =
  if not (Sys.file_exists Helpers.jsceres) then Alcotest.skip ();
  let path = socket_path () in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let pid = spawn ("serve" :: "--socket" :: path :: serve_args) in
  let status = ref None in
  let stop () =
    if !status = None then begin
      Unix.kill pid Sys.sigterm;
      status := Some (wait_bounded pid)
    end
  in
  let drain () =
    stop ();
    match !status with
    | Some (Some st) -> st
    | _ -> Alcotest.fail "server still running 60 s after SIGTERM"
  in
  let bound () =
    match Unix.stat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> true
    | _ | (exception Unix.Unix_error _) -> false
  in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let rec await n =
        if (not (bound ())) && n > 0 then begin
          Unix.sleepf 0.05;
          await (n - 1)
        end
      in
      await 100;
      if not (bound ()) then Alcotest.fail "server never bound its socket";
      f ~path ~drain)

(* One [loadgen] run against [path]: its exit status and its JSON
   report. *)
let loadgen path args =
  let out = Filename.temp_file "jsceres-loadgen" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let pid =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            spawn ~stdout:fd ("loadgen" :: "--socket" :: path :: args))
      in
      match wait_bounded pid with
      | Some st -> (st, Helpers.json (Helpers.read_file out))
      | None -> Alcotest.fail "loadgen still running after 60 s")

let check_exit what st =
  Alcotest.(check bool) (what ^ " exits 0") true (st = Unix.WEXITED 0)

(* A burst above a tiny admission gate sheds (> 0) without dropping a
   well-behaved exchange, and SIGTERM drains to exit 0 and unlinks the
   socket. *)
let test_cli_stress_shed_and_drain () =
  with_cli_server
    [ "-j"; "2"; "--max-inflight"; "1"; "--queue-capacity"; "0";
      "--deadline-ms"; "60000" ]
    (fun ~path ~drain ->
      let st, report = loadgen path [ "-c"; "8"; "-n"; "40" ] in
      check_exit "loadgen (no dropped connection)" st;
      Alcotest.(check bool) "burst above --max-inflight sheds" true
        (Helpers.int_at [ "shed" ] report > 0);
      Alcotest.(check int) "dropped connections" 0
        (Helpers.int_at [ "dropped_connections" ] report);
      check_exit "SIGTERM drain" (drain ());
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path))

(* Server-side transport faults and misbehaving clients under a chaos
   seed: well-behaved requests still complete (ok > 0), and the drain
   still exits 0. *)
let test_cli_stress_chaos () =
  with_cli_server
    [ "-j"; "2"; "--max-inflight"; "2"; "--queue-capacity"; "2";
      "--deadline-ms"; "60000"; "--chaos-seed"; "7"; "--chaos-transport" ]
    (fun ~path ~drain ->
      let _, report =
        loadgen path [ "-c"; "4"; "-n"; "25"; "-s"; "7"; "--chaos-clients" ]
      in
      Alcotest.(check bool) "a request survives the chaos round" true
        (Helpers.int_at [ "ok" ] report > 0);
      check_exit "chaos drain" (drain ()))

(* Satellite (a): Serve.serve must survive a Sys_error mid-response
   (broken pipe) instead of dying. The stdio loop writes into a closed
   pipe. *)
let test_serve_survives_broken_pipe () =
  Serve.ignore_sigpipe ();
  let svc = Service.create () in
  let h = Service.handler svc in
  let r_in, w_in = Unix.pipe () in
  let r_out, w_out = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r_in in
  let oc = Unix.out_channel_of_descr w_out in
  let feeder = Unix.out_channel_of_descr w_in in
  (* Close the read side before serve answers: the response write hits
     EPIPE. *)
  Unix.close r_out;
  output_string feeder "{\"op\":\"ping\"}\n";
  flush feeder;
  close_out feeder;
  (* Must return, not raise. *)
  Serve.serve h ic oc;
  (try close_in ic with Sys_error _ -> ());
  (try close_out oc with Sys_error _ -> ());
  Service.shutdown svc

(* Satellite (b): the bounded reader. *)
let test_read_line_bounded () =
  let feed s f =
    let path = Filename.temp_file "jsceres-bounded" ".txt" in
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc;
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove path)
      (fun () -> f ic)
  in
  feed "hello\nworld\n" (fun ic ->
      (match Serve.read_line_bounded ~max_bytes:64 ic with
       | Serve.Line l -> Alcotest.(check string) "first line" "hello" l
       | _ -> Alcotest.fail "expected Line");
      (match Serve.read_line_bounded ~max_bytes:64 ic with
       | Serve.Line l -> Alcotest.(check string) "second line" "world" l
       | _ -> Alcotest.fail "expected Line");
      match Serve.read_line_bounded ~max_bytes:64 ic with
      | Serve.Eof { partial } ->
        Alcotest.(check bool) "clean EOF" false partial
      | _ -> Alcotest.fail "expected Eof");
  feed
    (String.concat "" (List.init 100 (fun _ -> "y")) ^ "\nnext\n")
    (fun ic ->
       (match Serve.read_line_bounded ~max_bytes:10 ic with
        | Serve.Oversized -> ()
        | _ -> Alcotest.fail "expected Oversized");
       (* the tail of the hostile line was discarded to its newline *)
       match Serve.read_line_bounded ~max_bytes:10 ic with
       | Serve.Line l -> Alcotest.(check string) "resyncs after newline" "next" l
       | _ -> Alcotest.fail "expected Line after oversized");
  feed "torn-without-newline" (fun ic ->
      match Serve.read_line_bounded ~max_bytes:64 ic with
      | Serve.Eof { partial } ->
        Alcotest.(check bool) "torn EOF flagged" true partial
      | _ -> Alcotest.fail "expected torn Eof")

(* Satellite (b) continued: the stdio serve loop answers oversized
   lines with the structured bad-request instead of buffering them. *)
let test_stdio_oversized_guard () =
  let svc = Service.create () in
  let h = Service.handler svc in
  let r_in, w_in = Unix.pipe () in
  let r_out, w_out = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r_in in
  let oc = Unix.out_channel_of_descr w_out in
  let feeder = Unix.out_channel_of_descr w_in in
  let reader = Unix.in_channel_of_descr r_out in
  output_string feeder (String.concat "" (List.init 200 (fun _ -> "z")));
  output_string feeder "\n{\"op\":\"ping\"}\n";
  flush feeder;
  close_out feeder;
  let t = Thread.create (fun () -> Serve.serve ~max_request_bytes:100 h ic oc) () in
  let first = input_line reader in
  Alcotest.(check bool) "oversized line answered" true
    (Helpers.contains ~sub:"bad-request" first
     && Helpers.contains ~sub:"exceeds 100 bytes" first);
  Alcotest.(check string) "loop continues after oversize" "{\"v\":1,\"ok\":true}"
    (input_line reader);
  Thread.join t;
  (try close_in reader with Sys_error _ -> ());
  (try close_in ic with Sys_error _ -> ());
  (try close_out oc with Sys_error _ -> ());
  Service.shutdown svc

(* Satellite (c): shutdown and health ops on the stdio path. *)
let test_stdio_shutdown_and_health () =
  let svc = Service.create () in
  let h = Service.handler svc in
  (match h.Serve.health () with
   | doc ->
     let s = Service.Json.to_string doc in
     Alcotest.(check bool) "stdio health doc" true
       (Helpers.contains ~sub:"\"transport\":\"stdio\"" s));
  (match Service.Serve.handle_line h "{\"op\":\"health\"}" with
   | Serve.Reply l ->
     Alcotest.(check bool) "health reply" true
       (Helpers.contains ~sub:"\"status\":\"ok\"" l)
   | _ -> Alcotest.fail "health must reply");
  (match Service.Serve.handle_line h "{\"op\":\"shutdown\"}" with
   | Serve.Stop l ->
     Alcotest.(check string) "shutdown stops the loop"
       "{\"v\":1,\"ok\":true,\"draining\":true}" l
   | _ -> Alcotest.fail "shutdown must stop");
  Service.shutdown svc

(* The admission gate in isolation: slot accounting, queue bound,
   drain shedding. *)
let test_admission_gate () =
  let g = Admission.create ~max_inflight:1 ~queue_capacity:0 in
  (match Admission.acquire g with
   | Admission.Admitted -> ()
   | Admission.Shed _ -> Alcotest.fail "first acquire must admit");
  (match Admission.acquire g with
   | Admission.Shed { retry_after_ms } ->
     Alcotest.(check bool) "positive retry hint" true (retry_after_ms > 0)
   | Admission.Admitted -> Alcotest.fail "second acquire must shed");
  Admission.release g;
  (match Admission.acquire g with
   | Admission.Admitted -> Admission.release g
   | Admission.Shed _ -> Alcotest.fail "freed slot must admit");
  (* queued waiter is woken and shed by drain *)
  let g2 = Admission.create ~max_inflight:1 ~queue_capacity:4 in
  (match Admission.acquire g2 with
   | Admission.Admitted -> ()
   | Admission.Shed _ -> Alcotest.fail "admit");
  let waiter_result = ref None in
  let t =
    Thread.create (fun () -> waiter_result := Some (Admission.acquire g2)) ()
  in
  let rec wait_for_queue n =
    if Admission.waiting g2 = 0 && n > 0 then (Thread.delay 0.01; wait_for_queue (n - 1))
  in
  wait_for_queue 200;
  Admission.begin_drain g2;
  Thread.join t;
  (match !waiter_result with
   | Some (Admission.Shed _) -> ()
   | _ -> Alcotest.fail "drain must shed the queued waiter");
  Admission.release g2

(* Telemetry surfacing: the {"op":"telemetry"} snapshot carries the
   server counter section. *)
let test_telemetry_server_section () =
  Js_parallel.Telemetry.reset_counters ();
  let svc = Service.create () in
  let h = Service.handler svc in
  (match Service.Serve.handle_line h "{\"op\":\"telemetry\"}" with
   | Serve.Reply l ->
     Alcotest.(check bool) "server section present" true
       (Helpers.contains ~sub:"\"server\":{\"requests_admitted\":" l
        && Helpers.contains ~sub:"\"sessions_dropped\":" l)
   | _ -> Alcotest.fail "telemetry must reply");
  Service.shutdown svc

let suite =
  [ Alcotest.test_case "socket roundtrip + health" `Slow test_basic_roundtrip;
    Alcotest.test_case "session crash confinement" `Slow test_confinement;
    Alcotest.test_case "admission sheds with structure" `Slow test_shedding;
    Alcotest.test_case "loadgen samples ok replies only" `Slow
      test_loadgen_samples_ok_only;
    Alcotest.test_case "deadline via vclock watchdog" `Slow test_deadline;
    Alcotest.test_case "interleaved = serial transcripts" `Slow
      test_determinism;
    Alcotest.test_case "interleaved = serial under chaos" `Slow
      test_determinism_chaos;
    Alcotest.test_case "shutdown op drains and exits" `Slow test_shutdown_op;
    Alcotest.test_case "CLI stress: shed, 0 dropped, SIGTERM drain" `Slow
      test_cli_stress_shed_and_drain;
    Alcotest.test_case "CLI stress under chaos: ok > 0, drain" `Slow
      test_cli_stress_chaos;
    Alcotest.test_case "serve survives broken pipe" `Quick
      test_serve_survives_broken_pipe;
    Alcotest.test_case "bounded line reader" `Quick test_read_line_bounded;
    Alcotest.test_case "stdio oversized-line guard" `Quick
      test_stdio_oversized_guard;
    Alcotest.test_case "stdio shutdown + health ops" `Quick
      test_stdio_shutdown_and_health;
    Alcotest.test_case "admission gate unit" `Quick test_admission_gate;
    Alcotest.test_case "telemetry server section" `Quick
      test_telemetry_server_section ]
