(* Load generator for the socket server: N client threads each replay
   a deterministic mixed-pass request stream (a pure function of the
   seed and the client index) and record per-request latencies.

   With [chaos_clients] set, a seed-keyed fraction of the requests
   misbehave the way real clients do — torn request lines, disconnects
   before reading the answer, slow-loris byte-at-a-time writes — and
   the client reconnects afterwards; the point is to prove those
   sessions are confined server-side while the report's well-behaved
   requests still complete.

   [dropped_connections] counts only drops the *server* inflicted on a
   well-behaved exchange (EOF or I/O error where a response line was
   owed). Drops the client inflicted on purpose are counted as
   [client_faults]: the acceptance bar is [dropped_connections = 0]
   even under a chaos run. *)

type config = {
  socket_path : string;
  clients : int;
  requests_per_client : int;
  seed : int;
  chaos_clients : bool;
}

type report = {
  sent : int;
  ok : int;
  shed : int;
  errors : int;
  timed_out : int;
  dropped_connections : int;
  client_faults : int;
  wall_ms : float;
  throughput_rps : float;
  samples : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Deterministic request stream *)

let passes = [| "profile"; "loops"; "analyze"; "pipeline"; "deps"; "crossval" |]

let request_line ~seed ~client ~request =
  let p =
    Ceres_util.Prng.create
      (Int64.logxor
         (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (seed + 1)))
         (Int64.of_int ((client * 1_000_003) + request)))
  in
  let names = Array.of_list Workloads.Registry.names in
  let workload = Ceres_util.Prng.pick p names in
  let pass = Ceres_util.Prng.pick p passes in
  Printf.sprintf "{\"pass\": %S, \"workload\": %S}" pass workload

(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

type outcome = Ok_resp | Shed_resp | Timed_out_resp | Error_resp

let classify line =
  if contains ~sub:"\"overloaded\"" line then Shed_resp
  else if contains ~sub:"vclock budget exhausted" line then Timed_out_resp
  else if contains ~sub:"\"error\"" line then Error_resp
  else Ok_resp

type client_tally = {
  mutable c_sent : int;
  mutable c_ok : int;
  mutable c_shed : int;
  mutable c_errors : int;
  mutable c_timed_out : int;
  mutable c_dropped : int;
  mutable c_faults : int;
  mutable c_latencies : float list; (* ms, [Ok_resp] exchanges only *)
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    Some (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  with Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None

let close_conn (_, _, oc) = try close_out oc with Sys_error _ -> ()

let run_client cfg ~client tally =
  let conn = ref (connect cfg.socket_path) in
  let reconnect () =
    (match !conn with Some c -> close_conn c | None -> ());
    conn := connect cfg.socket_path
  in
  for request = 1 to cfg.requests_per_client do
    let line = request_line ~seed:cfg.seed ~client ~request in
    let action =
      if cfg.chaos_clients then
        Js_parallel.Fault.client_plan ~seed:cfg.seed ~client ~request
      else Js_parallel.Fault.Client_ok
    in
    tally.c_sent <- tally.c_sent + 1;
    match !conn with
    | None ->
      (* Could not (re)connect: the server refused us a socket — that
         is a real drop. *)
      tally.c_dropped <- tally.c_dropped + 1;
      reconnect ()
    | Some ((_, ic, oc) as c) -> (
        match action with
        | Js_parallel.Fault.Client_torn ->
          (* Half a line, no newline, gone. The server must account a
             torn session without disturbing anyone else. *)
          tally.c_faults <- tally.c_faults + 1;
          (try
             output_string oc (String.sub line 0 (String.length line / 2));
             flush oc
           with Sys_error _ -> ());
          close_conn c;
          conn := connect cfg.socket_path
        | Js_parallel.Fault.Client_disconnect ->
          (* Full request, but vanish before reading the response:
             the server's write hits a broken pipe mid-response. *)
          tally.c_faults <- tally.c_faults + 1;
          (try
             output_string oc line;
             output_char oc '\n';
             flush oc
           with Sys_error _ -> ());
          close_conn c;
          conn := connect cfg.socket_path
        | Js_parallel.Fault.Client_ok | Js_parallel.Fault.Client_slow -> (
            let t0 = Unix.gettimeofday () in
            let sent_ok =
              try
                (match action with
                 | Js_parallel.Fault.Client_slow ->
                   (* Slow-loris: dribble the bytes. The server's
                      per-session thread blocks on *this* session
                      only; nobody else waits behind us. *)
                   String.iter
                     (fun ch ->
                        output_char oc ch;
                        flush oc;
                        Thread.delay 0.0005)
                     line
                 | _ -> output_string oc line);
                output_char oc '\n';
                flush oc;
                true
              with Sys_error _ -> false
            in
            if not sent_ok then begin
              tally.c_dropped <- tally.c_dropped + 1;
              reconnect ()
            end
            else
              match input_line ic with
              | resp ->
                let dt = (Unix.gettimeofday () -. t0) *. 1000. in
                (* shed, failed and timed-out replies return early and
                   would drag the percentiles down: not samples *)
                (match classify resp with
                 | Ok_resp ->
                   tally.c_ok <- tally.c_ok + 1;
                   tally.c_latencies <- dt :: tally.c_latencies
                 | Shed_resp -> tally.c_shed <- tally.c_shed + 1
                 | Timed_out_resp ->
                   tally.c_timed_out <- tally.c_timed_out + 1
                 | Error_resp -> tally.c_errors <- tally.c_errors + 1)
              | exception (End_of_file | Sys_error _) ->
                tally.c_dropped <- tally.c_dropped + 1;
                reconnect ()))
  done;
  match !conn with Some c -> close_conn c | None -> ()

(* ------------------------------------------------------------------ *)

let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
    let idx = int_of_float (Float.of_int (n - 1) *. q +. 0.5) in
    sorted.(max 0 (min (n - 1) idx))

let run cfg =
  (* Chaos rounds make the server close sockets under us mid-write;
     that must surface as [Sys_error] per client, not kill the whole
     generator. *)
  Serve.ignore_sigpipe ();
  let tallies =
    Array.init cfg.clients (fun _ ->
        { c_sent = 0; c_ok = 0; c_shed = 0; c_errors = 0; c_timed_out = 0;
          c_dropped = 0; c_faults = 0; c_latencies = [] })
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    Array.to_list
      (Array.mapi
         (fun i tally ->
            Thread.create (fun () -> run_client cfg ~client:(i + 1) tally) ())
         tallies)
  in
  List.iter Thread.join threads;
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let latencies =
    Array.of_list
      (Array.fold_left (fun acc t -> t.c_latencies @ acc) [] tallies)
  in
  Array.sort compare latencies;
  let sent = sum (fun t -> t.c_sent) in
  { sent;
    ok = sum (fun t -> t.c_ok);
    shed = sum (fun t -> t.c_shed);
    errors = sum (fun t -> t.c_errors);
    timed_out = sum (fun t -> t.c_timed_out);
    dropped_connections = sum (fun t -> t.c_dropped);
    client_faults = sum (fun t -> t.c_faults);
    wall_ms;
    throughput_rps =
      (if wall_ms > 0. then float_of_int sent /. (wall_ms /. 1000.) else 0.);
    samples = Array.length latencies;
    p50_ms = percentile latencies 0.50;
    p95_ms = percentile latencies 0.95;
    p99_ms = percentile latencies 0.99;
    max_ms = percentile latencies 1.0 }

let report_json (r : report) : Ceres_util.Json.t =
  Obj
    [ ("sent", Int r.sent);
      ("ok", Int r.ok);
      ("shed", Int r.shed);
      ("errors", Int r.errors);
      ("timed_out", Int r.timed_out);
      ("dropped_connections", Int r.dropped_connections);
      ("client_faults", Int r.client_faults);
      ("wall_ms", Fixed (1, r.wall_ms));
      ("throughput_rps", Fixed (1, r.throughput_rps));
      ("samples", Int r.samples);
      ( "latency_ms",
        Obj
          [ ("p50", Fixed (2, r.p50_ms));
            ("p95", Fixed (2, r.p95_ms));
            ("p99", Fixed (2, r.p99_ms));
            ("max", Fixed (2, r.max_ms)) ] ) ]
