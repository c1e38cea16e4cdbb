(** Load generator for the socket server: [clients] threads each
    replay [requests_per_client] requests of a deterministic
    mixed-pass stream (a pure function of [seed] and the client
    index), measuring per-request latency.

    With [chaos_clients], a seed-keyed fraction of requests misbehave
    — torn request lines, disconnect-before-read, slow-loris writes —
    and the client reconnects; well-behaved requests must still
    complete. [dropped_connections] counts only server-inflicted
    drops of well-behaved exchanges (the acceptance bar is zero,
    chaos or not); intentional client misbehaviour is counted
    separately as [client_faults]. *)

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
  shed : int;  (** structured [overloaded] answers *)
  errors : int;  (** other error responses *)
  timed_out : int;  (** deadline (vclock watchdog) failures *)
  dropped_connections : int;  (** server-inflicted, well-behaved exchanges *)
  client_faults : int;  (** drops this generator inflicted on purpose *)
  wall_ms : float;
  throughput_rps : float;
  samples : int;  (** latency samples: one per [ok] reply *)
  p50_ms : float;  (** percentiles over the [ok] replies only *)
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

val run : ?reply_timeout_s:float -> config -> report
(** Blocks until every client finishes its stream. A client waits at
    most [reply_timeout_s] seconds (default 30) for each reply; a wait
    that expires counts as a dropped connection, and the client
    reconnects. Tests shorten the deadline; the CLI keeps the
    default. *)

val report_json : report -> Ceres_util.Json.t

