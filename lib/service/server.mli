(** Unix-domain socket front-end for the service: N concurrent client
    sessions (one systhread each) speaking the {!Serve} JSONL
    protocol, multiplexed over one service instance.

    The request path is an explicit accept → parse → admit → execute
    → respond pipeline with three robustness guarantees:

    - {b crash confinement}: torn lines, oversized frames, bad JSON
      and mid-request disconnects are confined to their session;
    - {b no silent drops}: requests the server will not run (queue
      full, draining, session cap) get a structured [overloaded]
      response with a [retry_after_ms] hint;
    - {b graceful drain}: SIGTERM/SIGINT or a client's
      [{"op":"shutdown"}] stops accepting, finishes in-flight work,
      sheds queued work, force-closes stragglers when the drain
      budget [drain_ms] runs out, and {!run} returns (exit 0).

    Control ops bypass admission; execution requests pass through the
    {!Admission} gate, and every decision is visible in the
    registry's server counters ({!Js_parallel.Telemetry}:
    [requests_admitted]/[shed]/[timed_out], [sessions_dropped]).

    With [chaos_transport] set, deterministic seed-keyed transport
    faults ({!Js_parallel.Fault.transport_plan}) are injected:
    connections doomed at accept, responses torn mid-write,
    mid-response disconnects — keyed on the accept ordinal. *)

type config = {
  socket_path : string;
  max_inflight : int;  (** concurrent executing requests (default 4) *)
  queue_capacity : int;  (** waiters beyond that before shedding (16) *)
  drain_ms : int;  (** grace for in-flight work at drain (2000) *)
  max_request_bytes : int;  (** per-line bound ({!Serve.default_max_request_bytes}) *)
  max_sessions : int;  (** concurrent client connections (64) *)
  chaos_transport : bool;  (** inject seed-keyed transport faults *)
}

type t

val create :
  ?config_override:(config -> config) -> socket_path:string ->
  Serve.handler -> t
(** Binds and listens on [socket_path] (unlinking any stale socket
    file first). The handler's [health] field is replaced with the
    server's own socket-transport health document. Raises
    [Unix.Unix_error] if the socket cannot be bound. *)

val run : t -> unit
(** Accept loop until drain is requested (signal or shutdown op),
    then drain: stop accepting, unlink the socket, shed the queue,
    wait up to [drain_ms] for live sessions, force-close stragglers,
    join every session thread. Returns normally — the caller owns the
    exit code. *)

val begin_drain : t -> unit
(** Request drain from outside (used by tests); idempotent. *)

val draining : t -> bool
