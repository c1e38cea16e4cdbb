(** Unified request/response core of the reproduction.

    Every consumer — the [jsceres] CLI subcommands, [jsceres serve],
    [bench/main] — builds a {!Request.t} and hands it to {!run}; the
    core routes it through the existing stack ({!Js_parallel.Supervisor}
    for fault isolation and retries, {!Js_parallel.Pool} for batched
    fan-out, {!Js_parallel.Telemetry} for observability), consults the
    LRU {!Cache} keyed on [(workload source digest, pass, config)],
    and returns a {!Response.t} the caller renders (legacy CLI text or
    protocol JSON). This is the seam future scaling work (sharding,
    multi-backend) plugs into: callers never touch the plumbing. *)

module Json = Ceres_util.Json
module Request = Request
module Response = Response
module Cache = Cache
module Batcher = Batcher
module Serve = Serve
module Admission = Admission
module Server = Server
module Loadgen = Loadgen

(** {1 Exit codes}

    The repo-wide CLI convention, asserted by the test suite: *)

module Exit : sig
  val ok : int
  (** 0 — success *)

  val operational_error : int
  (** 1 — unknown workload, failed workload, bad request *)

  val verdict : int
  (** 2 — analysis verdict: some analyzed loop is sequential *)
end

type t

val create :
  ?jobs:int ->
  ?retries:int ->
  ?watchdog_ms:int ->
  ?cache_capacity:int ->
  unit ->
  t
(** [jobs] (default 1): [> 1] spawns a work-stealing pool that batched
    requests fan out over. [retries] (default 1) re-attempts after
    transient failures. [watchdog_ms] is the per-request virtual-time
    budget (see {!Js_parallel.Supervisor.run}). [cache_capacity]
    (default 128) bounds the result cache. *)

val jobs : t -> int

val run : t -> Request.t -> Response.t
(** Serve one request: cache probe, then supervised execution on a
    miss (successful responses are cached; failures are not, so a
    transient fault cannot poison the cache). A hit returns the cached
    record itself, so the protocol line {!Response.line} kept on it is
    rendered once for all hits; [run] renders nothing. Never raises —
    unknown workloads and workload crashes come back as error
    responses. *)

val run_batch : t -> Request.t list -> Response.t list
(** Serve a wave: each request is cache-probed in order, the distinct
    misses are deduplicated and fanned out over the pool via
    {!Batcher}, and responses come back in request order (duplicates
    share one execution). Equivalent to mapping {!run} — the qcheck
    suite asserts response-level equality. *)

val cache_stats : t -> Cache.stats

val pool_stats : t -> Js_parallel.Telemetry.pool_stats option
(** Scheduling telemetry of the batch pool, when [jobs > 1]. *)

val handler : t -> Serve.handler
(** The JSONL protocol handler over this service (see {!Serve}). *)

val serve_channels :
  ?max_request_bytes:int -> t -> in_channel -> out_channel -> unit
(** Run the [jsceres serve] loop until EOF, an acknowledged
    [{"op":"shutdown"}], or a client I/O failure. *)

val shutdown : t -> unit
(** Shut the batch pool down (idempotent). The cache survives; [run]
    keeps working sequentially afterwards. *)
