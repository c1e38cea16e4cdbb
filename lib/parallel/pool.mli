(** Work-stealing pool of OCaml 5 domains with chunked data-parallel
    loops and scheduling telemetry.

    The paper's thesis is that emerging web workloads have latent *data*
    parallelism; this pool is the substrate {!Par_exec} uses to
    actually run the apps' statically proven loop nests in parallel and
    measure the speedups that Table 3 and the Amdahl discussion
    predict.

    Scheduling is dynamic: [parallel_for] deals fixed-size index chunks
    round-robin onto one deque per participant; owners pop their share
    LIFO, idle participants steal FIFO (oldest first) from the others,
    so divergent iteration costs — the paper's "control-flow
    divergence" column — load-balance automatically. A participant
    with nothing to run spins for {!spin_window} rounds and then parks
    until work is pushed, a loop it waits on completes, or the pool
    shuts down; it never sleep-polls. Every scheduling event (task
    executions, steal attempts and successes, idle spins and parks,
    per-loop wall/fork/join times) is counted by {!Telemetry} and
    exportable as JSON via {!stats}. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (the
    caller is the remaining participant). [domains] defaults to
    [Domain.recommended_domain_count ()], and is clamped to at least
    1. *)

val size : t -> int
(** Number of participants (workers + caller). *)

val spin_window : int
(** Spins an idle participant makes before it parks. One idle wait
    counts at most [spin_window + 1] idle spins: the spins, then the
    park. *)

val shutdown : t -> unit
(** Drain every deque and join all workers. The pool must not be used
    afterwards. Idempotent and safe to race: exactly one caller
    performs the join. *)

val parallel_for : t -> lo:int -> hi:int -> ?chunk:int -> (int -> unit) -> unit
(** [parallel_for t ~lo ~hi f] runs [f i] for every [lo <= i < hi],
    distributing chunks over all participants and returning when all
    iterations completed. If any [f i] raises, one such exception is
    re-raised in the caller after the loop drains (remaining chunks are
    cancelled). [chunk] defaults to a size yielding ~8 chunks per
    participant. This is the only way to run work on the pool. *)

val stats : t -> Telemetry.pool_stats
(** Snapshot of the scheduling telemetry: per-participant task/steal/
    idle counters and recent per-loop fork/join timings. *)

val reset_stats : t -> unit
(** Zero this pool's participant counters and loop log (e.g. between
    bench sections). The process-wide registry is left alone;
    {!Telemetry.reset_counters} zeroes it. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** Create, run, and always shut down. *)
