(** Parallel execution of statically-proven loop nests.

    Closes the loop between the static analyzer's [Parallel]/[Reduction]
    verdicts and the work-stealing pool: an interpreter hook intercepts
    eligible [For] nests, partitions the iteration space into chunks and
    runs each chunk in place on the master heap ({!Interp.Fork}), on a
    private copy of the loop's frame, behind a write barrier that lets
    through only overwrites of existing array elements. The frame
    copies are written back in chunk order.
    Reductions are executed per operator: order-insensitive folds
    (min/max/bitwise, [+] over proven exact integers) seed each chunk
    with the operator identity and combine the partials exactly once
    in ascending chunk order; order-sensitive float [+] accumulators
    with a single accumulation site replay a per-iteration journal in
    global order, reproducing the sequential fold bit-for-bit;
    products and unrecognized operators never run in parallel. Any
    condition the commit cannot prove deterministic — a write the
    barrier refuses, host access, timers, [Math.random], clock reads,
    abrupt completions, bound drift, an element two chunks wrote —
    poisons the instance: the written arrays are restored from their
    snapshots and the master re-runs the loop sequentially, so
    observable output is byte-identical to sequential execution by
    construction. A nest whose proof declares an anti dependence
    ([war_roots]) never runs in chunks: one chunk could read an element
    another overwrites.

    Each parallel instance runs one chunk per pool participant (two at
    [-j 1]). A deterministic work gate keeps instances too small to
    repay the pool hand-off on the plain interpreter: a nest's first
    instance prices one trip on the master, and every instance runs in
    chunks only when its predicted busy vticks reach a fixed
    break-even. *)

type mode =
  | Measure
      (** run eligible nests sequentially but individually timed — the
          per-nest baseline for the speedup table *)
  | Parallel of Pool.t  (** chunked execution on the given pool *)

type t

val create : ?break_even:int -> mode:mode -> jobs:int -> unit -> t
(** An instance needs at least 4 trips (two chunks of two) to run in
    parallel or be timed in [Measure] mode. In [Parallel] mode, the
    first such instance of a nest runs one trip on the master, as the
    plain interpreter would, and its busy vticks price a trip. Every
    instance then forks only when the nest's busy vticks per priced
    trip times the trips left (at least 4) reach [break_even] (default
    100k vticks, derivation in DESIGN.md §11); otherwise it runs on the
    plain interpreter and counts as [refused]. [~break_even:0] forks
    every eligible instance after the probe trip, for tests that drive
    the chunked path on small programs. *)

val install : t -> Interp.Value.state -> report:Analysis.Driver.report -> unit
(** Install the [on_loop] hook on [st], planning every nest the report
    proves [Parallel] or [Reduction]. *)

val nests_run : t -> int
(** Distinct nests that completed at least one parallel instance. *)

val stats_json : ?pool:Pool.t -> t -> string
(** Per-nest telemetry — instances, chunks, iterations, fork/diff/merge
    wall-clock, fallbacks and their poison reasons, gate refusals with the break-even they
    were judged against, attributed busy vticks, the probe trip that
    priced the nest — plus the pool
    counters when [pool] is given. *)

(**/**)

type nest_stats = {
  mutable instances : int;
  mutable seq_instances : int;
  mutable iterations : int;
  mutable chunks : int;
  mutable par_ms : float;
  mutable seq_ms : float;
  mutable fork_ms : float;
      (** per-chunk set-up (its state and frame copy), summed over
          chunks *)
  mutable diff_ms : float;
      (** clean checks, summed over chunks: each chunk checks its own
          state on the domain that ran it *)
  mutable merge_ms : float;
      (** validate + commit on the calling domain: the cross-chunk
          checks (overlapping element writes among them), then the
          frame write-back, the reductions and the consoles *)
  mutable fallbacks : int;
  mutable poisons : (string * int) list;
      (** why the [fallbacks] ran sequentially: each poison reason and
          how many instances it sent back, in the order first seen *)
  mutable refused : int;
  mutable busy_ticks : int64;
      (** vticks of the trips counted in [iterations] *)
  mutable probe_trips : int;
      (** trips run on the master to price the nest, in no other
          counter: [iterations] and [par_ms] cover only forked trips *)
  mutable probe_ticks : int64;
}

val nest_rows : t -> (int * string * nest_stats) list
(** (loop id, label, stats), ascending id — consumed by [bench] to
    build the measured-speedup table. *)

val seq_equivalent_ms : seq:nest_stats -> par:nest_stats -> float
(** Sequential wall time of the iterations [par] ran in parallel:
    [seq]'s per-iteration time (a [Measure] row) times
    [par.iterations]. Dividing it by [par.par_ms] compares like with
    like when the gate ran some instances sequentially. 0 when [seq]
    timed no iteration. *)
