(** Virtual clock for deterministic time measurements.

    The paper measures wall-clock seconds inside a browser; re-running
    its experiments on different hardware would change every number.
    Our interpreter instead advances a virtual clock by a cost assigned
    to each evaluated operation, so Table 2 and Table 3 are
    deterministic. The unit is the "vtick"; the harness reports
    milliseconds assuming a configurable ticks-per-millisecond rate
    (default 100_000, i.e. a nominal 100 MHz abstract machine).

    The clock also supports *idle* advancement, used by the event loop
    to model the time between scripted user interactions — this is what
    makes "total time" exceed "active time" exactly as in the paper. *)

type t = {
  rate : int;
  mutable busy_ticks : int;
  mutable idle_ticks : int;
}
(** The counters are native ints (63 bits hold 4.6e18 vticks), so
    advancing the clock never allocates. The record is exposed so the
    interpreter's per-node tick can do its add and budget check in
    place: [Eval.tick] is the one writer besides {!advance} and
    {!advance_idle}. It runs on every evaluated node, and its costs are
    non-negative constants, so it skips {!advance}'s sign check.
    Everything else changes the clock through {!advance}.
    [Ceres.Loop_profile] and [Profiler.Sampler] read the counters in
    place, so a loop event or a call boundary boxes nothing; other
    readers use the [int64] accessors below. *)

val create : ?ticks_per_ms:int -> unit -> t
(** Fresh clock at time zero. *)

val ticks_per_ms : t -> int

val now : t -> int64
(** Current time in vticks (busy + idle). *)

val busy : t -> int64
(** Accumulated busy vticks (work performed). *)

val idle : t -> int64
(** Accumulated idle vticks (event-loop waiting). *)

val advance : t -> int -> unit
(** [advance t cost] adds [cost] busy vticks. [cost] must be
    non-negative. *)

val advance_idle : t -> int64 -> unit
(** Adds idle vticks (time passing with no JavaScript running). *)

val to_ms : t -> int64 -> float
(** Convert a vtick count to milliseconds under this clock's rate. *)

val ms_to_ticks : t -> float -> int64
(** Inverse of {!to_ms}. *)

val copy : t -> t
(** Independent clock with the same rate and current readings; used to
    give each parallel-loop chunk its own clock forked at loop entry. *)
