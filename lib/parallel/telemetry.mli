(** Scheduling telemetry for the work-stealing pool, and the
    process-wide counter registry.

    The pool records, per participant, how many tasks it executed, how
    often it probed other deques, how often a probe yielded work, and
    how often it waited idle — the pool's backoff spins for a short
    window and then parks, and both the spins and the parks count as
    idle spins; and, per [parallel_for], the wall, fork and join
    times. The counters are single-writer (each participant owns
    its record), so observing the scheduler does not perturb it — the
    property TASKPROF and ThreadScope both identify as a precondition
    for trustworthy parallel measurements.

    Counters of components that own no pool — supervisor retries,
    chaos injections, the service's result cache, the socket server's
    request lifecycle — live in one registry: each is a {!counter}
    declared once below, and the JSON surfaces render the registry's
    two ordered lists. *)

(** {1 Raw counters (one record per pool participant)} *)

type counters

val make_counters : unit -> counters
val note_task : counters -> unit
val note_steal_attempt : counters -> unit
val note_steal_success : counters -> unit
val note_idle : counters -> unit
val reset_participant : counters -> unit

(** {1 Process-wide counter registry} *)

type counter
(** A named process-wide count; the name is its JSON key. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** [add c n] adds [n], which may be negative. *)

val count : counter -> int

val reset_counters : unit -> unit
(** Zero every registry counter (a clean slate for tests and
    benchmarks; no pool resets them). *)

(** Rendered in every pool snapshot, in this order. *)

val retries : counter
(** Supervisor retries. *)

val faults_injected : counter
(** Chaos injections fired. *)

val cache_hits : counter
val cache_misses : counter

val cache_evictions : counter
(** Service result-cache traffic, summed over live caches
    ([Cache.clear] retires a cache's share with {!add}). *)

(** Rendered as the ["server"] section of the [{"op":"telemetry"}]
    health snapshot, in this order. *)

val requests_admitted : counter
val requests_shed : counter

val requests_timed_out : counter
(** Requests whose supervised execution died on the vclock watchdog
    (the per-request deadline). *)

val sessions_dropped : counter
(** Client sessions that ended abnormally: torn request line at EOF,
    I/O error mid-response, chaos-injected transport fault. *)

val server_counters_json : unit -> Ceres_util.Json.t
(** The four server counters as one JSON object. *)

(** {1 Event timeline (ThreadScope-style trace)}

    A bounded, process-wide recording of individual scheduling events
    — task start/stop, successful steals, the start of every idle
    wait — with wall-clock timestamps and the participant id, so
    pool behaviour under [-j N] is inspectable span by span
    ([jsceres run --par-exec --timeline FILE]). Disabled (the default)
    it costs one atomic load per potential event. *)

module Trace : sig
  type kind = Task_start | Task_stop | Steal | Idle_start

  val kind_name : kind -> string
  (** ["task_start" | "task_stop" | "steal" | "idle_start"] *)

  val capacity : int
  (** Event-buffer bound; events past it are counted as {!dropped}. *)

  val start : unit -> unit
  (** Reset the buffer, stamp t=0 and arm recording. *)

  val stop : unit -> unit
  val active : unit -> bool

  val note : domain:int -> kind -> unit
  (** Record one event for pool participant [domain]. The caller
      checks {!active} first (the pool's hooks do). *)

  val dropped : unit -> int
  val events : unit -> (float * int * kind) list
  (** (ms since {!start}, participant, kind), by time; ties in
      recorded order. *)

  val to_jsonl : unit -> string
  (** One [{"t_ms":..,"domain":..,"ev":..}] object per line (the
      [--timeline] export schema, documented in DESIGN.md §14); a
      final [{"dropped":N}] line is appended by {!write_file} when
      the buffer overflowed. *)

  val write_file : string -> unit
end

(** {1 Per-loop records} *)

type loop_log

val make_loop_log : unit -> loop_log

val note_loop :
  loop_log -> chunks:int -> wall_ms:float -> fork_ms:float ->
  join_ms:float -> unit

val reset_loop_log : loop_log -> unit

(** {1 Snapshots} *)

type domain_stats = {
  domain : int; (** participant id; 0 is the calling domain *)
  tasks_executed : int;
  steals_attempted : int; (** probes of another participant's deque *)
  steals_succeeded : int; (** probes that yielded a job *)
  idle_spins : int;
      (** idle backoff steps: each spin of the spin window and each
          park counts one *)
}

type loop_stats = {
  loop_index : int; (** 0-based ordinal of the loop on this pool *)
  chunks : int;
  wall_ms : float; (** fork start to join end *)
  fork_ms : float; (** time dealing chunks onto the deques *)
  join_ms : float; (** caller's tail wait after its last task *)
}

type pool_stats = {
  participants : int;
  loops_run : int;
  domains : domain_stats list; (** by participant id, caller first *)
  recent_loops : loop_stats list; (** oldest first; last 64 loops *)
}

val snapshot : participants:int -> counters array -> loop_log -> pool_stats

val total_tasks : pool_stats -> int
val total_steals : pool_stats -> int

val json_of_stats : pool_stats -> Ceres_util.Json.t
(** The snapshot as a document of the repo-wide {!Ceres_util.Json}
    encoder (embedded by the service layer's responses), with the
    registry's pool counters, read at render time, after the task and
    steal totals. *)

val to_json : pool_stats -> string
(** {!json_of_stats} rendered as one line. *)
