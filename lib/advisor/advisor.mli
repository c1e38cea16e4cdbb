(** Causal "what-if" parallelism advisor (TASKPROF-style).

    One deterministic profiling run answers, per hot loop nest, the
    causal question TASKPROF poses for task-parallel programs: what
    whole-program speedup would parallelizing {e this} region buy at N
    cores? The model combines the nest's serial fraction (its busy
    virtual time over the program's, from {!Ceres.Loop_profile}), the
    static verdict chain of {!Analysis.Driver} (including the
    pass-attributed why-not facts and the {!Ceres.Advice}
    transformation hints), and Amdahl's law, and ranks the nests into
    an optimization plan. Where ground truth exists — nests
    {!Js_parallel.Par_exec} already executes — {!measure} attaches
    measured speedups next to the predictions so the advisor grades
    itself against a documented tolerance band (DESIGN.md §14).

    Everything in {!analyze} is derived from the deterministic virtual
    clock, so reports are byte-identical across runs (the advise
    golden files); only {!measure} adds wall-clock fields. *)

(** Predicted whole-program speedup if this nest ran perfectly
    parallel on [cores] cores (Amdahl with the nest's fraction). *)
type predicted = { cores : int; speedup : float }

(** Ground truth for one nest [Par_exec] executed: the measured
    per-nest and program-equivalent speedups next to the model's
    prediction at the same core count. *)
type measured_row = {
  m_id : int;  (** loop id *)
  m_label : string;
  m_fraction : float;  (** this loop's share of program busy time *)
  m_jobs : int;  (** pool domains the parallel run used *)
  m_seq_ms : float;
      (** wall ms of the individually-timed sequential run, priced at
          the iterations the parallel instances ran *)
  m_par_ms : float;  (** wall ms across parallel instances *)
  m_nest_speedup : float;  (** seq_ms / par_ms; 0 when unmeasurable *)
  m_program_speedup : float;
      (** whole-program equivalent of the measured nest speedup
          (Amdahl at the nest's fraction) *)
  m_predicted : float;  (** the model's prediction at [m_jobs] cores *)
  m_karp_flatt : float;
      (** experimentally-determined serial fraction of the nest run *)
  m_within_band : bool;
      (** measured program speedup within the documented tolerance
          band of the prediction (|pred - meas| <= 0.25 * pred);
          [false] flags an off-model nest *)
  m_refused : int;
      (** instances the work gate ran sequentially; a nest with any is
          flagged [refused] instead of graded ok/off-model *)
}

(** One ranked plan entry (a hot nest root). *)
type nest = {
  rank : int;  (** 1-based position in the plan *)
  id : int;  (** loop id of the nest root *)
  label : string;  (** ["for(line 44)"] *)
  in_function : string option;
  verdict : string;
      (** five-way static label: [parallel] / [reduction(oi)] /
          [reduction] / [rtc] / [seq]; ["-"] if unanalyzed *)
  proven : bool;  (** statically proven [Parallel] or [Reduction] *)
  fraction : float;  (** nest busy time / program busy time, in [0,1] *)
  pct_busy : float;  (** [100 *. fraction] *)
  instances : int;
  trips_mean : float;
  bound : float;  (** Amdahl asymptote [1/(1-fraction)] *)
  predicted : predicted list;  (** one entry per requested core count *)
  blockers : Analysis.Verdict.fact list;
      (** the static why-not chain; empty on proven nests *)
  hints : string list;
      (** ranked {!Ceres.Advice} transformations plus static
          privatizable-temporary notes *)
}

type report = {
  workload : string;
  cores : int list;  (** core counts modeled, ascending, deduplicated *)
  busy_ms : float;  (** program busy virtual time *)
  loop_ms : float;  (** virtual time with any loop open, counted once *)
  nests : nest list;
      (** the plan: every root nest that ran, hottest first (ties by
          ascending loop id), hence by descending fraction *)
  mutable measured : measured_row list;
      (** empty until {!measure}; ascending loop id *)
  fractions : float array;
      (** every loop's busy fraction, by loop id — lets {!measure}
          price inner loops the plan does not list; not serialized *)
}

val default_cores : int list
(** [[2; 4; 8; 16]] *)

val analyze : ?cores:int list -> Workloads.Workload.t -> report
(** The deterministic advisor pass: the ranked plan of a
    {!Workloads.Harness.study} over every root nest. [cores] is
    sanitized (positive, sorted, deduplicated; default
    {!default_cores}). *)

val measure : ?jobs:int -> report -> Workloads.Workload.t -> int
(** Ground-truth pass: run the workload once in [Par_exec] measure
    mode and once forked over a [jobs]-domain pool (default 2), join
    the per-nest rows by loop id, and store one {!measured_row} per
    nest that completed a parallel instance into [report.measured].
    Returns how many nests were measured. Wall-clock based — never
    part of the golden-compared output. *)

val grade : measured_row -> string
(** ["refused"] when the work gate ran any instance sequentially, else
    ["ok"] within the band or ["off-model"] outside it. *)

val json_of_report : report -> Ceres_util.Json.t
(** Deterministic document; the [measured]/[measured_nests] members
    are present only after {!measure}. *)

val to_json : report -> string
(** {!json_of_report} pretty-printed (the advise golden format). *)

val to_text : report -> string
(** The ranked plan as the CLI's text rendering. *)
