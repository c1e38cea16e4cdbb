(** Execution harness for the case study (paper Sec. 3).

    Runs a workload under one of the staged instrumentation modes,
    scripting its user interactions on the event loop, and collects the
    measurements behind Tables 2 and 3. *)

type run_context = {
  st : Interp.Value.state;
  doc : Dom.Document.t;
  program : Jsir.Ast.program;
  infos : Jsir.Loops.info array;
}

val ticks_per_ms : int
(** Virtual-clock rate of the abstract machine (300 cost units per
    virtual millisecond), chosen so the 12 sessions land in the paper's
    8-62 s range. *)

val prepare : ?seed:int -> ?scale:float -> Workload.t -> run_context
(** Fresh interpreter + DOM with the workload parsed; [scale] is the
    JS-visible [SCALE] sizing global (default 1.0). *)

val drive : run_context -> Workload.t -> unit
(** Schedule the scripted interactions and run the event loop to the
    end of the session. *)

type timing = {
  total_ms : float; (** scripted session length (Table 2 "Total") *)
  active_ms : float; (** Gecko-model sampler estimate ("Active") *)
  busy_ms : float; (** true interpreter busy time *)
  in_loops_ms : float; (** lightweight loop timer ("In Loops") *)
  dom_accesses : int;
  canvas_accesses : int;
  console : string list;
}

val run_plain :
  ?scale:float -> ?par:Js_parallel.Par_exec.t -> Workload.t -> run_context
(** Uninstrumented baseline. With [?par], the statically-proven loop
    nests execute through {!Js_parallel.Par_exec} (parallel fork/merge
    or measured-sequential, per the instance's mode) with observable
    output guaranteed byte-identical to the sequential run; the hook is
    skipped when chaos fault injection is armed. *)

val run_lightweight : ?scale:float -> Workload.t -> timing
(** Sec. 3.1 stage with the sampling profiler attached: a Table 2 row. *)

val run_loop_profile :
  ?scale:float -> Workload.t -> run_context * Ceres.Loop_profile.t
(** Sec. 3.2 stage. *)

val run_dependence :
  ?focus:Jsir.Ast.loop_id list -> Workload.t -> run_context * Ceres.Runtime.t
(** Sec. 3.3 stage, at the workload's [dep_scale]. *)

val map_workloads :
  ?pool:Js_parallel.Pool.t ->
  (Workload.t -> 'a) ->
  Workload.t list ->
  (Workload.t * 'a) list
(** [map_workloads ?pool f ws] runs the analysis stage [f] for every
    workload, concurrently on [pool] when one is given (each run
    builds its own interpreter state and shares nothing, so results
    are identical to the sequential run). Result order follows [ws]
    regardless of scheduling. *)

val map_workloads_supervised :
  ?pool:Js_parallel.Pool.t ->
  ?retries:int ->
  ?backoff:Js_parallel.Backoff.t ->
  ?budget:int64 ->
  (Workload.t -> 'a) ->
  Workload.t list ->
  (Workload.t * ('a, Js_parallel.Supervisor.failure) result) list
(** Like {!map_workloads}, but each workload's stage runs under
    {!Js_parallel.Supervisor.run}: a crashing workload (bug, watchdog
    [budget] overrun, injected chaos fault) becomes an [Error] row and
    the remaining workloads still complete. Transient failures are
    retried up to [retries] times with [backoff]. When chaos is
    enabled, each workload gets the {!Js_parallel.Fault.session} keyed
    on its name, so the failure set is a pure function of the chaos
    seed. *)

(** One Table 3 row. *)
type nest_row = {
  workload : string;
  root : Jsir.Ast.loop_id;
  label : string;
  pct_loop_time : float;
  instances : int;
  trips_mean : float;
  trips_sd : float;
  divergence : Ceres.Classify.divergence;
  dom_access : bool;
  dep_difficulty : Ceres.Classify.difficulty;
  par_difficulty : Ceres.Classify.difficulty;
  warning_count : int;
  static_verdict : string;
      (** {!static_label} of the nest root's verdict *)
  advice : Ceres.Advice.recommendation list;
}

val static_label : Analysis.Verdict.t -> string
(** Five-way static classification backing the Table 3 column:
    [parallel] / [reduction(oi)] (every accumulator proven
    order-insensitive) / [reduction] (order-sensitive, journal-replay
    schedule) / [rtc] / [seq]. *)

(** One hot root nest of a {!study}, as Table 3 and the advisor read it. *)
type hot_nest = {
  stats : Ceres.Loop_profile.loop_stats;
  info : Jsir.Loops.info;
  static_row : Analysis.Driver.row option;
  verdict : string;  (** {!static_label} of the root; ["-"] if unanalyzed *)
  dom_accesses : int;  (** DOM/canvas operations in the whole nest *)
  advice : Ceres.Advice.recommendation list;
}

(** The staged analysis of one workload (paper Sec. 3). *)
type study = {
  ctx : run_context;  (** the loop-profile session *)
  profile : Ceres.Loop_profile.t;
  deps : Ceres.Runtime.t;  (** the dependence session, focused on [hot] *)
  hot : hot_nest list;  (** hottest first *)
}

val study : ?nests:int -> Workload.t -> study
(** Run the loop-profile session, take its [nests] hottest roots (all
    that ran by default), run one dependence session focused on exactly
    those, and statically analyze the program. On a focused nest the
    focused session sees what an unfocused one does. *)

val inspect : ?max_nests:int -> Workload.t -> nest_row list
(** Table 3 for one workload: the rows of a {!study} of its paper row
    count of nests ([w.hot_nest_count]) by default; [max_nests] widens
    it (the Amdahl bench classifies every nest). *)

(** One loop of the static-vs-dynamic cross-validation. *)
type crossval_row = {
  loop : Jsir.Loops.info;
  static_verdict : Analysis.Verdict.t;
  dynamic_carried : string list;
      (** rendered dynamic warnings carried by this loop that the
          static verdict does not account for *)
  sound : bool;
      (** [false] iff the loop is statically proven ([Parallel] or
          [Reduction]) yet the dynamic analysis observed an
          inter-iteration dependence it carries: a flow, output or
          anti triple, or an accumulation over an undeclared scalar *)
}

val crossval : Workload.t -> crossval_row list
(** Run both analyses on the workload — the static analyzer over its
    source, the dynamic dependence stage over its scripted session —
    and check the static verdicts against the observed carried
    dependences, one row per loop. *)

val export_report : ?dir:string -> Workload.t -> string
(** Run the lightweight stage and one {!study}, and write the markdown
    report (paper Fig. 5 steps 5-7); returns the path written. *)
