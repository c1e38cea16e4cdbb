(** Loop-profiling mode (paper Sec. 3.2).

    Per syntactic loop: instance count, and total/mean/variance of the
    per-instance running time, per-instance trip count, and
    per-iteration running time — all via Welford's online algorithm.
    The per-iteration series feeds the Table 3 control-flow-divergence
    heuristic. *)

type loop_stats = {
  id : Jsir.Ast.loop_id;
  time : Ceres_util.Welford.t; (** ms per instance *)
  trips : Ceres_util.Welford.t; (** trip count per instance *)
  iter_time : Ceres_util.Welford.t; (** ms per iteration *)
}

type t

val create : Ceres_util.Vclock.t -> Jsir.Loops.info array -> t

val on_enter : t -> Jsir.Ast.loop_id -> unit
val on_iter : t -> Jsir.Ast.loop_id -> unit
val on_exit : t -> Jsir.Ast.loop_id -> unit

val stats : t -> Jsir.Ast.loop_id -> loop_stats

val hottest_roots : t -> Jsir.Loops.info array -> loop_stats list
(** Roots of syntactic nests that ran, by descending total time — the
    unit the paper inspects. *)

val total_root_time_ms : t -> Jsir.Loops.info array -> float
(** Busy time with at least one loop open, each moment counted once
    (the paper's open-loop counter, Sec. 3.1): a loop running inside
    another loop's instance adds nothing, even when it is a syntactic
    root of its own. The loop index argument is unused. *)
