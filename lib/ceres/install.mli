(** Glue between instrumented programs and the analysis runtimes.

    Each function installs one analysis mode's compiler for
    {!Jsir.Ast.intrinsic} nodes into an interpreter state and returns
    the runtime that accumulates the results. The compiler receives
    each node's operand expressions unevaluated, so wrapped operations
    evaluate each operand exactly once and in the original order; an
    intrinsic of another mode compiles to
    {!Interp.Eval.unknown_intrinsic}.

    Attach exactly one mode per interpreter state (the paper runs its
    stages as separate executions); installing another replaces the
    previous compiler for programs compiled afterwards. *)

val lightweight : Interp.Value.state -> Lightweight.t
(** Sec. 3.1: total time spent under at least one syntactic loop. *)

val loop_profile :
  Interp.Value.state -> Jsir.Loops.info array -> Loop_profile.t
(** Sec. 3.2: per-loop instances, times and trip counts. *)

val dependence :
  ?focus:Jsir.Ast.loop_id list ->
  Interp.Value.state ->
  Jsir.Loops.info array ->
  Runtime.t
(** Sec. 3.3: the full dependence analysis. Also chains onto the
    state's host-access hook so DOM/canvas traffic is attributed to the
    open loops. *)
