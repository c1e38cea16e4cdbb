(** Tree-walking evaluator for MiniJS.

    Evaluation advances the state's virtual clock by a small cost per
    operation — this is what makes the reproduction's timings
    deterministic. {!Jsir.Ast.Intrinsic} nodes dispatch to the handlers
    registered in [state.intrinsics]; an uninstrumented program runs
    with zero analysis overhead, mirroring the paper's staged
    methodology. *)

open Value

(** Statement completion (exceptions travel as {!Value.Js_throw}). *)
type completion =
  | Cnormal
  | Creturn of value
  | Cbreak of string option (** optional target label *)
  | Ccontinue of string option

val create :
  ?seed:int -> ?budget:int64 -> ?ticks_per_ms:int -> unit -> state
(** Fresh interpreter state with the prototype graph tied and [apply]
    installed; builtins are installed separately
    ({!Builtins.install}). *)

val run_program : ?resolve:bool -> state -> Jsir.Ast.program -> unit
(** Resolve the program against the state's symbol table (unless
    [~resolve:false] — kept for differential testing of the dynamic
    path), hoist into the global scope and execute; a [Js_throw]
    escaping the program propagates to the caller. *)

val eval_in_global : state -> Jsir.Ast.expr -> value
(** Evaluate one expression in the global scope (tests, REPL-ish
    uses). *)

(** {1 Building blocks} (used by the analysis glue and host functions) *)

val eval : state -> scope -> value -> Jsir.Ast.expr -> value
(** [eval st scope this e]. *)

val exec_stmt : state -> scope -> value -> Jsir.Ast.stmt -> completion
val exec_stmts : state -> scope -> value -> Jsir.Ast.stmt list -> completion

val call : state -> value -> value -> value list -> value
(** [call st callee this args]; raises a catchable TypeError for
    non-callables and RangeError past [max_call_depth]. *)

val construct : state -> value -> value list -> value
(** [new callee(args)]. *)

val get_prop : state -> value -> string -> value
(** Property access on arbitrary values (string indexing/length,
    prototype methods for primitives); throws on [null]/[undefined]. *)

val set_prop : state -> value -> string -> value -> unit
(** Writes to DOM-tagged elements are reported as host DOM accesses. *)

val eval_binop : state -> Jsir.Ast.binop -> value -> value -> value
(** The binary-operator semantics, exposed for compound-assignment
    intrinsic handlers. *)

val make_closure : state -> scope -> Jsir.Ast.func -> obj
val hoist_into : state -> scope -> Jsir.Ast.stmt list -> unit
(** [var] and function-declaration hoisting for a body about to run in
    [scope]. *)

val tick : state -> int -> unit
(** Advance the virtual clock by a non-negative cost (unchecked, unlike
    {!Ceres_util.Vclock.advance}); fires the state's [on_tick] probe (if
    armed) and raises {!Value.Budget_exhausted} past the state's
    budget. *)

val default_budget : int64
