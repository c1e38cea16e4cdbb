(** Closure compiler for MiniJS.

    {!run_program} compiles a program once, every function body
    included, into OCaml closures and runs them. Execution advances the
    state's virtual clock by a small cost per operation — this is what
    makes the reproduction's timings deterministic. Each
    {!Jsir.Ast.Intrinsic} node is compiled by the handler factory
    registered in [state.intrinsics] under its name; an uninstrumented
    program runs with zero analysis overhead, mirroring the paper's
    staged methodology. *)

open Value

(** Statement completion (exceptions travel as {!Value.Js_throw}). *)
type completion = Value.completion =
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
    path), compile it with the intrinsic handlers registered now, hoist
    into the global scope and execute; a [Js_throw] escaping the
    program propagates to the caller. An [Intrinsic] node with no
    handler compiles to code that raises a catchable TypeError
    ["unknown intrinsic <name>"] when it runs. *)

val eval_in_global : state -> Jsir.Ast.expr -> value
(** Compile one expression and run it in the global scope (tests,
    REPL-ish uses). *)

(** {1 Building blocks} (used by the analysis glue and host functions) *)

val call : state -> value -> value -> value list -> value
(** [call st callee this args]; raises a catchable TypeError for
    non-callables and RangeError past [max_call_depth]. *)

val get_prop : state -> value -> string -> value
(** Property access on arbitrary values (string indexing/length,
    prototype methods for primitives); throws on [null]/[undefined]. *)

val set_prop : state -> value -> string -> value -> unit
(** Writes to DOM-tagged elements are reported as host DOM accesses. *)

val tick : state -> int -> unit
(** Advance the virtual clock by a non-negative cost (unchecked, unlike
    {!Ceres_util.Vclock.advance}); fires the state's [on_tick] probe (if
    armed) and raises {!Value.Budget_exhausted} past the state's
    budget. *)

val default_budget : int64
