(** Closure compiler for MiniJS.

    {!run_program} compiles a program once, every function body
    included, into OCaml closures and runs them. Execution advances the
    state's virtual clock by a small cost per operation — this is what
    makes the reproduction's timings deterministic. Each
    {!Jsir.Ast.Intrinsic} node is compiled by the analysis runtime's
    compiler in [state.intrinsics]; an uninstrumented program runs with
    zero analysis overhead, mirroring the paper's staged methodology. *)

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
    path), compile it with the intrinsic compiler installed now, hoist
    into the global scope and execute; a [Js_throw] escaping the
    program propagates to the caller. With no compiler installed, an
    [Intrinsic] node compiles to {!unknown_intrinsic}. *)

val unknown_intrinsic : Jsir.Ast.intrinsic -> code
(** The code of an intrinsic that no runtime handles: when it runs it
    raises a catchable TypeError ["unknown intrinsic __ceres_<name>"],
    named by its printed call ({!Jsir.Ast.intrinsic_call}). An
    installed compiler returns it for the intrinsics of other modes. *)

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

(** {2 Member sites} (the compiler's [o.f] paths, for instrumented
    sites that compile their own) *)

type ic
(** A member site's monomorphic cache entry: a shared shape and a slot. *)

val new_ic : unit -> ic ref
(** An empty cell. A site caches reads and writes in separate cells: a
    read may cache a prototype entry that a write must not use. *)

val get_member : state -> ic ref -> value -> string -> value
(** {!get_prop} of a key that is neither an index nor ["length"],
    through the cell: the same result and ticks. *)

val set_member : state -> ic ref -> value -> string -> value -> unit
(** {!set_prop} of such a key through the cell. *)

val invoke :
  state -> scope -> value -> int -> value -> value -> code array -> value
(** [invoke st sc th line fn recv args]: a call site. Evaluates [args]
    straight into the callee's slots when it is a resolved closure with
    no observable [arguments], else calls it as {!call} does; fires the
    call-site hook with [line]. *)

val unary :
  state -> scope -> value -> int -> value -> value -> code array -> code ->
  (float -> float) -> value
(** [unary st sc th line fn recv args a f]: [invoke] of a one-argument
    call ([args] = [[|a|]]) whose callee [fn] is the direct numeric
    builtin [f]; on a number, with no call hook set, it runs [f] without
    an argument list, charging the call's tick. *)

val tick : state -> int -> unit
(** Advance the virtual clock by a non-negative cost (unchecked, unlike
    {!Ceres_util.Vclock.advance}); fires the state's [on_tick] probe (if
    armed) and raises {!Value.Budget_exhausted} past the state's
    budget. *)
