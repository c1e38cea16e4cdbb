(** Source-level instrumentation (paper Sec. 3, Fig. 5 step 2).

    AST-to-AST transform inserting a typed {!Jsir.Ast.intrinsic} node
    (printed as a [__ceres_*] call) at each observation point of the
    selected mode. Loops are
    wrapped in [try]/[finally] so exit events fire on [break],
    [return] and exceptions; iteration events are prepended to loop
    bodies; in dependence mode every property read/write, variable
    write, creation site and function prologue is intercepted.

    The transform is semantics-preserving (a qcheck property over
    random programs asserts it): an instrumented program produces the
    same observable behaviour, merely notifying the installed analysis
    runtime along the way. *)

(** The paper's three staged modes, in increasing cost. *)
type mode =
  | Lightweight  (** Sec. 3.1: open-loop counter around every loop *)
  | Loop_profile (** Sec. 3.2: per-loop enter/iteration/exit events *)
  | Dependence   (** Sec. 3.3: full memory-access interception *)

val program : mode -> Jsir.Ast.program -> Jsir.Ast.program
(** Instrument a whole program. Loop identifiers are preserved. *)
