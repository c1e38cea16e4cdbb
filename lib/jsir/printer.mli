(** Pretty-printer from MiniJS AST back to JavaScript source.

    Output re-parses to a structurally equal AST (the property tests
    rely on this), with one documented exception: {!Ast.Intrinsic}
    nodes — which only the instrumenter creates — are printed as the
    [__ceres_<name>(…)] call {!Ast.intrinsic_call} gives, literals
    included, so printed instrumented code is readable but round-trips
    to a plain {!Ast.Call}. *)

val number_to_string : float -> string
(** JavaScript-style number rendering: integral values print without a
    decimal point, [nan] prints ["NaN"], infinities print
    ["Infinity"]/["-Infinity"]. *)

val string_to_source : string -> string
(** Quote and escape a string as a double-quoted JS literal. *)

val expr_to_string : Ast.expr -> string
(** One-line rendering of an expression. *)

val stmt_to_string : ?indent:int -> Ast.stmt -> string
(** Multi-line rendering of a statement. *)

val program_to_string : Ast.program -> string
(** Full-script rendering. *)
