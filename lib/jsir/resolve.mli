(** Front-end resolution: symbol interning + lexical addressing.

    Runs once per program against an interpreter state's symbol table,
    before execution. Interns every identifier and string literal,
    computes a slot {!Ast.layout} for every function frame and for the
    global frame (mirroring the evaluator's hoisting
    semantics exactly — catch parameters are {e not} hoisted), and
    stamps every variable reference with a packed [(depth, slot)]
    address in [expr.lex] and every [var] declarator in [stmt.slex].

    A read of a name that no frame on its static chain binds, with no
    catch parameter or wrapper name in between, is stamped free
    ({!Ast.lex_free}, carrying the name's symbol): the evaluator then
    looks only at the global side table, the global slot and the
    global object. References that cannot be proven static — names
    bound by a catch clause somewhere in the function, names a
    named-function-expression wrapper scope may bind, and assignments
    or updates of free names (possible implicit globals) — are left
    unresolved ([-1]) and take the evaluator's dynamic path, which
    preserves the old semantics byte for byte. *)

val hoisted_names : string list -> Ast.stmt list -> string list
(** [hoisted_names acc body] adds, newest first, every name a [var]
    declaration, a for/for-in head or a function declaration of this
    function level binds (nested functions are not entered; catch
    parameters are not hoisted). The names a frame declares at entry,
    and so the slots of its layout. *)

val function_decls : Ast.stmt list -> Ast.func list
(** The function declarations this function level initialises at
    entry, in source order: every [Func_decl] at any statement depth
    (loop, [try], [switch], [if] and block bodies included), not those
    of nested functions. *)

val catch_names_stmts : Ast.stmt list -> string list
(** The parameters of every catch clause at this function level
    (nested functions are not entered). They are declared at
    catch-entry, not hoisted, so a resolved frame leaves them dynamic. *)

val program : Ceres_util.Symbol.table -> Ast.program -> unit
(** Resolve (or re-resolve) the program against [tab]. Overwrites every
    [lex] stamp and every attached layout; sets [p.resolved_for]. *)

val ensure : Ceres_util.Symbol.table -> Ast.program -> unit
(** [program] unless [p] is already resolved against this very table
    (physical equality). *)
