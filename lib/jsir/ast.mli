(** Abstract syntax for MiniJS.

    The JavaScript subset this reproduction interprets: everything the
    paper's analysis cares about — [var] function scoping (the Sec. 3.3
    example hinges on it), closures, prototype objects, dynamic typing,
    arrays with higher-order methods, and the full statement/operator
    repertoire of pre-ES6 imperative JavaScript including labeled
    break/continue.

    Every syntactic loop carries a {!loop_id} assigned by the parser in
    source order; JS-CERES keys all per-loop statistics and dependence
    characterizations on it. {!Intrinsic} nodes never appear in parsed
    source: the instrumenter inserts them, one typed {!intrinsic} per
    observation point, and the interpreter hands each to the installed
    analysis runtime's compiler. *)

type pos = { line : int; col : int }
(** 1-based source position. *)

type span = { left : pos; right : pos }

(** Used for synthesised (instrumentation) nodes. *)

type loop_id = int
(** Dense, 0-based, in source order. *)

type unop = Neg | Positive | Not | Bitnot | Typeof | Void | Delete

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq (** [==] *)
  | Neq (** [!=] *)
  | Strict_eq (** [===] *)
  | Strict_neq (** [!==] *)
  | Lt | Le | Gt | Ge
  | Band | Bor | Bxor
  | Lshift
  | Rshift (** [>>] *)
  | Urshift (** [>>>] *)
  | Instanceof
  | In

type logop = And | Or

type assign_op = binop option
(** Compound assignment carries the underlying operator; plain [=] is
    [None]. *)

type expr = { e : expr_desc; at : span; mutable lex : int }
(** [lex] is the resolver's stamp ({!Resolve.program}); [-1] means
    unresolved (dynamic path). For [Ident] and [Assign]/[Update] with
    a [Tgt_ident] it packs a lexical address; an [Ident] read of a free
    name (see {!lex_free}) carries the name's symbol instead; for
    [String] it is the literal's interned symbol; for an [Intrinsic] of
    a [Var_write] or [Var_update] the packed lexical address of its
    variable, as for [Assign] of a [Tgt_ident] ([-1] for every other
    intrinsic). *)

and expr_desc =
  | Number of float
  | String of string
  | Bool of bool
  | Null
  | Undefined
  | Ident of string
  | This
  | Array_lit of expr list
  | Object_lit of (string * expr) list
  | Function_expr of func
  | Member of expr * string (** [e.f] *)
  | Index of expr * expr (** [e[i]] *)
  | Call of expr * expr list
  | New of expr * expr list
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Logical of logop * expr * expr (** short-circuiting *)
  | Cond of expr * expr * expr (** [c ? t : f] *)
  | Assign of target * assign_op * expr
  | Update of update_kind * bool * target (** kind, prefix?, target *)
  | Seq of expr * expr (** the comma operator *)
  | Intrinsic of intrinsic
      (** instrumentation hook, compiled by the installed runtime *)

and update_kind = Incr | Decr

(** One observation point of an instrumented program (paper Sec. 3).
    The literals the paper's proxy passes to its hooks (loop ids,
    source lines, names, operators, update kinds, prefix flags) are
    fields; the expressions are the wrapped operation's operands, each
    evaluated once and in source order by the runtime's code. *)
and intrinsic =
  | Light_enter  (** Sec. 3.1: a loop is entered *)
  | Light_exit  (** ... and left, however it ends *)
  | Loop_enter of loop_id  (** Sec. 3.2: an instance of the loop starts *)
  | Loop_iter of loop_id  (** an iteration starts *)
  | Loop_exit of loop_id  (** the instance ends, however it ends *)
  | Fn_scope  (** Sec. 3.3: a function's scope was created *)
  | Created of expr  (** the object (or function) the expression creates *)
  | Var_write of
      { var : string; line : int; op : assign_op; rhs : expr; induction : bool }
      (** [var op= rhs]; [induction]: a for-head write of the loop
          variable *)
  | Var_update of
      { var : string; line : int; kind : update_kind; prefix : bool;
        induction : bool }
      (** [var++] and kin *)
  | Prop_read of { obj : expr; key : key; line : int }
  | Prop_write of
      { obj : expr; key : key; line : int; op : assign_op; rhs : expr }
  | Prop_update of
      { obj : expr; key : key; line : int; kind : update_kind; prefix : bool }
  | Method_call of { obj : expr; key : key; line : int; args : expr list }
      (** [obj.key(args)], keeping the receiver binding *)

(** How a property access names its key. *)
and key =
  | Field of string  (** [o.f] *)
  | Computed of expr  (** [o[e]] *)

and target =
  | Tgt_ident of string
  | Tgt_member of expr * string
  | Tgt_index of expr * expr

and func = {
  fname : string option;
  params : string list;
  body : stmt list;
  fspan : span;
  mutable layout : layout option;
      (** slot layout of the frame, attached by the resolver; [None]
          runs on the dynamic string-keyed path *)
}

(** Frame layout: fixed slots for every parameter, [var]-hoisted name
    and function declaration of one function, so activation records
    become value arrays. Catch parameters are not hoisted and stay in
    the scope's dynamic side table. *)
and layout = {
  l_size : int;
  l_names : string array; (** slot -> name *)
  l_syms : int array; (** slot -> interned symbol *)
  l_table : (string, int) Hashtbl.t; (** name -> slot (dynamic refs) *)
  l_param_slots : int array;
  l_arguments : int; (** slot of [arguments]; -1 for the global frame *)
  l_uses_arguments : bool;
      (** false = the per-call [arguments] array is unobservable and
          its allocation is skipped *)
  l_decls : (int * func) list; (** named function decls, source order *)
  l_fname_static : bool;
      (** no runtime wrapper-scope test needed for the function
          expression's own name *)
}

and stmt = { s : stmt_desc; sat : span; mutable slex : int array }
(** [slex] is the resolver's stamp for a statement that declares
    variables: one packed lexical address per declarator of a
    [Var_decl], of a [For]'s [Init_var], or the [Binder_var] of a
    [For_in], in source order. [[||]] (the parser's value) = some
    declarator is unresolved: take the dynamic [declare]/[set_var]
    path. {!Equal} and {!Printer} ignore it. *)

and stmt_desc =
  | Expr_stmt of expr
  | Var_decl of (string * expr option) list
  | If of expr * stmt * stmt option
  | While of loop_id * expr * stmt
  | Do_while of loop_id * stmt * expr
  | For of loop_id * for_init option * expr option * expr option * stmt
  | For_in of loop_id * for_in_binder * expr * stmt
  | Return of expr option
  | Break of string option (** optional target label *)
  | Continue of string option
  | Throw of expr
  | Try of stmt list * (string * stmt list) option * stmt list option
      (** body, catch (name, body), finally *)
  | Block of stmt list
  | Func_decl of func
  | Switch of expr * (expr option * stmt list) list
      (** cases ([None] = default), with fall-through *)
  | Labeled of string * stmt
  | Empty

and for_init =
  | Init_var of (string * expr option) list (** [for (var i = 0; ...)] *)
  | Init_expr of expr

and for_in_binder =
  | Binder_var of string (** [for (var k in o)] *)
  | Binder_ident of string (** [for (k in o)] *)

type program = {
  stmts : stmt list;
  loop_count : int;
  mutable glayout : layout option; (** attached by the resolver *)
  mutable resolved_for : Ceres_util.Symbol.table option;
}
(** [loop_count] is the number of {!loop_id}s the parser assigned. *)

(** {1 Lexical addresses} (packed into [expr.lex]) *)

val lex_unresolved : int (** -1 *)

val lex_global_depth : int
(** Depth value marking the global frame. *)

val lex_make : depth:int -> slot:int -> int
val lex_depth : int -> int
val lex_slot : int -> int

val lex_free : int -> int
(** The stamp of a read of a free name, given its symbol: no frame on
    the static chain binds the name and no catch parameter or wrapper
    name intervenes, so it can only be an implicit global, a global
    slot a later program declares, or a property of the global object.
    Negative, and distinct from {!lex_unresolved}. *)

val lex_is_free : int -> bool
val lex_free_sym : int -> int
(** The symbol a {!lex_free} stamp carries. *)

(** {1 Constructors} (used by the instrumenter) *)

val mk : ?at:span -> expr_desc -> expr

val mk_stmt : ?at:span -> stmt_desc -> stmt
val number : float -> expr
val string_lit : string -> expr
val ident : string -> expr
val intrinsic : intrinsic -> expr
val expr_stmt : expr -> stmt

(** {1 Traversal}

    The one place that lists each node's children. A walker matches
    the constructors it cares about and hands every other node to
    these, recursing through the two callbacks. *)

val iter_stmt : stmt:(stmt -> unit) -> expr:(expr -> unit) -> stmt -> unit
(** [iter_stmt ~stmt ~expr s] applies [stmt] to every immediate child
    statement of [s] and [expr] to every immediate child expression,
    interleaved in source order, and visits nothing deeper. A [For]
    yields its init (each declarator's initialiser, or the init
    expression), cond, update and body; a [Switch] its discriminant,
    then each case's guard and statements; a [Try] its body, catch
    body and finally body. A [Func_decl]'s body statements are its
    children, so a walker that must not enter nested functions matches
    [Func_decl] itself. Names (declarators, binders, labels, catch
    parameters) are not nodes and are not visited. *)

val iter_expr : stmt:(stmt -> unit) -> expr:(expr -> unit) -> expr -> unit
(** [iter_expr ~stmt ~expr e]: as {!iter_stmt}, for an expression. A
    [Function_expr]'s body statements are its children (passed to
    [stmt]). An [Assign]'s or [Update]'s target sub-expressions (the
    object, then the index) come before the right-hand side; a
    [Tgt_ident] target has none. An [Intrinsic]'s children are its
    expressions in source order: the object, a computed key, then the
    right-hand side or the call's arguments; its literal fields are not
    nodes. Leaves ([Number], [Ident], [This], …) have no children. *)

(** {1 Names} *)

type loop_kind = Kwhile | Kdo_while | Kfor | Kfor_in

val loop_kind_name : loop_kind -> string
val unop_name : unop -> string
val binop_name : binop -> string
val logop_name : logop -> string

val intrinsic_call : intrinsic -> string * expr list
(** The [__ceres_<name>(…)] call an intrinsic prints as: its name and
    its operands, every literal field a fresh literal node (a loop id
    or line a number, a name, operator or update kind a string, a
    prefix flag a boolean, a variable an identifier). *)
