(* Abstract syntax for MiniJS, the JavaScript subset interpreted by this
   reproduction. The subset covers what the paper's analysis cares
   about: [var] function scoping (Sec. 3.3's example hinges on it),
   closures, prototype objects, dynamically typed values, arrays with
   higher-order methods, and the full statement/operator repertoire of
   pre-ES6 imperative JavaScript. Loops carry a unique [loop_id]
   assigned by the parser: JS-CERES keys all its per-loop statistics and
   dependence characterizations on that identifier.

   [Intrinsic] nodes never appear in parsed source; the Ceres
   instrumenter inserts them, one typed constructor per observation
   point, and the interpreter hands each to the installed analysis
   runtime's compiler. *)

type pos = { line : int; col : int }
type span = { left : pos; right : pos }

let no_pos = { line = 0; col = 0 }
let no_span = { left = no_pos; right = no_pos }

type loop_id = int

type unop =
  | Neg
  | Positive
  | Not
  | Bitnot
  | Typeof
  | Void
  | Delete

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq       (* == *)
  | Neq      (* != *)
  | Strict_eq  (* === *)
  | Strict_neq (* !== *)
  | Lt
  | Le
  | Gt
  | Ge
  | Band
  | Bor
  | Bxor
  | Lshift
  | Rshift   (* >> *)
  | Urshift  (* >>> *)
  | Instanceof
  | In

type logop = And | Or

(* Compound assignment carries the underlying arithmetic operator;
   plain [=] is [None]. *)
type assign_op = binop option

(* [lex] is the resolver's stamp (Resolve.program); -1 = unresolved,
   take the dynamic path. Its meaning depends on the node:
   - [Ident], [Assign]/[Update] with a [Tgt_ident]: a packed lexical
     address, [slot lsl 12 lor depth], where depth counts enclosing
     function frames and depth = 0xFFF means the global frame;
   - an [Ident] read of a free name (no frame on its static chain binds
     it, no catch parameter or wrapper name intervenes): [-2 - sym],
     with [sym] the name's interned symbol;
   - [String]: the interned symbol of the literal;
   - [Intrinsic] of a [Var_write] or [Var_update]: the packed lexical
     address of its variable, as for [Assign] of a [Tgt_ident]; -1 for
     every other intrinsic. *)
type expr = { e : expr_desc; at : span; mutable lex : int }

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
  | Member of expr * string
  | Index of expr * expr
  | Call of expr * expr list
  | New of expr * expr list
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Logical of logop * expr * expr
  | Cond of expr * expr * expr
  | Assign of target * assign_op * expr
  | Update of update_kind * bool * target  (* kind, prefix?, target *)
  | Seq of expr * expr
  | Intrinsic of intrinsic

and update_kind = Incr | Decr

(* One observation point of the instrumented program. The literals the
   paper's proxy passes to its hooks (loop ids, lines, names, operators,
   update kinds, prefix flags) are fields here, not operand nodes. *)
and intrinsic =
  | Light_enter
  | Light_exit
  | Loop_enter of loop_id
  | Loop_iter of loop_id
  | Loop_exit of loop_id
  | Fn_scope
  | Created of expr
  | Var_write of
      { var : string; line : int; op : assign_op; rhs : expr; induction : bool }
  | Var_update of
      { var : string; line : int; kind : update_kind; prefix : bool;
        induction : bool }
  | Prop_read of { obj : expr; key : key; line : int }
  | Prop_write of
      { obj : expr; key : key; line : int; op : assign_op; rhs : expr }
  | Prop_update of
      { obj : expr; key : key; line : int; kind : update_kind; prefix : bool }
  | Method_call of { obj : expr; key : key; line : int; args : expr list }

(* How a property access names its key: [o.f] or [o[e]]. *)
and key = Field of string | Computed of expr

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
      (* slot layout of this function's frame, attached by the
         resolver; [None] runs on the dynamic string-keyed path *)
}

(* Frame layout: every [var]-hoisted name, parameter and function
   declaration of one function gets a fixed slot, so activation
   records become value arrays instead of string-keyed tables. Catch
   parameters stay dynamic (they are declared at catch-entry, not
   hoisted) and live in the scope's side table. *)
and layout = {
  l_size : int; (* slot count of the frame *)
  l_names : string array; (* slot -> name *)
  l_syms : int array; (* slot -> interned symbol *)
  l_table : (string, int) Hashtbl.t; (* name -> slot, for dynamic refs *)
  l_param_slots : int array; (* positional parameter -> slot *)
  l_arguments : int; (* slot of [arguments]; -1 for the global frame *)
  l_uses_arguments : bool;
      (* whether the frame's [arguments] array can be observed; when
         false the per-call array allocation is skipped *)
  l_decls : (int * func) list; (* named function decls, source order *)
  l_fname_static : bool;
      (* named function expression whose name is statically bound (or
         no name at all): the runtime wrapper-scope test is skipped *)
}

(* [slex]: one packed lexical address per declarator of a [Var_decl],
   a [For]'s [Init_var] or a [For_in]'s [Binder_var], stamped by the
   resolver; [[||]] = take the dynamic path. *)
and stmt = { s : stmt_desc; sat : span; mutable slex : int array }

and stmt_desc =
  | Expr_stmt of expr
  | Var_decl of (string * expr option) list
  | If of expr * stmt * stmt option
  | While of loop_id * expr * stmt
  | Do_while of loop_id * stmt * expr
  | For of loop_id * for_init option * expr option * expr option * stmt
  | For_in of loop_id * for_in_binder * expr * stmt
  | Return of expr option
  | Break of string option (* optional target label *)
  | Continue of string option
  | Throw of expr
  | Try of stmt list * (string * stmt list) option * stmt list option
  | Block of stmt list
  | Func_decl of func
  | Switch of expr * (expr option * stmt list) list
  | Labeled of string * stmt
  | Empty

and for_init =
  | Init_var of (string * expr option) list
  | Init_expr of expr

and for_in_binder =
  | Binder_var of string   (* for (var k in o) *)
  | Binder_ident of string (* for (k in o) *)

type program = {
  stmts : stmt list;
  loop_count : int;
  mutable glayout : layout option;
      (* global-frame layout (slots allocated from the symbol table's
         global registry), attached by the resolver *)
  mutable resolved_for : Ceres_util.Symbol.table option;
      (* the table the program was last resolved against; re-running
         on a different interpreter state re-resolves *)
}

let lex_unresolved = -1
let lex_global_depth = 0xFFF
let lex_make ~depth ~slot = (slot lsl 12) lor depth
let lex_depth lex = lex land 0xFFF
let lex_slot lex = lex lsr 12
let lex_free sym = -2 - sym
let lex_is_free lex = lex < -1
let lex_free_sym lex = -2 - lex

(* Constructors used by the instrumenter, which synthesises nodes with
   no meaningful source location. *)

let mk ?(at = no_span) e = { e; at; lex = lex_unresolved }
let mk_stmt ?(at = no_span) s = { s; sat = at; slex = [||] }
let number f = mk (Number f)
let string_lit s = mk (String s)
let ident x = mk (Ident x)
let intrinsic i = mk (Intrinsic i)
let expr_stmt e = mk_stmt (Expr_stmt e)

(* Immediate children in source order; see ast.mli for the contract. *)

let iter_decls expr decls =
  List.iter (fun (_, init) -> Option.iter expr init) decls

let iter_target expr = function
  | Tgt_ident _ -> ()
  | Tgt_member (o, _) -> expr o
  | Tgt_index (o, i) ->
    expr o;
    expr i

let iter_key expr = function Field _ -> () | Computed k -> expr k

let iter_intrinsic expr = function
  | Light_enter | Light_exit | Loop_enter _ | Loop_iter _ | Loop_exit _
  | Fn_scope | Var_update _ ->
    ()
  | Created e | Var_write { rhs = e; _ } -> expr e
  | Prop_read { obj; key; _ } | Prop_update { obj; key; _ } ->
    expr obj;
    iter_key expr key
  | Prop_write { obj; key; rhs; _ } ->
    expr obj;
    iter_key expr key;
    expr rhs
  | Method_call { obj; key; args; _ } ->
    expr obj;
    iter_key expr key;
    List.iter expr args

let iter_stmt ~stmt ~expr (s : stmt) =
  match s.s with
  | Expr_stmt e | Throw e -> expr e
  | Var_decl decls -> iter_decls expr decls
  | If (c, t, e) ->
    expr c;
    stmt t;
    Option.iter stmt e
  | While (_, c, b) ->
    expr c;
    stmt b
  | Do_while (_, b, c) ->
    stmt b;
    expr c
  | For (_, init, c, u, b) ->
    (match init with
     | Some (Init_var decls) -> iter_decls expr decls
     | Some (Init_expr e) -> expr e
     | None -> ());
    Option.iter expr c;
    Option.iter expr u;
    stmt b
  | For_in (_, _, o, b) ->
    expr o;
    stmt b
  | Return e -> Option.iter expr e
  | Try (b, c, f) ->
    List.iter stmt b;
    Option.iter (fun (_, cb) -> List.iter stmt cb) c;
    Option.iter (List.iter stmt) f
  | Block b -> List.iter stmt b
  | Func_decl f -> List.iter stmt f.body
  | Switch (d, cases) ->
    expr d;
    List.iter
      (fun (g, b) ->
         Option.iter expr g;
         List.iter stmt b)
      cases
  | Labeled (_, b) -> stmt b
  | Break _ | Continue _ | Empty -> ()

let iter_expr ~stmt ~expr (e : expr) =
  match e.e with
  | Number _ | String _ | Bool _ | Null | Undefined | Ident _ | This -> ()
  | Array_lit es -> List.iter expr es
  | Intrinsic i -> iter_intrinsic expr i
  | Object_lit props -> List.iter (fun (_, v) -> expr v) props
  | Function_expr f -> List.iter stmt f.body
  | Member (o, _) | Unop (_, o) -> expr o
  | Index (a, b) | Binop (_, a, b) | Logical (_, a, b) | Seq (a, b) ->
    expr a;
    expr b
  | Call (c, args) | New (c, args) ->
    expr c;
    List.iter expr args
  | Cond (c, t, f) ->
    expr c;
    expr t;
    expr f
  | Assign (tgt, _, rhs) ->
    iter_target expr tgt;
    expr rhs
  | Update (_, _, tgt) -> iter_target expr tgt

(* Loop kinds, for reporting. *)
type loop_kind = Kwhile | Kdo_while | Kfor | Kfor_in

let loop_kind_name = function
  | Kwhile -> "while"
  | Kdo_while -> "do-while"
  | Kfor -> "for"
  | Kfor_in -> "for-in"

let unop_name = function
  | Neg -> "-"
  | Positive -> "+"
  | Not -> "!"
  | Bitnot -> "~"
  | Typeof -> "typeof"
  | Void -> "void"
  | Delete -> "delete"

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Neq -> "!="
  | Strict_eq -> "==="
  | Strict_neq -> "!=="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Lshift -> "<<"
  | Rshift -> ">>"
  | Urshift -> ">>>"
  | Instanceof -> "instanceof"
  | In -> "in"

let logop_name = function And -> "&&" | Or -> "||"

(* The [__ceres_<name>(...)] call an intrinsic prints as, its literals
   passed as literal operands: the printer, structural equality and the
   unknown-intrinsic message all read it from here. *)
let intrinsic_call i =
  let num n = number (float_of_int n) in
  let op_lit op =
    string_lit (match op with None -> "=" | Some b -> binop_name b)
  in
  let kind_lit k = string_lit (match k with Incr -> "++" | Decr -> "--") in
  let key_lit = function Field f -> string_lit f | Computed k -> k in
  let by_key key field computed =
    match key with Field _ -> field | Computed _ -> computed
  in
  match i with
  | Light_enter -> ("__ceres_light_enter", [])
  | Light_exit -> ("__ceres_light_exit", [])
  | Loop_enter id -> ("__ceres_loop_enter", [ num id ])
  | Loop_iter id -> ("__ceres_loop_iter", [ num id ])
  | Loop_exit id -> ("__ceres_loop_exit", [ num id ])
  | Fn_scope -> ("__ceres_fn_scope", [])
  | Created e -> ("__ceres_created", [ e ])
  | Var_write { var; line; op; rhs; induction } ->
    ( (if induction then "__ceres_induction_write" else "__ceres_var_write"),
      [ ident var; num line; op_lit op; rhs ] )
  | Var_update { var; line; kind; prefix; induction } ->
    ( (if induction then "__ceres_induction_update"
       else "__ceres_var_update"),
      [ ident var; num line; kind_lit kind; mk (Bool prefix) ] )
  | Prop_read { obj; key; line } ->
    ( by_key key "__ceres_prop_read" "__ceres_index_read",
      [ obj; key_lit key; num line ] )
  | Prop_write { obj; key; line; op; rhs } ->
    ( by_key key "__ceres_prop_write" "__ceres_index_write",
      [ obj; key_lit key; num line; op_lit op; rhs ] )
  | Prop_update { obj; key; line; kind; prefix } ->
    ( by_key key "__ceres_prop_update" "__ceres_index_update",
      [ obj; key_lit key; num line; kind_lit kind; mk (Bool prefix) ] )
  | Method_call { obj; key; line; args } ->
    ( by_key key "__ceres_method_call" "__ceres_index_method_call",
      obj :: key_lit key :: num line :: args )
