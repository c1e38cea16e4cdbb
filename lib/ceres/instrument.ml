(* Source-level instrumentation (paper Sec. 3, Fig. 5 step 2).

   The paper's proxy rewrites JavaScript on its way to the browser; we
   rewrite the AST before interpretation — same staging, same
   observation points. Three modes of increasing cost:

   - [Lightweight]: open-loop counter increments/decrements around
     every syntactic loop (Sec. 3.1);
   - [Loop_profile]: per-loop enter/iteration/exit events feeding
     instance, trip-count and timing statistics (Sec. 3.2);
   - [Dependence]: everything above plus creation-site wrapping, scope
     stamping, and interception of every property read/write and
     variable write (Sec. 3.3).

   Loops are wrapped in [try]/[finally] so exit events fire on [break],
   [return] and exceptions; iteration events are prepended to the body
   so they fire once per trip. Every observation point is a typed
   {!Jsir.Ast.Intrinsic} node carrying its literals (loop id, line,
   variable, operator) as fields: the runtime {!Install} sets up
   compiles each one, and none can collide with a user identifier. *)

open Jsir.Ast

type mode = Lightweight | Loop_profile | Dependence

let call i = expr_stmt (intrinsic i)

(* Wrap a transformed loop statement with enter/exit notifications.
   [finally] guarantees the exit fires however the loop terminates. *)
let wrap_loop ~enter ~exit_ (loop_stmt : stmt) : stmt =
  mk_stmt
    (Block [ enter; mk_stmt (Try ([ loop_stmt ], None, Some [ exit_ ])) ])

let prepend_to_body extra (body : stmt) : stmt =
  match body.s with
  | Block stmts -> { body with s = Block (extra :: stmts) }
  | _ -> mk_stmt (Block [ extra; body ])

let rec tx_stmt mode (s : stmt) : stmt =
  match s.s with
  | Empty | Break _ | Continue _ -> s
  | Labeled (name, body) ->
    (match body.s with
     | While _ | Do_while _ | For _ | For_in _ ->
       (* the loop now sits inside the enter/try-finally wrapper (and,
          in dependence mode, possibly an extra declarations block);
          re-attach the label to the loop itself so [continue label]
          still targets it *)
       relabel_loop name (tx_stmt mode body)
     | _ -> { s with s = Labeled (name, tx_stmt mode body) })
  | Expr_stmt e -> { s with s = Expr_stmt (tx_expr mode e) }
  | Var_decl decls when mode = Dependence
                     && List.exists (fun (_, i) -> i <> None) decls ->
    (* [var p = e] initialisations are writes to the (function-scoped)
       binding p; rewrite them into recorded writes so the analysis
       sees them — this is the paper's "write to variable p" case. *)
    let decl_stmt =
      mk_stmt ~at:s.sat (Var_decl (List.map (fun (n, _) -> (n, None)) decls))
    in
    let writes =
      List.filter_map
        (fun (name, init) ->
           match init with
           | None -> None
           | Some e ->
             Some
               (call
                  (Var_write
                     { var = name; line = e.at.left.line; op = None;
                       rhs = tx_expr mode e; induction = false })))
        decls
    in
    mk_stmt ~at:s.sat (Block (decl_stmt :: writes))
  | Var_decl decls ->
    { s with
      s =
        Var_decl
          (List.map
             (fun (name, init) -> (name, Option.map (tx_expr mode) init))
             decls) }
  | Return e -> { s with s = Return (Option.map (tx_expr mode) e) }
  | Throw e -> { s with s = Throw (tx_expr mode e) }
  | If (cond, then_s, else_s) ->
    { s with
      s =
        If
          ( tx_expr mode cond,
            tx_stmt mode then_s,
            Option.map (tx_stmt mode) else_s ) }
  | Block body -> { s with s = Block (List.map (tx_stmt mode) body) }
  | Try (body, catch, finally) ->
    { s with
      s =
        Try
          ( List.map (tx_stmt mode) body,
            Option.map (fun (n, cb) -> (n, List.map (tx_stmt mode) cb)) catch,
            Option.map (List.map (tx_stmt mode)) finally ) }
  | Switch (scrutinee, cases) ->
    { s with
      s =
        Switch
          ( tx_expr mode scrutinee,
            List.map
              (fun (guard, body) ->
                 (Option.map (tx_expr mode) guard, List.map (tx_stmt mode) body))
              cases ) }
  | Func_decl f -> { s with s = Func_decl (tx_func mode f) }
  | While (id, cond, body) ->
    let body = iter_body mode id (tx_stmt mode body) in
    let loop = { s with s = While (id, tx_expr mode cond, body) } in
    instrument_loop mode id loop
  | Do_while (id, body, cond) ->
    let body = iter_body mode id (tx_stmt mode body) in
    let loop = { s with s = Do_while (id, body, tx_expr mode cond) } in
    instrument_loop mode id loop
  | For (id, init, cond, update, body) when mode = Dependence ->
    (* For-head writes drive the induction variable; they are recorded
       under a dedicated kind that the difficulty classifier ignores
       (privatizing the induction variable is the trivial first step of
       any loop parallelization). Declarations move out of the head so
       their initialising writes can be expressed as intrinsics. *)
    let pre, init =
      match init with
      | None -> ([], None)
      | Some (Init_expr e) -> ([], Some (Init_expr (tx_induction e)))
      | Some (Init_var decls) ->
        let decl_stmt =
          mk_stmt ~at:s.sat
            (Var_decl (List.map (fun (n, _) -> (n, None)) decls))
        in
        let writes =
          List.filter_map
            (fun (name, ie) ->
               match ie with
               | None -> None
               | Some e ->
                 Some
                   (intrinsic
                      (Var_write
                         { var = name; line = e.at.left.line; op = None;
                           rhs = tx_expr mode e; induction = true })))
            decls
        in
        let init_expr =
          match writes with
          | [] -> None
          | first :: rest ->
            Some
              (Init_expr
                 (List.fold_left (fun acc w -> mk (Seq (acc, w))) first rest))
        in
        ([ decl_stmt ], init_expr)
    in
    let body = iter_body mode id (tx_stmt mode body) in
    let loop =
      { s with
        s =
          For
            ( id,
              init,
              Option.map (tx_expr mode) cond,
              Option.map tx_induction update,
              body ) }
    in
    let wrapped = instrument_loop mode id loop in
    (match pre with
     | [] -> wrapped
     | pre -> mk_stmt ~at:s.sat (Block (pre @ [ wrapped ])))
  | For (id, init, cond, update, body) ->
    let init =
      Option.map
        (function
          | Init_expr e -> Init_expr (tx_expr mode e)
          | Init_var decls ->
            Init_var
              (List.map
                 (fun (n, ie) -> (n, Option.map (tx_expr mode) ie))
                 decls))
        init
    in
    let body = iter_body mode id (tx_stmt mode body) in
    let loop =
      { s with
        s =
          For
            ( id,
              init,
              Option.map (tx_expr mode) cond,
              Option.map (tx_expr mode) update,
              body ) }
    in
    instrument_loop mode id loop
  | For_in (id, binder, obj, body) ->
    let body = iter_body mode id (tx_stmt mode body) in
    let loop = { s with s = For_in (id, binder, tx_expr mode obj, body) } in
    instrument_loop mode id loop

(* Attach [name] to the first loop statement found inside the
   instrumentation wrappers (blocks and try bodies only). *)
and relabel_loop name (s : stmt) : stmt =
  match s.s with
  | While _ | Do_while _ | For _ | For_in _ ->
    mk_stmt ~at:s.sat (Labeled (name, s))
  | Block stmts ->
    let done_ = ref false in
    let stmts =
      List.map
        (fun st ->
           if !done_ then st
           else begin
             let st' = relabel_loop name st in
             if st' != st then done_ := true;
             st'
           end)
        stmts
    in
    { s with s = Block stmts }
  | Try (body, c, f) ->
    let done_ = ref false in
    let body =
      List.map
        (fun st ->
           if !done_ then st
           else begin
             let st' = relabel_loop name st in
             if st' != st then done_ := true;
             st'
           end)
        body
    in
    { s with s = Try (body, c, f) }
  | _ -> s

and instrument_loop mode id loop =
  match mode with
  | Lightweight ->
    wrap_loop ~enter:(call Light_enter) ~exit_:(call Light_exit) loop
  | Loop_profile | Dependence ->
    wrap_loop ~enter:(call (Loop_enter id)) ~exit_:(call (Loop_exit id)) loop

and iter_body mode id body =
  match mode with
  | Lightweight -> body
  | Loop_profile | Dependence ->
    prepend_to_body (call (Loop_iter id)) body

and tx_func mode (f : func) : func =
  let body = List.map (tx_stmt mode) f.body in
  let body =
    match mode with
    | Dependence -> call Fn_scope :: body
    | Lightweight | Loop_profile -> body
  in
  (* the rewritten body invalidates any slot layout computed for the
     original function *)
  { f with body; layout = None }

and tx_expr mode (e : expr) : expr =
  match mode with
  | Lightweight | Loop_profile -> tx_expr_shallow mode e
  | Dependence -> tx_expr_dep e

(* Light modes only recurse to reach nested functions and loops hidden
   in function expressions. Intrinsics are the instrumenter's own nodes
   and are left as they are. *)
and tx_expr_shallow mode (e : expr) : expr =
  let tx = tx_expr_shallow mode in
  match e.e with
  | Number _ | String _ | Bool _ | Null | Undefined | Ident _ | This
  | Intrinsic _ ->
    e
  | Array_lit elems -> { e with e = Array_lit (List.map tx elems) }
  | Object_lit props ->
    { e with e = Object_lit (List.map (fun (k, v) -> (k, tx v)) props) }
  | Function_expr f -> { e with e = Function_expr (tx_func mode f) }
  | Member (o, f) -> { e with e = Member (tx o, f) }
  | Index (o, i) -> { e with e = Index (tx o, tx i) }
  | Call (callee, args) ->
    { e with e = Call (tx callee, List.map tx args) }
  | New (callee, args) -> { e with e = New (tx callee, List.map tx args) }
  | Unop (op, operand) -> { e with e = Unop (op, tx operand) }
  | Binop (op, l, r) -> { e with e = Binop (op, tx l, tx r) }
  | Logical (op, l, r) -> { e with e = Logical (op, tx l, tx r) }
  | Cond (c, t, f) -> { e with e = Cond (tx c, tx t, tx f) }
  | Assign (tgt, op, rhs) ->
    { e with e = Assign (tx_target_shallow mode tgt, op, tx rhs) }
  | Update (kind, prefix, tgt) ->
    { e with e = Update (kind, prefix, tx_target_shallow mode tgt) }
  | Seq (l, r) -> { e with e = Seq (tx l, tx r) }

and tx_target_shallow mode = function
  | Tgt_ident x -> Tgt_ident x
  | Tgt_member (o, f) -> Tgt_member (tx_expr_shallow mode o, f)
  | Tgt_index (o, i) ->
    Tgt_index (tx_expr_shallow mode o, tx_expr_shallow mode i)

(* Dependence mode: full access interception. *)
and tx_expr_dep (e : expr) : expr =
  let tx = tx_expr_dep in
  let line = e.at.left.line in
  match e.e with
  | Number _ | String _ | Bool _ | Null | Undefined | Ident _ | This
  | Intrinsic _ ->
    e
  | Array_lit elems ->
    intrinsic (Created { e with e = Array_lit (List.map tx elems) })
  | Object_lit props ->
    intrinsic
      (Created
         { e with e = Object_lit (List.map (fun (k, v) -> (k, tx v)) props) })
  | Function_expr f ->
    intrinsic (Created { e with e = Function_expr (tx_func Dependence f) })
  | New (callee, args) ->
    intrinsic (Created { e with e = New (tx callee, List.map tx args) })
  | Member (o, f) -> intrinsic (Prop_read { obj = tx o; key = Field f; line })
  | Index (o, i) ->
    intrinsic (Prop_read { obj = tx o; key = Computed (tx i); line })
  | Call (callee, args) ->
    (* Method calls keep their receiver binding and record the callee
       property read. *)
    (match callee.e with
     | Member (o, f) ->
       intrinsic
         (Method_call
            { obj = tx o; key = Field f; line; args = List.map tx args })
     | Index (o, i) ->
       intrinsic
         (Method_call
            { obj = tx o; key = Computed (tx i); line;
              args = List.map tx args })
     | _ -> { e with e = Call (tx callee, List.map tx args) })
  | Unop (Typeof, operand) ->
    (* typeof must keep reference-error immunity for bare idents. *)
    (match operand.e with
     | Ident _ -> e
     | _ -> { e with e = Unop (Typeof, tx operand) })
  | Unop (Delete, operand) ->
    (* delete needs the raw reference, not an intercepted read. *)
    { e with e = Unop (Delete, tx_expr_shallow Dependence operand) }
  | Unop (op, operand) -> { e with e = Unop (op, tx operand) }
  | Binop (op, l, r) -> { e with e = Binop (op, tx l, tx r) }
  | Logical (op, l, r) -> { e with e = Logical (op, tx l, tx r) }
  | Cond (c, t, f) -> { e with e = Cond (tx c, tx t, tx f) }
  | Assign (Tgt_ident var, op, rhs) ->
    intrinsic (Var_write { var; line; op; rhs = tx rhs; induction = false })
  | Assign (Tgt_member (o, f), op, rhs) ->
    intrinsic
      (Prop_write { obj = tx o; key = Field f; line; op; rhs = tx rhs })
  | Assign (Tgt_index (o, i), op, rhs) ->
    intrinsic
      (Prop_write { obj = tx o; key = Computed (tx i); line; op; rhs = tx rhs })
  | Update (kind, prefix, Tgt_ident var) ->
    intrinsic (Var_update { var; line; kind; prefix; induction = false })
  | Update (kind, prefix, Tgt_member (o, f)) ->
    intrinsic (Prop_update { obj = tx o; key = Field f; line; kind; prefix })
  | Update (kind, prefix, Tgt_index (o, i)) ->
    intrinsic
      (Prop_update { obj = tx o; key = Computed (tx i); line; kind; prefix })
  | Seq (l, r) -> { e with e = Seq (tx l, tx r) }

(* For-head expressions: writes to plain variables at the top level of
   the expression (through [,]-sequences) are induction-variable
   updates; anything else is instrumented normally. *)
and tx_induction (e : expr) : expr =
  let line = e.at.left.line in
  match e.e with
  | Seq (l, r) -> { e with e = Seq (tx_induction l, tx_induction r) }
  | Assign (Tgt_ident var, op, rhs) ->
    intrinsic
      (Var_write { var; line; op; rhs = tx_expr_dep rhs; induction = true })
  | Update (kind, prefix, Tgt_ident var) ->
    intrinsic (Var_update { var; line; kind; prefix; induction = true })
  | _ -> tx_expr_dep e

let program mode (p : program) : program =
  (* the rewrite introduces new nodes (and shares untouched subtrees
     with the input), so any prior resolution is void: the driver
     re-resolves the instrumented program from scratch *)
  { p with
    stmts = List.map (tx_stmt mode) p.stmts;
    glayout = None;
    resolved_for = None }
