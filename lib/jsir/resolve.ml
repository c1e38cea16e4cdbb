(* Front-end resolution pass: runs once per program (after parsing,
   and after instrumentation when a program is instrumented), before
   execution.

   It does three things in one walk:
   - interns every identifier, property-name string literal and
     intrinsic name into the state's symbol table (canonicalization is
     computed there, once per name);
   - computes a slot [layout] for every function frame and for the
     global frame, mirroring the evaluator's hoisting semantics
     exactly ([var] declarations, for/for-in heads, named function
     declarations, parameters, [arguments]) — catch parameters are
     *not* hoisted (the evaluator declares them dynamically at
     catch-entry), so any name a catch clause binds is poisoned for
     static resolution in that function and everything nested in it;
   - stamps every variable reference with a packed [(depth, slot)]
     lexical address in [expr.lex], where depth counts function-frame
     boundaries and the global frame is a sentinel depth, and every
     [var] declarator (for/for-in heads included) in [stmt.slex].
     References that cannot be proven (catch-poisoned names, names a runtime
     wrapper scope for a named function expression may bind, names not
     statically bound anywhere — possibly implicit globals) stay
     unresolved and take the evaluator's dynamic path, which is
     byte-for-byte the old semantics.

   The pass is idempotent and overwrites every stamp it is responsible
   for, so re-resolving a program (e.g. against a different state's
   table) is safe. *)

open Ast
module Symbol = Ceres_util.Symbol

(* ------------------------------------------------------------------ *)
(* Hoisting collection, shared with the evaluator's dynamic path
   ([Eval.hoist_into]), so the slot population is exactly the set of
   names an unresolved frame declares at function entry. *)

let rec hoisted_names acc stmts = List.fold_left hoisted_of_stmt acc stmts

and hoisted_of_stmt acc (s : stmt) =
  match s.s with
  | Var_decl decls -> List.fold_left (fun acc (n, _) -> n :: acc) acc decls
  | Func_decl f -> (match f.fname with Some n -> n :: acc | None -> acc)
  | If (_, t, e) ->
    let acc = hoisted_of_stmt acc t in
    (match e with Some e -> hoisted_of_stmt acc e | None -> acc)
  | While (_, _, body) | Do_while (_, body, _) -> hoisted_of_stmt acc body
  | For (_, init, _, _, body) ->
    let acc =
      match init with
      | Some (Init_var decls) ->
        List.fold_left (fun acc (n, _) -> n :: acc) acc decls
      | _ -> acc
    in
    hoisted_of_stmt acc body
  | For_in (_, binder, _, body) ->
    let acc =
      match binder with Binder_var n -> n :: acc | Binder_ident _ -> acc
    in
    hoisted_of_stmt acc body
  | Try (body, catch, finally) ->
    let acc = hoisted_names acc body in
    let acc =
      match catch with Some (_, cb) -> hoisted_names acc cb | None -> acc
    in
    (match finally with Some fb -> hoisted_names acc fb | None -> acc)
  | Block body -> hoisted_names acc body
  | Switch (_, cases) ->
    List.fold_left (fun acc (_, body) -> hoisted_names acc body) acc cases
  | Labeled (_, body) -> hoisted_of_stmt acc body
  | Expr_stmt _ | Return _ | Break _ | Continue _ | Throw _ | Empty -> acc

let rec function_decls acc stmts =
  List.fold_left
    (fun acc (s : stmt) ->
       match s.s with
       | Func_decl f -> f :: acc
       | Block body -> function_decls acc body
       | Labeled (_, body) -> function_decls acc [ body ]
       | If (_, t, e) ->
         let acc = function_decls acc [ t ] in
         (match e with Some e -> function_decls acc [ e ] | None -> acc)
       | _ -> acc)
    acc stmts

(* Names bound by catch clauses at this function level (not descending
   into nested functions): these are declared dynamically at
   catch-entry and poison static resolution of the name. *)
let rec catch_names_stmts acc stmts =
  List.fold_left catch_names_of_stmt acc stmts

and catch_names_of_stmt acc (s : stmt) =
  match s.s with
  | Try (body, catch, finally) ->
    let acc = catch_names_stmts acc body in
    let acc =
      match catch with
      | Some (p, cb) -> catch_names_stmts (p :: acc) cb
      | None -> acc
    in
    (match finally with
     | Some fb -> catch_names_stmts acc fb
     | None -> acc)
  | If (_, t, e) ->
    let acc = catch_names_of_stmt acc t in
    (match e with Some e -> catch_names_of_stmt acc e | None -> acc)
  | While (_, _, body) | Do_while (_, body, _) -> catch_names_of_stmt acc body
  | For (_, _, _, _, body) | For_in (_, _, _, body) ->
    catch_names_of_stmt acc body
  | Block body -> catch_names_stmts acc body
  | Switch (_, cases) ->
    List.fold_left (fun acc (_, body) -> catch_names_stmts acc body) acc cases
  | Labeled (_, body) -> catch_names_of_stmt acc body
  | Var_decl _ | Func_decl _ | Expr_stmt _ | Return _ | Break _ | Continue _
  | Throw _ | Empty ->
    acc

(* Does this function level mention [arguments] as a variable? Only
   own-level references matter: nested functions resolve [arguments]
   to their own frame first. When false, the per-call array is
   unobservable and the evaluator skips allocating it. *)
let rec mentions_arguments_stmts stmts =
  List.exists mentions_arguments_stmt stmts

and mentions_arguments_stmt (s : stmt) =
  match s.s with
  | Expr_stmt e -> mentions_arguments_expr e
  | Var_decl decls ->
    List.exists
      (fun (_, init) ->
         match init with Some e -> mentions_arguments_expr e | None -> false)
      decls
  | If (c, t, e) ->
    mentions_arguments_expr c || mentions_arguments_stmt t
    || (match e with Some e -> mentions_arguments_stmt e | None -> false)
  | While (_, c, b) -> mentions_arguments_expr c || mentions_arguments_stmt b
  | Do_while (_, b, c) ->
    mentions_arguments_stmt b || mentions_arguments_expr c
  | For (_, init, cond, upd, body) ->
    (match init with
     | Some (Init_var decls) ->
       List.exists
         (fun (_, i) ->
            match i with Some e -> mentions_arguments_expr e | None -> false)
         decls
     | Some (Init_expr e) -> mentions_arguments_expr e
     | None -> false)
    || (match cond with Some e -> mentions_arguments_expr e | None -> false)
    || (match upd with Some e -> mentions_arguments_expr e | None -> false)
    || mentions_arguments_stmt body
  | For_in (_, binder, obj, body) ->
    (match binder with
     | Binder_ident n -> String.equal n "arguments"
     | Binder_var _ -> false)
    || mentions_arguments_expr obj || mentions_arguments_stmt body
  | Return e ->
    (match e with Some e -> mentions_arguments_expr e | None -> false)
  | Throw e -> mentions_arguments_expr e
  | Try (body, catch, finally) ->
    mentions_arguments_stmts body
    || (match catch with
        | Some (p, cb) ->
          String.equal p "arguments" || mentions_arguments_stmts cb
        | None -> false)
    || (match finally with
        | Some fb -> mentions_arguments_stmts fb
        | None -> false)
  | Block body -> mentions_arguments_stmts body
  | Switch (d, cases) ->
    mentions_arguments_expr d
    || List.exists
         (fun (g, body) ->
            (match g with
             | Some e -> mentions_arguments_expr e
             | None -> false)
            || mentions_arguments_stmts body)
         cases
  | Labeled (_, body) -> mentions_arguments_stmt body
  | Func_decl _ | Break _ | Continue _ | Empty -> false

and mentions_arguments_expr (e : expr) =
  match e.e with
  | Ident n -> String.equal n "arguments"
  | Number _ | String _ | Bool _ | Null | Undefined | This -> false
  | Function_expr _ -> false (* own [arguments] inside *)
  | Array_lit es -> List.exists mentions_arguments_expr es
  | Object_lit props ->
    List.exists (fun (_, v) -> mentions_arguments_expr v) props
  | Member (o, _) -> mentions_arguments_expr o
  | Index (o, i) -> mentions_arguments_expr o || mentions_arguments_expr i
  | Call (c, args) | New (c, args) ->
    mentions_arguments_expr c || List.exists mentions_arguments_expr args
  | Unop (_, x) -> mentions_arguments_expr x
  | Binop (_, a, b) | Logical (_, a, b) | Seq (a, b) ->
    mentions_arguments_expr a || mentions_arguments_expr b
  | Cond (c, t, f) ->
    mentions_arguments_expr c || mentions_arguments_expr t
    || mentions_arguments_expr f
  | Assign (tgt, _, rhs) ->
    mentions_arguments_target tgt || mentions_arguments_expr rhs
  | Update (_, _, tgt) -> mentions_arguments_target tgt
  | Intrinsic (_, args) -> List.exists mentions_arguments_expr args

and mentions_arguments_target = function
  | Tgt_ident n -> String.equal n "arguments"
  | Tgt_member (o, _) -> mentions_arguments_expr o
  | Tgt_index (o, i) ->
    mentions_arguments_expr o || mentions_arguments_expr i

(* ------------------------------------------------------------------ *)
(* Static environments *)

type senv = {
  tab : Symbol.table;
  layout : layout;
  is_global : bool;
  catch_names : (string, unit) Hashtbl.t;
  wrapper_name : string option;
      (* fname a runtime wrapper scope *may* bind between this frame
         and its captured chain: references to it stay dynamic *)
  up : senv option;
}

let resolve_name env name =
  let rec go env depth =
    match Hashtbl.find_opt env.layout.l_table name with
    | Some slot ->
      if env.is_global then Some (lex_make ~depth:lex_global_depth ~slot)
      else if depth >= lex_global_depth then None (* absurd nesting *)
      else Some (lex_make ~depth ~slot)
    | None ->
      if Hashtbl.mem env.catch_names name then None
      else if
        match env.wrapper_name with
        | Some n -> String.equal n name
        | None -> false
      then None
      else (match env.up with Some up -> go up (depth + 1) | None -> None)
  in
  go env 0

(* Is [name] certainly bound (slot in some enclosing frame) with no
   intervening dynamic binder? Decides whether a named function
   expression can skip the runtime wrapper-scope test: the evaluator
   only creates the wrapper when the name is unbound at call time. *)
let rec statically_bound env name =
  if Hashtbl.mem env.layout.l_table name then true
  else if Hashtbl.mem env.catch_names name then false
  else if
    match env.wrapper_name with
    | Some n -> String.equal n name
    | None -> false
  then false
  else match env.up with Some up -> statically_bound up name | None -> false

(* ------------------------------------------------------------------ *)
(* Layout construction *)

let build_layout env_tab ~global ~params ~body =
  let table = Hashtbl.create 16 in
  let rev_names = ref [] in
  let count = ref 0 in
  let max_slot = ref (-1) in
  let slot_of name =
    match Hashtbl.find_opt table name with
    | Some s -> s
    | None ->
      let s =
        if global then Symbol.global_slot env_tab (Symbol.intern env_tab name)
        else begin
          let s = !count in
          incr count;
          s
        end
      in
      Hashtbl.replace table name s;
      rev_names := (name, s) :: !rev_names;
      if s > !max_slot then max_slot := s;
      s
  in
  let param_slots = Array.of_list (List.map slot_of params) in
  let arguments = if global then -1 else slot_of "arguments" in
  List.iter (fun n -> ignore (slot_of n)) (hoisted_names [] body);
  let decls =
    List.filter_map
      (fun (f : func) ->
         match f.fname with Some n -> Some (slot_of n, f) | None -> None)
      (List.rev (function_decls [] body))
  in
  let size = if global then !max_slot + 1 else !count in
  let names = Array.make (max size 1) "" in
  let syms = Array.make (max size 1) (-1) in
  List.iter
    (fun (name, s) ->
       names.(s) <- name;
       syms.(s) <- Symbol.intern env_tab name)
    !rev_names;
  {
    l_size = size;
    l_names = names;
    l_syms = syms;
    l_table = table;
    l_param_slots = param_slots;
    l_arguments = arguments;
    l_uses_arguments = (not global) && mentions_arguments_stmts body;
    l_decls = decls;
    l_fname_static = true (* overwritten per function below *)
  }

(* ------------------------------------------------------------------ *)
(* The walk *)

(* A statement's [slex]: one address per declared name, or [[||]] when
   any of them stays unresolved. *)
let declarator_stamps env names =
  let addrs = List.filter_map (resolve_name env) names in
  if List.compare_lengths addrs names = 0 then Array.of_list addrs else [||]

let rec resolve_stmts env stmts = List.iter (resolve_stmt env) stmts

and resolve_stmt env (s : stmt) =
  match s.s with
  | Expr_stmt e -> rx env e
  | Var_decl decls ->
    s.slex <- declarator_stamps env (List.map fst decls);
    List.iter (fun (_, init) -> Option.iter (rx env) init) decls
  | If (c, t, e) ->
    rx env c;
    resolve_stmt env t;
    Option.iter (resolve_stmt env) e
  | While (_, c, b) ->
    rx env c;
    resolve_stmt env b
  | Do_while (_, b, c) ->
    resolve_stmt env b;
    rx env c
  | For (_, init, cond, upd, body) ->
    (match init with
     | Some (Init_var decls) ->
       s.slex <- declarator_stamps env (List.map fst decls);
       List.iter (fun (_, i) -> Option.iter (rx env) i) decls
     | Some (Init_expr e) -> rx env e
     | None -> ());
    Option.iter (rx env) cond;
    Option.iter (rx env) upd;
    resolve_stmt env body
  | For_in (_, binder, obj, body) ->
    (match binder with
     | Binder_var n -> s.slex <- declarator_stamps env [ n ]
     | Binder_ident _ -> ());
    rx env obj;
    resolve_stmt env body
  | Return e -> Option.iter (rx env) e
  | Throw e -> rx env e
  | Try (body, catch, finally) ->
    resolve_stmts env body;
    (match catch with Some (_, cb) -> resolve_stmts env cb | None -> ());
    (match finally with Some fb -> resolve_stmts env fb | None -> ())
  | Block body -> resolve_stmts env body
  | Func_decl f ->
    (* the name is hoisted into the enclosing frame: always statically
       bound, never needs the wrapper test *)
    resolve_func env f ~fname_static:true
  | Switch (d, cases) ->
    rx env d;
    List.iter
      (fun (guard, body) ->
         Option.iter (rx env) guard;
         resolve_stmts env body)
      cases
  | Labeled (_, body) -> resolve_stmt env body
  | Break _ | Continue _ | Empty -> ()

and resolve_func env (f : func) ~fname_static =
  let layout =
    { (build_layout env.tab ~global:false ~params:f.params ~body:f.body) with
      l_fname_static = fname_static }
  in
  f.layout <- Some layout;
  let fenv =
    {
      tab = env.tab;
      layout;
      is_global = false;
      catch_names =
        (let h = Hashtbl.create 4 in
         List.iter
           (fun n -> Hashtbl.replace h n ())
           (catch_names_stmts [] f.body);
         h);
      wrapper_name = (if fname_static then None else f.fname);
      up = Some env;
    }
  in
  resolve_stmts fenv f.body

and rx env (e : expr) =
  match e.e with
  | Number _ | Bool _ | Null | Undefined | This -> e.lex <- lex_unresolved
  | String s -> e.lex <- Symbol.intern env.tab s
  | Ident name ->
    e.lex <-
      (match resolve_name env name with Some lex -> lex | None -> lex_unresolved)
  | Array_lit es ->
    e.lex <- lex_unresolved;
    List.iter (rx env) es
  | Object_lit props ->
    e.lex <- lex_unresolved;
    List.iter (fun (_, v) -> rx env v) props
  | Function_expr f ->
    e.lex <- lex_unresolved;
    let fname_static =
      match f.fname with
      | None -> true
      | Some name -> statically_bound env name
    in
    resolve_func env f ~fname_static
  | Member (o, _) ->
    e.lex <- lex_unresolved;
    rx env o
  | Index (o, i) ->
    e.lex <- lex_unresolved;
    rx env o;
    rx env i
  | Call (c, args) | New (c, args) ->
    e.lex <- lex_unresolved;
    rx env c;
    List.iter (rx env) args
  | Unop (_, x) ->
    e.lex <- lex_unresolved;
    rx env x
  | Binop (_, a, b) | Logical (_, a, b) | Seq (a, b) ->
    e.lex <- lex_unresolved;
    rx env a;
    rx env b
  | Cond (c, t, f) ->
    e.lex <- lex_unresolved;
    rx env c;
    rx env t;
    rx env f
  | Assign (tgt, _, rhs) ->
    resolve_target env e tgt;
    rx env rhs
  | Update (_, _, tgt) -> resolve_target env e tgt
  | Intrinsic (name, args) ->
    e.lex <- Symbol.intern env.tab name;
    List.iter (rx env) args

and resolve_target env (e : expr) (tgt : target) =
  match tgt with
  | Tgt_ident name ->
    e.lex <-
      (match resolve_name env name with Some lex -> lex | None -> lex_unresolved)
  | Tgt_member (o, _) ->
    e.lex <- lex_unresolved;
    rx env o
  | Tgt_index (o, i) ->
    e.lex <- lex_unresolved;
    rx env o;
    rx env i

(* ------------------------------------------------------------------ *)

let program tab (p : program) =
  let glayout =
    build_layout tab ~global:true ~params:[] ~body:p.stmts
  in
  let genv =
    {
      tab;
      layout = glayout;
      is_global = true;
      catch_names =
        (let h = Hashtbl.create 4 in
         List.iter
           (fun n -> Hashtbl.replace h n ())
           (catch_names_stmts [] p.stmts);
         h);
      wrapper_name = None;
      up = None;
    }
  in
  resolve_stmts genv p.stmts;
  p.glayout <- Some glayout;
  p.resolved_for <- Some tab

let ensure tab (p : program) =
  match p.resolved_for with
  | Some t when t == tab -> ()
  | _ -> program tab p
