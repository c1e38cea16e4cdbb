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
(* Function-level collections, shared with the evaluator's dynamic
   path ([Eval.hoist]) and the analyzer ([Scope]), so the slot
   population is exactly the set of names an unresolved frame declares
   at function entry. *)

(* [pick] on every statement of one function level, concatenated in
   source order: expressions and nested function bodies are not
   entered. *)
let collect_level pick body =
  let acc = ref [] in
  let rec stmt (s : stmt) =
    acc := List.rev_append (pick s) !acc;
    match s.s with Func_decl _ -> () | _ -> iter_stmt ~stmt ~expr:ignore s
  in
  List.iter stmt body;
  List.rev !acc

let hoisted_names acc body =
  List.rev_append
    (collect_level
       (fun s ->
          match s.s with
          | Var_decl decls | For (_, Some (Init_var decls), _, _, _) ->
            List.map fst decls
          | For_in (_, Binder_var n, _, _) | Func_decl { fname = Some n; _ } ->
            [ n ]
          | _ -> [])
       body)
    acc

let function_decls =
  collect_level (fun s -> match s.s with Func_decl f -> [ f ] | _ -> [])

let catch_names_stmts =
  collect_level (fun s ->
      match s.s with Try (_, Some (p, _), _) -> [ p ] | _ -> [])

(* Does this function level mention [arguments] as a variable? Only
   own-level references matter: nested functions resolve [arguments]
   to their own frame first. When false, the per-call array is
   unobservable and the evaluator skips allocating it. *)
let mentions_arguments body =
  let found = ref false in
  let rec stmt (s : stmt) =
    match s.s with
    | For_in (_, Binder_ident "arguments", _, _)
    | Try (_, Some ("arguments", _), _) ->
      found := true
    | Func_decl _ -> ()
    | _ -> iter_stmt ~stmt ~expr s
  and expr (e : expr) =
    match e.e with
    | Ident "arguments"
    | Assign (Tgt_ident "arguments", _, _)
    | Update (_, _, Tgt_ident "arguments") ->
      found := true
    | Function_expr _ -> ()
    | _ -> iter_expr ~stmt ~expr e
  in
  List.iter stmt body;
  !found

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

let catch_table body =
  let h = Hashtbl.create 4 in
  List.iter (fun n -> Hashtbl.replace h n ()) (catch_names_stmts body);
  h

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
      (function_decls body)
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
    l_uses_arguments = (not global) && mentions_arguments body;
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

let rec resolve_stmt env (s : stmt) =
  match s.s with
  | Func_decl f ->
    (* the name is hoisted into the enclosing frame: always statically
       bound, never needs the wrapper test *)
    resolve_func env f ~fname_static:true
  | Var_decl decls | For (_, Some (Init_var decls), _, _, _) ->
    s.slex <- declarator_stamps env (List.map fst decls);
    resolve_children env s
  | For_in (_, Binder_var n, _, _) ->
    s.slex <- declarator_stamps env [ n ];
    resolve_children env s
  | _ -> resolve_children env s

and resolve_children env s =
  iter_stmt ~stmt:(resolve_stmt env) ~expr:(rx env) s

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
      catch_names = catch_table f.body;
      wrapper_name = (if fname_static then None else f.fname);
      up = Some env;
    }
  in
  List.iter (resolve_stmt fenv) f.body

and rx env (e : expr) =
  e.lex <-
    (match e.e with
     | String s -> Symbol.intern env.tab s
     | Ident name | Assign (Tgt_ident name, _, _) | Update (_, _, Tgt_ident name)
       -> (
         match resolve_name env name with
         | Some lex -> lex
         | None -> lex_unresolved)
     | Intrinsic (name, _) -> Symbol.intern env.tab name
     | _ -> lex_unresolved);
  match e.e with
  | Function_expr f ->
    let fname_static =
      match f.fname with
      | None -> true
      | Some name -> statically_bound env name
    in
    resolve_func env f ~fname_static
  | _ -> iter_expr ~stmt:(resolve_stmt env) ~expr:(rx env) e

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
      catch_names = catch_table p.stmts;
      wrapper_name = None;
      up = None;
    }
  in
  List.iter (resolve_stmt genv) p.stmts;
  p.glayout <- Some glayout;
  p.resolved_for <- Some tab

let ensure tab (p : program) =
  match p.resolved_for with
  | Some t when t == tab -> ()
  | _ -> program tab p
