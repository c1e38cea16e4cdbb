(* Glue between instrumented code and the analysis runtimes.

   Registers handlers for the [__ceres_*] intrinsics that
   {!Instrument} inserts. Handlers receive *unevaluated* operand
   expressions, so a wrapped operation evaluates each operand exactly
   once and in the original order — compound assignments and update
   expressions keep their single-evaluation semantics. One analysis
   mode is attached per interpreter state, mirroring the paper's
   separate staged runs.

   Dependence-mode handlers lean on the front-end resolver: variable
   name arguments arrive as [Ident] nodes whose [lex] stamp carries
   the packed (depth, slot) address, so variable reads/writes and the
   owner-scope lookup skip the scope-chain string search; property
   names use their interned symbols as runtime keys. A literal name
   argument is a constant the original program would not have
   evaluated, so skipping its evaluation is compensated with the one
   [cost_node] tick the evaluation would have charged — the virtual
   clock (and with it every golden and chaos schedule) is unchanged.
   The same goes for the number and string literals the instrumenter
   passes as line, operator and property-name operands: they are read
   straight off the AST, not boxed by [eval]. Element accesses on a
   dense, untagged array go by the index symbol's precomputed array
   index, charged the [cost_prop] tick the plain [Index] path charges;
   every other receiver and key takes the string-keyed property path.
   Unresolved names ([lex = -1]: catch variables, wrapper bindings,
   implicit globals, or a program run without resolution) take the
   original dynamic path. *)

open Interp.Value
module Symbol = Ceres_util.Symbol

let ev st scope this e = Interp.Eval.eval st scope this e

(* Literal operands skip [eval] but pay its [cost_node] tick. *)
let expect_num st scope this (e : Jsir.Ast.expr) =
  match e.e with
  | Jsir.Ast.Number f ->
    Interp.Eval.tick st 1;
    int_of_float f
  | _ ->
    (match ev st scope this e with
     | Num f -> int_of_float f
     | v -> type_error st ("intrinsic expected a number, got " ^ type_of v))

let expect_str st scope this (e : Jsir.Ast.expr) =
  match e.e with
  | Jsir.Ast.String s ->
    Interp.Eval.tick st 1;
    s
  | _ ->
    (match ev st scope this e with
     | Str s -> s
     | v -> type_error st ("intrinsic expected a string, got " ^ type_of v))

let register st name handler = register_intrinsic st name handler

(* The name argument of a variable-write intrinsic, without evaluating
   it as a variable reference: an [Ident] is a constant here, charged
   the [cost_node] tick its evaluation would have cost. *)
let constant_name st scope this (name_e : Jsir.Ast.expr) =
  match name_e.Jsir.Ast.e with
  | Jsir.Ast.Ident x ->
    Interp.Eval.tick st 1 (* cost_node for the skipped literal eval *);
    x
  | _ -> expect_str st scope this name_e

(* The packed lexical address of a name argument; only an [Ident]'s
   [lex] is an address (a string literal's is its symbol). *)
let name_lex (name_e : Jsir.Ast.expr) =
  match name_e.Jsir.Ast.e with
  | Jsir.Ast.Ident _ -> name_e.Jsir.Ast.lex
  | _ -> -1

let lex_global_depth = 0xFFF

let owner_of_lex st scope lex =
  if lex land 0xFFF = lex_global_depth then st.global_scope
  else frame_up scope (lex land 0xFFF)

(* Type tag for the polymorphism monitor: distinguishes null from real
   objects (the paper excludes defined/undefined/null flips). *)
let type_tag_of = function
  | Null -> "null"
  | v -> type_of v

let binop_of_name = function
  | "+" -> Jsir.Ast.Add
  | "-" -> Jsir.Ast.Sub
  | "*" -> Jsir.Ast.Mul
  | "/" -> Jsir.Ast.Div
  | "%" -> Jsir.Ast.Mod
  | "&" -> Jsir.Ast.Band
  | "|" -> Jsir.Ast.Bor
  | "^" -> Jsir.Ast.Bxor
  | "<<" -> Jsir.Ast.Lshift
  | ">>" -> Jsir.Ast.Rshift
  | ">>>" -> Jsir.Ast.Urshift
  | op -> invalid_arg ("Install.binop_of_name: " ^ op)

(* ------------------------------------------------------------------ *)

let lightweight st : Lightweight.t =
  let lw = Lightweight.create st.clock in
  register st "__ceres_light_enter" (fun _ _ _ _ ->
      Lightweight.on_enter lw;
      Undefined);
  register st "__ceres_light_exit" (fun _ _ _ _ ->
      Lightweight.on_exit lw;
      Undefined);
  lw

let loop_profile st (infos : Jsir.Loops.info array) : Loop_profile.t =
  let lp = Loop_profile.create st.clock infos in
  register st "__ceres_loop_enter" (fun st scope this args ->
      (match args with
       | [ id ] -> Loop_profile.on_enter lp (expect_num st scope this id)
       | _ -> ());
      Undefined);
  register st "__ceres_loop_iter" (fun st scope this args ->
      (match args with
       | [ id ] -> Loop_profile.on_iter lp (expect_num st scope this id)
       | _ -> ());
      Undefined);
  register st "__ceres_loop_exit" (fun st scope this args ->
      (match args with
       | [ id ] -> Loop_profile.on_exit lp (expect_num st scope this id)
       | _ -> ());
      Undefined);
  lp

(* ------------------------------------------------------------------ *)

let dependence ?focus st (infos : Jsir.Loops.info array) : Runtime.t =
  let rt = Runtime.create ?focus ~symtab:st.symtab infos in
  let loop_event f =
    fun st scope this args ->
      (match args with
       | [ id ] -> f rt (expect_num st scope this id)
       | _ -> ());
      Undefined
  in
  register st "__ceres_loop_enter" (loop_event Runtime.on_loop_enter);
  register st "__ceres_loop_iter" (loop_event Runtime.on_loop_iter);
  register st "__ceres_loop_exit" (loop_event Runtime.on_loop_exit);
  register st "__ceres_fn_scope" (fun _ scope _ _ ->
      Runtime.on_scope_created rt ~sid:scope.sid;
      Undefined);
  register st "__ceres_created" (fun st scope this args ->
      match args with
      | [ e ] ->
        let v = ev st scope this e in
        (match v with
         | Obj o -> Runtime.on_object_created rt ~oid:o.oid
         | _ -> ());
        v
      | _ -> type_error st "__ceres_created arity");
  (* --- variables --- *)
  let owner_sid_dyn scope name =
    match owner_scope scope name with Some s -> s.sid | None -> -1
  in
  let var_write_handler ~induction =
    fun st scope this args ->
      match args with
      | [ name_e; line_e; op_e; rhs_e ] ->
        let name = constant_name st scope this name_e in
        let line = expect_num st scope this line_e in
        let op = expect_str st scope this op_e in
        let lex = name_lex name_e in
        let v =
          if String.equal op "=" then ev st scope this rhs_e
          else begin
            let old_v =
              if lex >= 0 then get_lex st scope lex
              else get_var st scope name
            in
            let rhs_v = ev st scope this rhs_e in
            Interp.Eval.eval_binop st (binop_of_name op) old_v rhs_v
          end
        in
        let sym, owner_sid =
          if lex >= 0 then begin
            let owner = owner_of_lex st scope lex in
            (Array.unsafe_get owner.syms (lex lsr 12), owner.sid)
          end
          else (Symbol.intern st.symtab name, owner_sid_dyn scope name)
        in
        Runtime.on_var_write ~induction
          ~accum:(not (String.equal op "="))
          rt ~sym ~owner_sid ~line;
        Runtime.note_type rt ~name ~line ~type_tag:(type_tag_of v);
        if lex >= 0 then set_lex st scope lex v else set_var st scope name v;
        v
      | _ -> type_error st "__ceres_var_write arity"
  in
  register st "__ceres_var_write" (var_write_handler ~induction:false);
  register st "__ceres_induction_write" (var_write_handler ~induction:true);
  let var_update_handler ~induction =
    fun st scope this args ->
      match args with
      | [ name_e; line_e; kind_e; prefix_e ] ->
        let name = constant_name st scope this name_e in
        let line = expect_num st scope this line_e in
        let kind = expect_str st scope this kind_e in
        let prefix = to_boolean (ev st scope this prefix_e) in
        let lex = name_lex name_e in
        let old_n =
          to_number st
            (if lex >= 0 then get_lex st scope lex
             else get_var st scope name)
        in
        let new_n =
          if String.equal kind "++" then old_n +. 1. else old_n -. 1.
        in
        let sym, owner_sid =
          if lex >= 0 then begin
            let owner = owner_of_lex st scope lex in
            (Array.unsafe_get owner.syms (lex lsr 12), owner.sid)
          end
          else (Symbol.intern st.symtab name, owner_sid_dyn scope name)
        in
        Runtime.on_var_write ~induction ~accum:true rt ~sym ~owner_sid ~line;
        Runtime.note_type rt ~name ~line ~type_tag:"number";
        if lex >= 0 then set_lex st scope lex (Num new_n)
        else set_var st scope name (Num new_n);
        Num (if prefix then new_n else old_n)
      | _ -> type_error st "__ceres_var_update arity"
  in
  register st "__ceres_var_update" (var_update_handler ~induction:false);
  register st "__ceres_induction_update" (var_update_handler ~induction:true);
  (* --- properties ---
     The characterization basis depends on how the receiver is named:
     [p.vX = ...] with [p] a plain variable is characterized through
     the binding [p] (the paper's N-body discussion), while receivers
     from arbitrary expressions use the object's creation stamp. *)
  let basis_of st scope (obj_e : Jsir.Ast.expr) : Runtime.basis =
    match obj_e.Jsir.Ast.e with
    | Jsir.Ast.Ident x ->
      let lex = obj_e.Jsir.Ast.lex in
      if lex >= 0 then Runtime.Via_binding (owner_of_lex st scope lex).sid
      else Runtime.Via_binding (owner_sid_dyn scope x)
    | _ -> Runtime.Via_object
  in
  (* The interned symbol of a property-name literal (stamped by the
     resolver; interned here only on the unresolved path). *)
  let prop_sym st (prop_e : Jsir.Ast.expr) prop =
    match prop_e.Jsir.Ast.e with
    | Jsir.Ast.String _ when prop_e.Jsir.Ast.lex >= 0 ->
      prop_e.Jsir.Ast.lex
    | _ -> Symbol.intern st.symtab prop
  in
  (* The interned symbol of a computed index. Integer indices reuse
     the symbol cache instead of printing a fresh string per access;
     anything else goes through [to_string] exactly as an ordinary
     index expression would (including user [toString] calls). *)
  let index_sym st v =
    match v with
    | Num f
      when Float.is_integer f
           && (not (Float.sign_bit f))
           && f < 1073741824. ->
      Symbol.of_index st.symtab (int_of_float f)
    | Str s -> Symbol.intern st.symtab s
    | v -> Symbol.intern st.symtab (to_string st v)
  in
  (* The element index a property symbol addresses on a dense,
     untagged array receiver, or -1: the cases where the plain [Index]
     path would not build a key string either. *)
  let elem_index st base psym =
    match base with
    | Obj { arr = Some _; host_tag = None; _ } ->
      let i = Symbol.array_index st.symtab psym in
      if i < 0x40000000 then i else -1
    | _ -> -1
  in
  let get_elem st base psym =
    let i = elem_index st base psym in
    match base with
    | Obj ({ arr = Some a; _ } as o) when i >= 0 ->
      Interp.Eval.tick st 1 (* cost_prop *);
      if i < a.len then Array.unsafe_get a.elems i
      else get_prop_obj o (Symbol.name st.symtab psym)
    | _ -> Interp.Eval.get_prop st base (Symbol.name st.symtab psym)
  in
  let set_elem st base psym v =
    let i = elem_index st base psym in
    match base with
    | Obj { arr = Some a; _ } when i >= 0 ->
      Interp.Eval.tick st 1 (* cost_prop *);
      array_store_set a i v
    | _ -> Interp.Eval.set_prop st base (Symbol.name st.symtab psym) v
  in
  let record_read base psym line =
    match base with
    | Obj o -> Runtime.on_prop_read rt ~oid:o.oid ~prop:psym ~line
    | _ -> ()
  in
  let record_write ~basis base psym line =
    match base with
    | Obj o -> Runtime.on_prop_write rt ~basis ~oid:o.oid ~prop:psym ~line
    | _ -> ()
  in
  let do_prop_write st scope this ~basis base psym line op rhs_e =
    let v =
      if String.equal op "=" then ev st scope this rhs_e
      else begin
        record_read base psym line;
        let old_v = get_elem st base psym in
        let rhs_v = ev st scope this rhs_e in
        Interp.Eval.eval_binop st (binop_of_name op) old_v rhs_v
      end
    in
    record_write ~basis base psym line;
    Runtime.note_type rt
      ~name:(Symbol.canonical st.symtab psym)
      ~line ~type_tag:(type_tag_of v);
    set_elem st base psym v;
    v
  in
  register st "__ceres_prop_write" (fun st scope this args ->
      match args with
      | [ obj_e; prop_e; line_e; op_e; rhs_e ] ->
        let base = ev st scope this obj_e in
        let prop = expect_str st scope this prop_e in
        let line = expect_num st scope this line_e in
        let op = expect_str st scope this op_e in
        let basis = basis_of st scope obj_e in
        do_prop_write st scope this ~basis base (prop_sym st prop_e prop) line
          op rhs_e
      | _ -> type_error st "__ceres_prop_write arity");
  register st "__ceres_index_write" (fun st scope this args ->
      match args with
      | [ obj_e; idx_e; line_e; op_e; rhs_e ] ->
        let base = ev st scope this obj_e in
        let psym = index_sym st (ev st scope this idx_e) in
        let line = expect_num st scope this line_e in
        let op = expect_str st scope this op_e in
        let basis = basis_of st scope obj_e in
        do_prop_write st scope this ~basis base psym line op rhs_e
      | _ -> type_error st "__ceres_index_write arity");
  let do_prop_update st ~basis base psym line kind prefix =
    record_read base psym line;
    let old_n = to_number st (get_elem st base psym) in
    let new_n = if String.equal kind "++" then old_n +. 1. else old_n -. 1. in
    record_write ~basis base psym line;
    set_elem st base psym (Num new_n);
    Num (if prefix then new_n else old_n)
  in
  register st "__ceres_prop_update" (fun st scope this args ->
      match args with
      | [ obj_e; prop_e; line_e; kind_e; prefix_e ] ->
        let base = ev st scope this obj_e in
        let prop = expect_str st scope this prop_e in
        let line = expect_num st scope this line_e in
        let kind = expect_str st scope this kind_e in
        let prefix = to_boolean (ev st scope this prefix_e) in
        do_prop_update st ~basis:(basis_of st scope obj_e) base
          (prop_sym st prop_e prop)
          line kind prefix
      | _ -> type_error st "__ceres_prop_update arity");
  register st "__ceres_index_update" (fun st scope this args ->
      match args with
      | [ obj_e; idx_e; line_e; kind_e; prefix_e ] ->
        let base = ev st scope this obj_e in
        let psym = index_sym st (ev st scope this idx_e) in
        let line = expect_num st scope this line_e in
        let kind = expect_str st scope this kind_e in
        let prefix = to_boolean (ev st scope this prefix_e) in
        do_prop_update st ~basis:(basis_of st scope obj_e) base psym line kind
          prefix
      | _ -> type_error st "__ceres_index_update arity");
  register st "__ceres_prop_read" (fun st scope this args ->
      match args with
      | [ obj_e; prop_e; line_e ] ->
        let base = ev st scope this obj_e in
        let prop = expect_str st scope this prop_e in
        let line = expect_num st scope this line_e in
        record_read base (prop_sym st prop_e prop) line;
        Interp.Eval.get_prop st base prop
      | _ -> type_error st "__ceres_prop_read arity");
  register st "__ceres_index_read" (fun st scope this args ->
      match args with
      | [ obj_e; idx_e; line_e ] ->
        let base = ev st scope this obj_e in
        let psym = index_sym st (ev st scope this idx_e) in
        let line = expect_num st scope this line_e in
        record_read base psym line;
        get_elem st base psym
      | _ -> type_error st "__ceres_index_read arity");
  let method_call st scope this base psym line arg_es =
    record_read base psym line;
    let fn = Interp.Eval.get_prop st base (Symbol.name st.symtab psym) in
    let args = List.map (ev st scope this) arg_es in
    Interp.Eval.call st fn base args
  in
  register st "__ceres_method_call" (fun st scope this args ->
      match args with
      | obj_e :: prop_e :: line_e :: arg_es ->
        let base = ev st scope this obj_e in
        let prop = expect_str st scope this prop_e in
        let line = expect_num st scope this line_e in
        method_call st scope this base (prop_sym st prop_e prop) line arg_es
      | _ -> type_error st "__ceres_method_call arity");
  register st "__ceres_index_method_call" (fun st scope this args ->
      match args with
      | obj_e :: idx_e :: line_e :: arg_es ->
        let base = ev st scope this obj_e in
        let psym = index_sym st (ev st scope this idx_e) in
        let line = expect_num st scope this line_e in
        method_call st scope this base psym line arg_es
      | _ -> type_error st "__ceres_index_method_call arity");
  (* DOM/canvas attribution: chain any existing host-access listener. *)
  let previous = st.on_host_access in
  st.on_host_access <-
    (fun category op ->
       previous category op;
       Runtime.on_host_access rt);
  rt
