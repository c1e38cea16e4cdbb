(* Tree-walking evaluator for MiniJS.

   Evaluation advances the state's virtual clock by a small cost per
   operation, which is what makes the reproduction's Table 2/3 timings
   deterministic. Analysis instrumentation reaches the evaluator only
   through [Ast.Intrinsic] nodes, dispatched to handlers registered in
   [state.intrinsics]; an uninstrumented program runs with zero
   analysis overhead, mirroring the paper's staged methodology. *)

open Jsir.Ast
open Value

type completion =
  | Cnormal
  | Creturn of value
  | Cbreak of string option (* optional target label *)
  | Ccontinue of string option

(* Per-operation vtick costs. The absolute values are arbitrary; only
   ratios matter for the reproduced tables. *)
let cost_node = 1
let cost_prop = 1
let cost_call = 4
let cost_alloc = 3

(* Allocation-free: the clock's counters are native ints, so a tick is
   an add, the probe's load + branch, and an int compare. *)
let[@inline] tick st n =
  Ceres_util.Vclock.advance st.clock n;
  (match st.on_tick with None -> () | Some probe -> probe n);
  if st.clock.busy_ticks > st.budget then raise Budget_exhausted

(* ------------------------------------------------------------------ *)
(* Hoisting: collect var-declared names and function declarations of a
   function (or program) body, without descending into nested
   functions. *)

let rec hoisted_names acc stmts =
  List.fold_left hoisted_of_stmt acc stmts

and hoisted_of_stmt acc (s : stmt) =
  match s.s with
  | Var_decl decls -> List.fold_left (fun acc (n, _) -> n :: acc) acc decls
  | Func_decl f ->
    (match f.fname with Some n -> n :: acc | None -> acc)
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

(* ------------------------------------------------------------------ *)

let make_closure st scope (f : func) =
  let fo = make_function st (Closure { fn = f; captured = scope }) in
  (* Give every closure a fresh [prototype] for [new]. *)
  let proto_obj = make_obj st in
  raw_set_prop proto_obj "constructor" (Obj fo);
  raw_set_prop fo "prototype" (Obj proto_obj);
  raw_set_prop fo "length" (Num (float_of_int (List.length f.params)));
  (match f.fname with
   | Some n -> raw_set_prop fo "name" (Str n)
   | None -> ());
  fo

let hoist_into st scope stmts =
  let names = hoisted_names [] stmts in
  List.iter (declare scope) names;
  (* Function declarations are initialised at scope entry. *)
  let decls = List.rev (function_decls [] stmts) in
  List.iter
    (fun (f : func) ->
       match f.fname with
       | Some n -> set_var st scope n (Obj (make_closure st scope f))
       | None -> ())
    decls

(* Attach a resolved program's global layout onto the state's global
   scope: grow the shared slot store to the symbol table's global
   registry, enter this program's names, and initialise its function
   declarations — same closure-creation order as [hoist_into], so
   object ids line up with the dynamic path. Bindings made dynamically
   (implicit globals, unresolved programs) migrate into their slot the
   first time a program hoists the name. *)
let attach_global st (p : program) =
  match p.glayout with
  | None -> hoist_into st st.global_scope p.stmts
  | Some glay ->
    let g = st.global_scope in
    let gl =
      match g.ltab with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 64 in
        g.ltab <- Some t;
        t
    in
    let cap = Ceres_util.Symbol.global_slot_count st.symtab in
    let len = Array.length g.slots in
    if len < cap then begin
      let slots = Array.make cap Undefined in
      Array.blit g.slots 0 slots 0 len;
      g.slots <- slots;
      let syms = Array.make cap (-1) in
      Array.blit g.syms 0 syms 0 len;
      g.syms <- syms
    end;
    Hashtbl.iter
      (fun name slot ->
         if not (Hashtbl.mem gl name) then begin
           Hashtbl.replace gl name slot;
           g.syms.(slot) <- glay.l_syms.(slot);
           match Strtbl.find_opt g.vars name with
           | Some cell ->
             g.slots.(slot) <- cell.v;
             Strtbl.remove g.vars name
           | None -> ()
         end)
      glay.l_table;
    List.iter
      (fun (slot, f) -> g.slots.(slot) <- Obj (make_closure st g f))
      glay.l_decls

(* Property access on arbitrary values. *)
let get_prop st v key =
  tick st cost_prop;
  match v with
  | Obj o -> get_prop_obj o key
  | Str s ->
    if String.equal key "length" then Num (float_of_int (String.length s))
    else
      (match array_index_of_key key with
       | Some i when i < String.length s -> Str (String.make 1 s.[i])
       | Some _ -> Undefined
       | None -> get_prop_obj st.string_proto key)
  | Num _ -> get_prop_obj st.number_proto key
  | Bool _ -> get_prop_obj st.object_proto key
  | Undefined | Null ->
    type_error st
      (Printf.sprintf "cannot read property %S of %s" key (type_of v))

let set_prop st v key value =
  tick st cost_prop;
  match v with
  | Obj o ->
    (* Writing a DOM element property (innerHTML, textContent, style
       members, ...) mutates browser state: report it as DOM traffic. *)
    (match o.host_tag with
     | Some "element" -> st.on_host_access "dom" ("set " ^ key)
     | _ -> ());
    set_prop_obj o key value
  | Undefined | Null ->
    type_error st
      (Printf.sprintf "cannot set property %S of %s" key (type_of v))
  | _ -> () (* writes to primitives are silently dropped, as in JS *)

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)

(* The helpers below are top-level functions rather than local
   closures, so calls and statements allocate none of their own. *)
let exit_call st =
  st.on_call_exit ();
  st.call_depth <- st.call_depth - 1

let rec bind_params slots param_slots i = function
  | [] -> ()
  | a :: rest ->
    if i < Array.length param_slots then begin
      Array.unsafe_set slots (Array.unsafe_get param_slots i) a;
      bind_params slots param_slots (i + 1) rest
    end

(* A break/continue label [l] targets the loop carrying [label]; [None]
   targets the innermost loop. *)
let targets label l =
  match l, label with
  | None, _ -> true
  | Some l, Some label -> String.equal l label
  | Some _, None -> false

let rec call st (callee : value) (this : value) (args : value list) : value =
  tick st cost_call;
  match callee with
  | Obj ({ call = Some c; _ } as fo) ->
    st.call_depth <- st.call_depth + 1;
    if st.call_depth > st.max_call_depth then begin
      st.call_depth <- st.call_depth - 1;
      throw_error st "RangeError" "maximum call stack size exceeded"
    end;
    (* One handler, no closures: the exit hook, then the depth
       decrement, on the normal and the exceptional path alike. *)
    (match
       match c with
       | Host (name, fn) ->
         st.on_call_enter (Some name);
         fn st this args
       | Closure { fn; captured } ->
         st.on_call_enter fn.fname;
         call_closure st fo fn captured this args
     with
     | v ->
       exit_call st;
       v
     | exception e ->
       exit_call st;
       raise e)
  | _ -> type_error st (type_of callee ^ " is not a function")

and call_closure st fo (fn : func) captured this args =
  match fn.layout with
  | Some lay -> call_closure_fast st fo fn lay captured this args
  | None -> call_closure_dyn st fo fn captured this args

(* Resolved path: the frame is a slot array; parameters, [arguments],
   hoisted names and function declarations all have fixed slots. The
   wrapper scope for a named function expression is only tested for
   when the resolver could not prove the name statically bound. Object
   ids line up with the dynamic path (same closure-creation order); the
   [arguments] array is only allocated when it is observable. *)
and call_closure_fast st fo (fn : func) (lay : layout) captured this args =
  let base =
    match fn.fname with
    | Some name when (not lay.l_fname_static) && not (var_exists captured name)
      ->
      let wrapper = fresh_scope st (Some captured) in
      declare wrapper name;
      (match Strtbl.find_opt wrapper.vars name with
       | Some cell -> cell.v <- Obj fo
       | None -> ());
      wrapper
    | _ -> captured
  in
  let scope = fresh_scope st (Some base) in
  scope.ltab <- Some lay.l_table;
  scope.syms <- lay.l_syms;
  scope.slots <- Array.make lay.l_size Undefined;
  scope.fup <-
    (let rec enclosing s =
       if s.ltab != None then Some s
       else match s.parent with Some p -> enclosing p | None -> None
     in
     enclosing captured);
  let slots = scope.slots in
  bind_params slots lay.l_param_slots 0 args;
  if lay.l_uses_arguments then
    slots.(lay.l_arguments) <- Obj (make_array st (Array.of_list args));
  List.iter
    (fun (slot, f) -> slots.(slot) <- Obj (make_closure st scope f))
    lay.l_decls;
  match exec_stmts st scope this fn.body with
  | Creturn v -> v
  | Cnormal -> Undefined
  | Cbreak _ | Ccontinue _ ->
    type_error st "break/continue escaped function body"

and call_closure_dyn st fo (fn : func) captured this args =
  (* A named function expression sees its own name. *)
  let base =
    match fn.fname with
    | Some name when not (var_exists captured name) ->
      let wrapper = fresh_scope st (Some captured) in
      declare wrapper name;
      (match Strtbl.find_opt wrapper.vars name with
       | Some cell -> cell.v <- Obj fo
       | None -> ());
      wrapper
    | _ -> captured
  in
  let scope = fresh_scope st (Some base) in
  let rec bind params args =
    match params, args with
    | [], _ -> ()
    | p :: ps, [] ->
      declare scope p;
      bind ps []
    | p :: ps, a :: rest ->
      declare scope p;
      (match Strtbl.find_opt scope.vars p with
       | Some cell -> cell.v <- a
       | None -> ());
      bind ps rest
  in
  bind fn.params args;
  (* [arguments] array, used by a couple of workloads. *)
  declare scope "arguments";
  (match Strtbl.find_opt scope.vars "arguments" with
   | Some cell -> cell.v <- Obj (make_array st (Array.of_list args))
   | None -> ());
  hoist_into st scope fn.body;
  match exec_stmts st scope this fn.body with
  | Creturn v -> v
  | Cnormal -> Undefined
  | Cbreak _ | Ccontinue _ ->
    type_error st "break/continue escaped function body"

and construct st (callee : value) (args : value list) : value =
  match callee with
  | Obj ({ call = Some _; _ } as fo) ->
    tick st cost_alloc;
    let proto =
      match raw_get_own fo "prototype" with
      | Some (Obj p) -> Some p
      | _ -> Some st.object_proto
    in
    let obj = make_obj ~proto st in
    (match call st callee (Obj obj) args with
     | Obj _ as result -> result
     | _ -> Obj obj)
  | _ -> type_error st (type_of callee ^ " is not a constructor")

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

and eval st scope this (e : expr) : value =
  tick st cost_node;
  match e.e with
  | Number f -> Num f
  | String s -> Str s
  | Bool b -> Bool b
  | Null -> Null
  | Undefined -> Undefined
  | This -> this
  | Ident name ->
    let lex = e.lex in
    if lex >= 0 then get_lex st scope lex else get_var st scope name
  | Array_lit elems ->
    tick st cost_alloc;
    let values = eval_list st scope this elems in
    Obj (make_array st (Array.of_list values))
  | Object_lit props ->
    tick st cost_alloc;
    let o = make_obj st in
    List.iter
      (fun (k, ve) -> raw_set_prop o k (eval st scope this ve))
      props;
    Obj o
  | Function_expr f ->
    tick st cost_alloc;
    Obj (make_closure st scope f)
  | Member (oe, field) ->
    let base = eval st scope this oe in
    get_prop st base field
  | Index (oe, ie) ->
    let base = eval st scope this oe in
    let idx = eval st scope this ie in
    (* Dense-array hot path: integer index, no string ever built.
       [-0.] must fall through (its key is "-0", not an index). *)
    (match base, idx with
     | Obj ({ arr = Some a; _ } as o), Num f
       when Float.is_integer f && (not (Float.sign_bit f))
            && f < 1073741824. ->
       tick st cost_prop;
       let i = int_of_float f in
       if i < a.len then Array.unsafe_get a.elems i
       else get_prop_obj o (string_of_int i)
     | _ -> get_prop st base (to_string st idx))
  | Call (callee_e, arg_es) ->
    (* Method calls bind [this] to the receiver. *)
    (match callee_e.e with
     | Member (oe, field) ->
       let base = eval st scope this oe in
       let fn = get_prop st base field in
       let args = eval_list st scope this arg_es in
       st.on_call_site e.at.left.line fn (List.length args);
       call st fn base args
     | Index (oe, ie) ->
       let base = eval st scope this oe in
       let idx = eval st scope this ie in
       let fn = get_prop st base (to_string st idx) in
       let args = eval_list st scope this arg_es in
       st.on_call_site e.at.left.line fn (List.length args);
       call st fn base args
     | _ ->
       let fn = eval st scope this callee_e in
       let args = eval_list st scope this arg_es in
       st.on_call_site e.at.left.line fn (List.length args);
       call st fn (Obj st.global_obj) args)
  | New (callee_e, arg_es) ->
    let fn = eval st scope this callee_e in
    let args = eval_list st scope this arg_es in
    construct st fn args
  | Unop (op, operand) -> eval_unop st scope this op operand
  | Binop (op, l, r) ->
    let lv = eval st scope this l in
    let rv = eval st scope this r in
    eval_binop st op lv rv
  | Logical (And, l, r) ->
    let lv = eval st scope this l in
    if to_boolean lv then eval st scope this r else lv
  | Logical (Or, l, r) ->
    let lv = eval st scope this l in
    if to_boolean lv then lv else eval st scope this r
  | Cond (c, t, f) ->
    if to_boolean (eval st scope this c) then eval st scope this t
    else eval st scope this f
  | Assign (tgt, None, rhs) ->
    let r = eval_ref st scope this e.lex tgt in
    let v = eval st scope this rhs in
    write_ref st scope r v;
    v
  | Assign (tgt, Some op, rhs) ->
    let r = eval_ref st scope this e.lex tgt in
    let old_v = read_ref st scope r in
    let rhs_v = eval st scope this rhs in
    let v = eval_binop st op old_v rhs_v in
    write_ref st scope r v;
    v
  | Update (kind, prefix, tgt) ->
    let r = eval_ref st scope this e.lex tgt in
    let old_n = to_number st (read_ref st scope r) in
    let new_n = match kind with Incr -> old_n +. 1. | Decr -> old_n -. 1. in
    write_ref st scope r (Num new_n);
    Num (if prefix then new_n else old_n)
  | Seq (l, r) ->
    ignore (eval st scope this l);
    eval st scope this r
  | Intrinsic (name, args) ->
    (* Dispatch cache keyed on the interned intrinsic name ([e.lex]):
       the per-node string hash is paid once, then it's an array load. *)
    let sym = e.lex in
    let cache = st.intrinsic_fast in
    if sym >= 0 && sym < Array.length cache then
      match Array.unsafe_get cache sym with
      | Some handler -> handler st scope this args
      | None -> dispatch_intrinsic st scope this sym name args
    else dispatch_intrinsic st scope this sym name args

and dispatch_intrinsic st scope this sym name args =
  match Hashtbl.find_opt st.intrinsics name with
  | Some handler ->
    if sym >= 0 then begin
      let cache = st.intrinsic_fast in
      let len = Array.length cache in
      if sym >= len then begin
        let grown = Array.make (max (sym + 1) (max 64 (2 * len))) None in
        Array.blit cache 0 grown 0 len;
        st.intrinsic_fast <- grown
      end;
      st.intrinsic_fast.(sym) <- Some handler
    end;
    handler st scope this args
  | None -> type_error st (Printf.sprintf "unknown intrinsic %s" name)

(* A reference: either a variable or an (object, key) slot. Evaluating
   the reference once and reusing it gives compound assignments and
   updates single-evaluation semantics. *)
and eval_ref st scope this lex (tgt : target) =
  match tgt with
  | Tgt_ident name -> if lex >= 0 then `Lex lex else `Var name
  | Tgt_member (oe, field) ->
    let base = eval st scope this oe in
    `Slot (base, field)
  | Tgt_index (oe, ie) ->
    let base = eval st scope this oe in
    let idx = eval st scope this ie in
    (match base, idx with
     | Obj ({ arr = Some _; host_tag = None; _ } as o), Num f
       when Float.is_integer f && (not (Float.sign_bit f))
            && f < 1073741824. ->
       `Elem (o, int_of_float f)
     | _ -> `Slot (base, to_string st idx))

and read_ref st scope = function
  | `Var name -> get_var st scope name
  | `Lex lex -> get_lex st scope lex
  | `Slot (base, key) -> get_prop st base key
  | `Elem (o, i) ->
    tick st cost_prop;
    (match o.arr with
     | Some a when i < a.len -> Array.unsafe_get a.elems i
     | _ -> get_prop_obj o (string_of_int i))

and write_ref st scope r v =
  match r with
  | `Var name -> set_var st scope name v
  | `Lex lex -> set_lex st scope lex v
  | `Slot (base, key) -> set_prop st base key v
  | `Elem (o, i) ->
    tick st cost_prop;
    (match o.arr with
     | Some a -> array_store_set a i v
     | None -> set_prop_obj o (string_of_int i) v)

(* [List.map (eval st scope this)] without the partial application;
   left to right, like [List.map]. *)
and eval_list st scope this = function
  | [] -> []
  | e :: rest ->
    let v = eval st scope this e in
    v :: eval_list st scope this rest

and eval_unop st scope this op operand =
  match op with
  | Typeof ->
    (* typeof of an undeclared variable must not throw. *)
    (match operand.e with
     | Ident name ->
       if operand.lex >= 0 then Str (type_of (get_lex st scope operand.lex))
       else (
         match var_home scope name with
         | Some (s, slot) -> Str (type_of (scope_read s slot name))
         | None ->
           if has_prop_obj st.global_obj name then
             Str (type_of (get_prop_obj st.global_obj name))
           else Str "undefined")
     | _ -> Str (type_of (eval st scope this operand)))
  | Delete ->
    (match operand.e with
     | Member (oe, field) ->
       (match eval st scope this oe with
        | Obj o -> Bool (raw_delete_prop o field)
        | _ -> Bool true)
     | Index (oe, ie) ->
       let base = eval st scope this oe in
       let key = to_string st (eval st scope this ie) in
       (match base with
        | Obj o ->
          (match o.arr, array_index_of_key key with
           | Some a, Some i when i < a.len ->
             a.elems.(i) <- Undefined;
             Bool true
           | _ -> Bool (raw_delete_prop o key))
        | _ -> Bool true)
     | _ -> Bool true)
  | Neg -> Num (-.to_number st (eval st scope this operand))
  | Positive -> Num (to_number st (eval st scope this operand))
  | Not -> Bool (not (to_boolean (eval st scope this operand)))
  | Bitnot ->
    Num (Int32.to_float (Int32.lognot (to_int32 st (eval st scope this operand))))
  | Void ->
    ignore (eval st scope this operand);
    Undefined

and eval_binop st op lv rv =
  match op with
  | Add ->
    let lp = to_primitive st lv and rp = to_primitive st rv in
    (match lp, rp with
     | Str _, _ | _, Str _ -> Str (to_string st lp ^ to_string st rp)
     | _ -> Num (to_number st lp +. to_number st rp))
  | Sub -> Num (to_number st lv -. to_number st rv)
  | Mul -> Num (to_number st lv *. to_number st rv)
  | Div -> Num (to_number st lv /. to_number st rv)
  | Mod -> Num (Float.rem (to_number st lv) (to_number st rv))
  | Eq -> Bool (abstract_eq st lv rv)
  | Neq -> Bool (not (abstract_eq st lv rv))
  | Strict_eq -> Bool (strict_eq lv rv)
  | Strict_neq -> Bool (not (strict_eq lv rv))
  | Lt | Le | Gt | Ge ->
    let lp = to_primitive st lv and rp = to_primitive st rv in
    (match lp, rp with
     | Str a, Str b ->
       let c = String.compare a b in
       Bool
         (match op with
          | Lt -> c < 0
          | Le -> c <= 0
          | Gt -> c > 0
          | Ge -> c >= 0
          | _ -> assert false)
     | _ ->
       let a = to_number st lp and b = to_number st rp in
       if Float.is_nan a || Float.is_nan b then Bool false
       else
         Bool
           (match op with
            | Lt -> a < b
            | Le -> a <= b
            | Gt -> a > b
            | Ge -> a >= b
            | _ -> assert false))
  | Band ->
    Num (Int32.to_float (Int32.logand (to_int32 st lv) (to_int32 st rv)))
  | Bor ->
    Num (Int32.to_float (Int32.logor (to_int32 st lv) (to_int32 st rv)))
  | Bxor ->
    Num (Int32.to_float (Int32.logxor (to_int32 st lv) (to_int32 st rv)))
  | Lshift ->
    let shift = to_uint32 st rv land 31 in
    Num (Int32.to_float (Int32.shift_left (to_int32 st lv) shift))
  | Rshift ->
    let shift = to_uint32 st rv land 31 in
    Num (Int32.to_float (Int32.shift_right (to_int32 st lv) shift))
  | Urshift ->
    let shift = to_uint32 st rv land 31 in
    Num (float_of_int ((to_uint32 st lv) lsr shift))
  | Instanceof ->
    (match rv with
     | Obj fo when fo.call <> None ->
       (match raw_get_own fo "prototype", lv with
        | Some (Obj proto), Obj o ->
          let rec walk = function
            | None -> false
            | Some p -> p.oid = proto.oid || walk p.proto
          in
          Bool (walk o.proto)
        | _ -> Bool false)
     | _ -> type_error st "right-hand side of instanceof is not callable")
  | In ->
    (match rv with
     | Obj o -> Bool (has_prop_obj o (to_string st lv))
     | _ -> type_error st "right-hand side of 'in' is not an object")

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

and exec_stmts st scope this stmts : completion =
  let rec go = function
    | [] -> Cnormal
    | s :: rest ->
      (match exec_stmt st scope this s with
       | Cnormal -> go rest
       | other -> other)
  in
  go stmts

(* Does a break/continue completion target this loop? [None] targets
   the innermost loop; a label targets the loop carrying it. *)
and exec_stmt st scope this (s : stmt) : completion =
  exec_stmt_labeled st scope this ~label:None s

and exec_stmt_labeled st scope this ~label (s : stmt) : completion =
  tick st cost_node;
  match s.s with
  | Empty -> Cnormal
  | Expr_stmt e ->
    ignore (eval st scope this e);
    Cnormal
  | Var_decl decls ->
    List.iter
      (fun (name, init) ->
         declare scope name;
         match init with
         | None -> ()
         | Some e ->
           let v = eval st scope this e in
           set_var st scope name v)
      decls;
    Cnormal
  | Func_decl _ -> Cnormal (* bound during hoisting *)
  | If (cond, then_s, else_s) ->
    if to_boolean (eval st scope this cond) then exec_stmt st scope this then_s
    else (
      match else_s with
      | Some s -> exec_stmt st scope this s
      | None -> Cnormal)
  | While (_, cond, body) ->
    let rec loop () =
      if to_boolean (eval st scope this cond) then
        match exec_stmt st scope this body with
        | Cnormal -> loop ()
        | Ccontinue l when targets label l -> loop ()
        | Cbreak l when targets label l -> Cnormal
        | (Creturn _ | Cbreak _ | Ccontinue _) as r -> r
      else Cnormal
    in
    loop ()
  | Do_while (_, body, cond) ->
    let rec loop () =
      match exec_stmt st scope this body with
      | Cnormal ->
        if to_boolean (eval st scope this cond) then loop () else Cnormal
      | Ccontinue l when targets label l ->
        if to_boolean (eval st scope this cond) then loop () else Cnormal
      | Cbreak l when targets label l -> Cnormal
      | (Creturn _ | Cbreak _ | Ccontinue _) as r -> r
    in
    loop ()
  | For (lid, init, cond, update, body) ->
    (match init with
     | None -> ()
     | Some (Init_expr e) -> ignore (eval st scope this e)
     | Some (Init_var decls) ->
       List.iter
         (fun (name, ie) ->
            declare scope name;
            match ie with
            | None -> ()
            | Some e -> set_var st scope name (eval st scope this e))
         decls);
    let hook_ran =
      match st.on_loop with
      | None -> false
      | Some hook ->
        hook st scope this
          { lv_id = lid; lv_cond = cond; lv_update = update; lv_body = body }
    in
    if hook_ran then Cnormal
    else
    let test () =
      match cond with
      | None -> true
      | Some c -> to_boolean (eval st scope this c)
    in
    let step () =
      match update with
      | None -> ()
      | Some u -> ignore (eval st scope this u)
    in
    let rec loop () =
      if test () then
        match exec_stmt st scope this body with
        | Cnormal ->
          step ();
          loop ()
        | Ccontinue l when targets label l ->
          step ();
          loop ()
        | Cbreak l when targets label l -> Cnormal
        | (Creturn _ | Cbreak _ | Ccontinue _) as r -> r
      else Cnormal
    in
    loop ()
  | For_in (_, binder, obj_e, body) ->
    let keys =
      match eval st scope this obj_e with
      | Obj o -> own_keys o
      | _ -> []
    in
    let name =
      match binder with
      | Binder_var n ->
        declare scope n;
        n
      | Binder_ident n -> n
    in
    let rec loop = function
      | [] -> Cnormal
      | k :: rest ->
        set_var st scope name (Str k);
        (match exec_stmt st scope this body with
         | Cnormal -> loop rest
         | Ccontinue l when targets label l -> loop rest
         | Cbreak l when targets label l -> Cnormal
         | (Creturn _ | Cbreak _ | Ccontinue _) as r -> r)
    in
    loop keys
  | Return e ->
    let v = match e with None -> Undefined | Some e -> eval st scope this e in
    Creturn v
  | Break l -> Cbreak l
  | Continue l -> Ccontinue l
  | Throw e ->
    let v = eval st scope this e in
    raise (Js_throw v)
  | Try (body, catch, finally) ->
    let run_finally () =
      match finally with
      | None -> Cnormal
      | Some fb -> exec_stmts st scope this fb
    in
    let result =
      try `Completion (exec_stmts st scope this body) with
      | Js_throw v ->
        (match catch with
         | Some (name, cbody) ->
           declare scope name;
           set_var st scope name v;
           (try `Completion (exec_stmts st scope this cbody)
            with Js_throw v2 -> `Exn v2)
         | None -> `Exn v)
    in
    (* finally runs on every path; its abrupt completion wins. *)
    (match run_finally () with
     | Cnormal ->
       (match result with
        | `Completion c -> c
        | `Exn v -> raise (Js_throw v))
     | abrupt -> abrupt)
  | Block body -> exec_stmts st scope this body
  | Switch (scrutinee_e, cases) ->
    let v = eval st scope this scrutinee_e in
    let rec find_match = function
      | [] -> None
      | (Some guard, _) :: rest ->
        if strict_eq v (eval st scope this guard) then
          Some (List.length rest)
        else find_match rest
      | (None, _) :: rest -> find_match rest
    in
    let start_from_end =
      match find_match cases with
      | Some n -> Some n
      | None ->
        let rec find_default = function
          | [] -> None
          | (None, _) :: rest -> Some (List.length rest)
          | _ :: rest -> find_default rest
        in
        find_default cases
    in
    (match start_from_end with
     | None -> Cnormal
     | Some from_end ->
       let total = List.length cases in
       let selected = List.filteri (fun i _ -> i >= total - from_end - 1) cases in
       let rec run = function
         | [] -> Cnormal
         | (_, body) :: rest ->
           (match exec_stmts st scope this body with
            | Cnormal -> run rest
            | Cbreak None -> Cnormal
            | other -> other)
       in
       run selected)
  | Labeled (name, body) ->
    (* attach the label to a directly labeled loop so [continue name]
       works; [break name] exits any labeled statement *)
    let result =
      match body.s with
      | While _ | Do_while _ | For _ | For_in _ ->
        exec_stmt_labeled st scope this ~label:(Some name) body
      | _ -> exec_stmt st scope this body
    in
    (match result with
     | Cbreak (Some l) when l = name -> Cnormal
     | other -> other)

(* ------------------------------------------------------------------ *)
(* State construction and program execution                            *)

let default_budget = Int64.of_string "2_000_000_000_000"

let create ?(seed = 20150207) ?(budget = default_budget)
    ?(ticks_per_ms = 100_000) () : state =
  let clock = Ceres_util.Vclock.create ~ticks_per_ms () in
  let prng = Ceres_util.Prng.of_int seed in
  (* Bootstrapping: build a provisional record with placeholder protos,
     then tie the knot. *)
  let dummy_obj =
    { oid = -1; props = Strtbl.create 1; key_order = []; proto = None;
      call = None; arr = None; host_tag = None }
  in
  let st =
    { clock;
      prng;
      symtab = Ceres_util.Symbol.create ();
      global_scope =
        { sid = 0; vars = Strtbl.create 64; parent = None;
          ltab = None; slots = [||]; syms = [||]; fup = None };
      global_obj = dummy_obj;
      object_proto = dummy_obj;
      array_proto = dummy_obj;
      function_proto = dummy_obj;
      string_proto = dummy_obj;
      number_proto = dummy_obj;
      error_proto = dummy_obj;
      next_oid = 1;
      next_sid = 1;
      call_depth = 0;
      max_call_depth = 2000;
      budget = Int64.to_int budget;
      console = [];
      echo_console = false;
      intrinsics = Hashtbl.create 32;
      intrinsic_fast = [||];
      on_scope_create = (fun _ -> ());
      on_call_enter = (fun _ -> ());
      on_call_exit = (fun () -> ());
      on_host_access = (fun _ _ -> ());
      on_tick = None;
      on_call_site = (fun _ _ _ -> ());
      apply = (fun _ _ _ _ -> Undefined);
      events = [];
      next_event_seq = 0;
      host_time_reads = 0;
      on_loop = None }
  in
  let object_proto =
    { oid = 0; props = Strtbl.create 16; key_order = []; proto = None;
      call = None; arr = None; host_tag = None }
  in
  st.object_proto <- object_proto;
  st.array_proto <- make_obj ~proto:(Some object_proto) st;
  st.function_proto <- make_obj ~proto:(Some object_proto) st;
  st.string_proto <- make_obj ~proto:(Some object_proto) st;
  st.number_proto <- make_obj ~proto:(Some object_proto) st;
  st.error_proto <- make_obj ~proto:(Some object_proto) st;
  st.global_obj <- make_obj ~proto:(Some object_proto) st;
  st.apply <- (fun st fn this args -> call st fn this args);
  st

let run_program ?(resolve = true) st (p : program) : unit =
  if resolve then Jsir.Resolve.ensure st.symtab p;
  (match p.resolved_for with
   | Some t when t == st.symtab -> attach_global st p
   | _ -> hoist_into st st.global_scope p.stmts);
  match exec_stmts st st.global_scope (Obj st.global_obj) p.stmts with
  | Cnormal | Creturn _ -> ()
  | Cbreak _ | Ccontinue _ -> type_error st "break/continue at top level"

let eval_in_global st (e : expr) : value =
  eval st st.global_scope (Obj st.global_obj) e
