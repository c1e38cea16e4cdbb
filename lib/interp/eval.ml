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

(* Allocation- and call-free: the clock's counters are native ints, so a
   tick is an add, the probe's load + branch, and an int compare. The
   add is done here rather than through [Vclock.advance]: dune's dev
   profile compiles with [-opaque], so that would be a cross-module call
   on every node, plus a sign check the constant costs never need. *)
let[@inline] tick st n =
  let clock = st.clock in
  clock.busy_ticks <- clock.busy_ticks + n;
  (match st.on_tick with None -> () | Some probe -> probe n);
  if clock.busy_ticks > st.budget then raise Budget_exhausted

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

(* [var] and function-declaration hoisting, with the resolver's
   collection walk: the names an unresolved frame declares are exactly
   the slots a resolved one gets. *)
let hoist_into st scope stmts =
  let names = Jsir.Resolve.hoisted_names [] stmts in
  List.iter (declare scope) names;
  (* Function declarations are initialised at scope entry. *)
  let decls = Jsir.Resolve.function_decls stmts in
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
  | Bool b -> vbool b
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
       when Float.of_int (int_of_float f) = f && (not (Float.sign_bit f))
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
  | Assign (Tgt_ident _, None, rhs) when e.lex >= 0 ->
    (* a resolved name: write the slot, no reference built *)
    let v = eval st scope this rhs in
    set_lex st scope e.lex v;
    v
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
  | Update (kind, prefix, Tgt_ident _) when e.lex >= 0 ->
    let old_v = get_lex st scope e.lex in
    let old_n = match old_v with Num f -> f | v -> to_number st v in
    let new_v =
      Num (match kind with Incr -> old_n +. 1. | Decr -> old_n -. 1.)
    in
    set_lex st scope e.lex new_v;
    if prefix then new_v
    else (match old_v with Num _ -> old_v | _ -> Num old_n)
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
       when Float.of_int (int_of_float f) = f && (not (Float.sign_bit f))
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
  | Not -> vbool (not (to_boolean (eval st scope this operand)))
  | Bitnot ->
    Num (Int32.to_float (Int32.lognot (to_int32 st (eval st scope this operand))))
  | Void ->
    ignore (eval st scope this operand);
    Undefined

(* Number operands take the fast path: the float operation inline, no
   coercion calls. IEEE comparisons are already false on NaN. *)
and eval_binop st op lv rv =
  match lv, rv with
  | Num a, Num b ->
    (match op with
     | Add -> Num (a +. b)
     | Sub -> Num (a -. b)
     | Mul -> Num (a *. b)
     | Div -> Num (a /. b)
     | Mod -> Num (Float.rem a b)
     | Lt -> vbool (a < b)
     | Le -> vbool (a <= b)
     | Gt -> vbool (a > b)
     | Ge -> vbool (a >= b)
     | Eq | Strict_eq -> vbool (a = b)
     | Neq | Strict_neq -> vbool (a <> b)
     | _ -> eval_binop_coerce st op lv rv)
  | _ -> eval_binop_coerce st op lv rv

and eval_binop_coerce st op lv rv =
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
  | Eq -> vbool (abstract_eq st lv rv)
  | Neq -> vbool (not (abstract_eq st lv rv))
  | Strict_eq -> vbool (strict_eq lv rv)
  | Strict_neq -> vbool (not (strict_eq lv rv))
  | Lt | Le | Gt | Ge ->
    let lp = to_primitive st lv and rp = to_primitive st rv in
    (match lp, rp with
     | Str a, Str b ->
       let c = String.compare a b in
       vbool
         (match op with
          | Lt -> c < 0
          | Le -> c <= 0
          | Gt -> c > 0
          | Ge -> c >= 0
          | _ -> assert false)
     | _ ->
       let a = to_number st lp and b = to_number st rp in
       if Float.is_nan a || Float.is_nan b then vbool false
       else
         vbool
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
          vbool (walk o.proto)
        | _ -> vbool false)
     | _ -> type_error st "right-hand side of instanceof is not callable")
  | In ->
    (match rv with
     | Obj o -> vbool (has_prop_obj o (to_string st lv))
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
    declare_all st scope this s.slex decls;
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
     | Some (Init_var decls) -> declare_all st scope this s.slex decls);
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
    (* a stamped binder writes its slot; the others take [set_var] *)
    let lex = if Array.length s.slex > 0 then s.slex.(0) else -1 in
    let name =
      match binder with
      | Binder_var n ->
        if lex < 0 then declare scope n;
        n
      | Binder_ident n -> n
    in
    let rec loop = function
      | [] -> Cnormal
      | k :: rest ->
        if lex >= 0 then set_lex st scope lex (Str k)
        else set_var st scope name (Str k);
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

(* The declarators of a [var] statement or a [for] head. Stamped ones
   ([slex], one address each) write their slot: the frame already has
   it, so an uninitialised one does nothing, as [declare] does for a
   slotted name. Unstamped ones declare and bind by name. *)
and declare_all st scope this slex decls =
  if Array.length slex > 0 then declare_slots st scope this slex 0 decls
  else declare_names st scope this decls

and declare_slots st scope this slex i = function
  | [] -> ()
  | (_, init) :: rest ->
    (match init with
     | None -> ()
     | Some e -> set_lex st scope slex.(i) (eval st scope this e));
    declare_slots st scope this slex (i + 1) rest

and declare_names st scope this = function
  | [] -> ()
  | (name, init) :: rest ->
    declare scope name;
    (match init with
     | None -> ()
     | Some e -> set_var st scope name (eval st scope this e));
    declare_names st scope this rest

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
