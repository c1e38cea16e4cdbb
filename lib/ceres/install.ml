(* Glue between instrumented code and the analysis runtimes.

   Registers handler factories for the [__ceres_*] intrinsics that
   {!Instrument} inserts. The compiler calls a factory once per
   intrinsic node with the *unevaluated* operands; the code it returns
   evaluates each exactly once and in the original order, so compound
   assignments and updates keep their single-evaluation semantics. One
   analysis mode is attached per interpreter state, mirroring the
   paper's separate staged runs. Literal operands (loop ids, lines,
   names, operators, update kinds, prefix flags) are read while
   compiling; at run time each still charges, at the same point, the
   [cost_node] tick its evaluation would have, so the virtual clock and
   every golden and chaos schedule are unchanged.

   Dependence-mode handlers lean on the front-end resolver: variable
   name arguments arrive as [Ident] nodes whose [lex] stamp carries
   the packed (depth, slot) address, so variable reads/writes and the
   owner-scope lookup skip the scope-chain string search; property
   names use their interned symbols as runtime keys. A member site
   whose key is a literal other than [length] or an index reads,
   writes and calls through inline cache cells of its own, with
   {!Eval}'s [o.f] paths ([get_member], [set_member], [invoke] and the
   direct numeric builtin call). Element accesses on a dense, untagged
   array go by the index symbol's precomputed array index, charged the
   [cost_prop] tick the plain [Index] path charges; any other index or
   [length] takes the string-keyed property path. Any other name takes
   the dynamic path, which finds its owner scope by the scope walk: an
   unresolved one ([lex = -1]: catch variables, wrapper bindings,
   writes of implicit globals, or a program run without resolution)
   and a free one ([Ast.lex_free]: a host or implicit global) alike.

   The per-access path allocates nothing of its own: a write's
   characterization basis is an int, and its type site is a cell found
   while compiling (a computed index keeps a one-entry cache). *)

open Interp.Value
module Ast = Jsir.Ast
module Eval = Interp.Eval
module Symbol = Ceres_util.Symbol

(* A literal operand ([lit] reads it) costs only its [cost_node] tick;
   any other is compiled and converted by [coerce] when it runs. *)
let operand ~compile lit coerce (e : Ast.expr) =
  match lit e.e with
  | Some x -> fun st _ _ -> Eval.tick st 1; x
  | None ->
    let c = compile e in
    fun st scope this -> coerce st (c st scope this)

let expect_num st = function
  | Num f -> int_of_float f
  | v -> type_error st ("intrinsic expected a number, got " ^ type_of v)

let expect_str st = function
  | Str s -> s
  | v -> type_error st ("intrinsic expected a string, got " ^ type_of v)

let num_operand ~compile =
  operand ~compile
    (function Ast.Number f -> Some (int_of_float f) | _ -> None)
    expect_num

let str_operand ~compile =
  operand ~compile (function Ast.String s -> Some s | _ -> None) expect_str

(* The name argument of a variable-write intrinsic: an [Ident] is a
   constant here, not a variable reference. *)
let name_operand ~compile =
  operand ~compile
    (function Ast.Ident x | Ast.String x -> Some x | _ -> None)
    expect_str

let binop_of_name name =
  match
    List.find_opt
      (fun op -> String.equal (Ast.binop_name op) name)
      Ast.[ Add; Sub; Mul; Div; Mod; Band; Bor; Bxor; Lshift; Rshift; Urshift ]
  with
  | Some op -> op
  | None -> invalid_arg ("Install.binop_of_name: " ^ name)

(* A write's operator: [None] for "=". *)
let op_operand ~compile =
  let op_of = function "=" -> None | op -> Some (binop_of_name op) in
  operand ~compile
    (function Ast.String s -> Some (op_of s) | _ -> None)
    (fun st v -> op_of (expect_str st v))

(* An update's step: +1 for "++", else -1. *)
let delta_operand ~compile =
  let delta = function "++" -> 1. | _ -> -1. in
  operand ~compile
    (function Ast.String s -> Some (delta s) | _ -> None)
    (fun st v -> delta (expect_str st v))

let prefix_operand ~compile =
  operand ~compile
    (function Ast.Bool b -> Some b | _ -> None)
    (fun _ v -> to_boolean v)

let register st name handler = register_intrinsic st name handler

let arity name : code = fun st _ _ -> type_error st (name ^ " arity")

(* The packed lexical address of a name argument; only an [Ident]'s
   [lex] is an address (a string literal's is its symbol). *)
let name_lex (name_e : Ast.expr) =
  match name_e.e with Ast.Ident _ -> name_e.lex | _ -> -1

(* The frame [depth] hops out, or the global frame; the handlers decode
   their addresses while compiling. *)
let owner_at st scope depth =
  if depth = 0 then scope
  else if depth = Ast.lex_global_depth then st.global_scope
  else frame_up scope depth

(* The polymorphism monitor's tag of a stored value: its index in
   [Runtime.type_tags], [-1] for [undefined]. Null is told from real
   objects (the paper excludes defined/undefined/null flips). *)
let type_tag =
  let tag name =
    let rec go i =
      if String.equal Runtime.type_tags.(i) name then i else go (i + 1)
    in
    go 0
  in
  let null = tag "null" and boolean = tag "boolean" and fn = tag "function"
  and number = tag "number" and obj = tag "object" and str = tag "string" in
  function
  | Undefined -> -1
  | Null -> null
  | Bool _ -> boolean
  | Num _ -> number
  | Str _ -> str
  | Obj { call = Some _; _ } -> fn
  | Obj _ -> obj

(* A property access's compiled operands: the receiver, the key's
   interned symbol, and the key's name when it is a literal. *)
type target = {
  obj : code;
  psym : state -> scope -> value -> int;
  key : string option;
}

(* A literal key a member site caches: neither [length] nor an index,
   the keys the plain [o.f] path caches. *)
let cached = function
  | Some k when (not (String.equal k "length")) && array_index_of_key k = None
    -> Some k
  | _ -> None

(* ------------------------------------------------------------------ *)

let lightweight st : Lightweight.t =
  let lw = Lightweight.create st.clock in
  let event f : intrinsic = fun ~compile:_ _ _ _ _ -> f lw; Undefined in
  register st "__ceres_light_enter" (event Lightweight.on_enter);
  register st "__ceres_light_exit" (event Lightweight.on_exit);
  lw

(* A loop event [f id]; any other arity is ignored. *)
let loop_event f : intrinsic =
 fun ~compile args ->
  match args with
  | [ id ] ->
    let id = num_operand ~compile id in
    fun st scope this ->
      f (id st scope this);
      Undefined
  | _ -> fun _ _ _ -> Undefined

let loop_profile st (infos : Jsir.Loops.info array) : Loop_profile.t =
  let lp = Loop_profile.create st.clock infos in
  register st "__ceres_loop_enter" (loop_event (Loop_profile.on_enter lp));
  register st "__ceres_loop_iter" (loop_event (Loop_profile.on_iter lp));
  register st "__ceres_loop_exit" (loop_event (Loop_profile.on_exit lp));
  lp

(* ------------------------------------------------------------------ *)

let dependence ?focus st (infos : Jsir.Loops.info array) : Runtime.t =
  let rt = Runtime.create ?focus ~symtab:st.symtab infos in
  register st "__ceres_loop_enter" (loop_event (Runtime.on_loop_enter rt));
  register st "__ceres_loop_iter" (loop_event (Runtime.on_loop_iter rt));
  register st "__ceres_loop_exit" (loop_event (Runtime.on_loop_exit rt));
  register st "__ceres_fn_scope" (fun ~compile:_ _ _ scope _ ->
      Runtime.on_scope_created rt ~sid:scope.sid;
      Undefined);
  register st "__ceres_created" (fun ~compile args ->
      match args with
      | [ e ] ->
        let c = compile e in
        fun st scope this ->
          let v = c st scope this in
          (match v with
           | Obj o -> Runtime.on_object_created rt ~oid:o.oid
           | _ -> ());
          v
      | _ -> arity "__ceres_created");
  (* --- variables --- *)
  let owner_sid_dyn scope name =
    match owner_scope scope name with Some s -> s.sid | None -> -1
  in
  (* A variable's value, from the frame its address names ([lex >= 0],
     decoded into [depth] and [slot] while compiling) or by the scope
     walk. *)
  let read_var st scope lex depth slot name =
    if lex >= 0 then (owner_at st scope depth).slots.(slot)
    else get_var st scope name
  in
  (* A variable write, checked against its owner scope and stored, as
     [read_var] finds it. *)
  let write_var ~induction ~accum st scope lex depth slot name line v =
    if lex >= 0 then begin
      let owner = owner_at st scope depth in
      Runtime.on_var_write ~induction ~accum rt
        ~sym:(Array.unsafe_get owner.syms slot) ~owner_sid:owner.sid ~line;
      if owner.sid < st.scope_floor then guard_scope st owner;
      owner.slots.(slot) <- v
    end
    else begin
      Runtime.on_var_write ~induction ~accum rt
        ~sym:(Symbol.intern st.symtab name)
        ~owner_sid:(owner_sid_dyn scope name) ~line;
      set_var st scope name v
    end
  in
  (* A write site's type cell: found here when the site's name and line
     are literals; else a one-entry cache keyed on the symbol [key] gives
     the stored-to name and the line, [name_of] naming the site. *)
  let type_cell ~key ~name_of name (line_e : Ast.expr) =
    match name, line_e.e with
    | Some name, Ast.Number l ->
      let site = Runtime.type_site rt ~name ~line:(int_of_float l) in
      fun _ _ _ -> site
    | _ ->
      let last = ref (-1) and last_line = ref 0 and last_site = ref None in
      fun st x line ->
        let sym = key st.symtab x in
        match !last_site with
        | Some site when sym = !last && line = !last_line -> site
        | _ ->
          let site =
            Runtime.type_site rt ~name:(name_of st.symtab sym) ~line
          in
          last := sym;
          last_line := line;
          last_site := Some site;
          site
  in
  let var_site (name_e : Ast.expr) =
    type_cell ~key:Symbol.intern ~name_of:Symbol.name
      (match name_e.e with Ast.Ident x | Ast.String x -> Some x | _ -> None)
  in
  let var_write_handler ~induction : intrinsic =
   fun ~compile args ->
    match args with
    | [ name_e; line_e; op_e; rhs_e ] ->
      let name = name_operand ~compile name_e
      and line = num_operand ~compile line_e
      and op = op_operand ~compile op_e
      and rhs = compile rhs_e
      and lex = name_lex name_e
      and site = var_site name_e line_e in
      let depth = Ast.lex_depth lex and slot = Ast.lex_slot lex in
      fun st scope this ->
        let name = name st scope this in
        let line = line st scope this in
        let op = op st scope this in
        let v =
          match op with
          | None -> rhs st scope this
          | Some op ->
            let old_v = read_var st scope lex depth slot name in
            let rhs_v = rhs st scope this in
            binop st op old_v rhs_v
        in
        Runtime.note_type rt (site st name line) (type_tag v);
        write_var ~induction ~accum:(Option.is_some op) st scope lex depth slot
          name line v;
        v
    | _ -> arity "__ceres_var_write"
  in
  register st "__ceres_var_write" (var_write_handler ~induction:false);
  register st "__ceres_induction_write" (var_write_handler ~induction:true);
  let var_update_handler ~induction : intrinsic =
   fun ~compile args ->
    match args with
    | [ name_e; line_e; kind_e; prefix_e ] ->
      let name = name_operand ~compile name_e
      and line = num_operand ~compile line_e
      and delta = delta_operand ~compile kind_e
      and prefix = prefix_operand ~compile prefix_e
      and lex = name_lex name_e
      and site = var_site name_e line_e in
      let depth = Ast.lex_depth lex and slot = Ast.lex_slot lex in
      fun st scope this ->
        let name = name st scope this in
        let line = line st scope this in
        let delta = delta st scope this in
        let prefix = prefix st scope this in
        let old_n = to_number st (read_var st scope lex depth slot name) in
        let new_v = Num (old_n +. delta) in
        Runtime.note_type rt (site st name line) (type_tag new_v);
        write_var ~induction ~accum:true st scope lex depth slot name line
          new_v;
        if prefix then new_v else Num old_n
    | _ -> arity "__ceres_var_update"
  in
  register st "__ceres_var_update" (var_update_handler ~induction:false);
  register st "__ceres_induction_update" (var_update_handler ~induction:true);
  (* --- properties ---
     The characterization basis depends on how the receiver is named:
     [p.vX = ...] with [p] a plain variable is characterized through
     the binding [p] (the paper's N-body discussion), while receivers
     from arbitrary expressions use the object's creation stamp. *)
  let basis_of (obj_e : Ast.expr) : state -> scope -> Runtime.basis =
    match obj_e.e with
    | Ast.Ident x ->
      let lex = obj_e.lex in
      let depth = Ast.lex_depth lex in
      if lex >= 0 then fun st scope -> (owner_at st scope depth).sid
      else fun _ scope -> owner_sid_dyn scope x
    | _ -> fun _ _ -> Runtime.via_object
  in
  (* The receiver, the interned symbol of the property it names, and a
     literal name: a resolver-stamped name literal's symbol is read
     here; any other name, and every computed index, is interned when
     it runs. Integer indices reuse the symbol cache instead of
     printing a fresh string per access; anything else goes through
     [to_string] exactly as an ordinary index expression would
     (including user [toString] calls). *)
  let prop_target ~compile obj_e prop_e =
    let obj = compile obj_e and prop = str_operand ~compile prop_e in
    let fixed, key =
      match prop_e.Ast.e with
      | Ast.String k -> (prop_e.Ast.lex, Some k)
      | _ -> (-1, None)
    in
    { obj;
      psym =
        (fun st scope this ->
           let prop = prop st scope this in
           if fixed >= 0 then fixed else Symbol.intern st.symtab prop);
      key }
  in
  let index_target ~compile obj_e idx_e =
    let obj = compile obj_e and idx = compile idx_e in
    { obj;
      psym =
        (fun st scope this ->
           match idx st scope this with
           | Num f
             when Float.is_integer f && (not (Float.sign_bit f))
                  && f < 1073741824. ->
             Symbol.of_index st.symtab (int_of_float f)
           | Str s -> Symbol.intern st.symtab s
           | v -> Symbol.intern st.symtab (to_string st v));
      key = None }
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
      Eval.tick st 1 (* cost_prop *);
      if i < a.len then Array.unsafe_get a.elems i
      else get_prop_obj o (Symbol.name st.symtab psym)
    | _ -> Eval.get_prop st base (Symbol.name st.symtab psym)
  in
  let set_elem st base psym v =
    let i = elem_index st base psym in
    match base with
    | Obj { arr = Some a; _ } when i >= 0 ->
      Eval.tick st 1 (* cost_prop *);
      array_store_set a i v
    | _ -> Eval.set_prop st base (Symbol.name st.symtab psym) v
  in
  (* How a site reads and writes its property: a member site through
     its own inline cache cells, as the plain [o.f] path does, an index
     or a [length] member by symbol. *)
  let accessors key =
    match cached key with
    | Some k ->
      let rcell = Eval.new_ic () and wcell = Eval.new_ic () in
      ( (fun st base _ -> Eval.get_member st rcell base k),
        fun st base _ v -> Eval.set_member st wcell base k v )
    | None -> (get_elem, set_elem)
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
  (* Each property access has a member and an index form, told apart
     by how the key is named; a handler takes the compiled target and
     the remaining operands, [None] on the wrong arity. *)
  let register_pair member index handler =
    let reg name target =
      register st name (fun ~compile args ->
          let code =
            match args with
            | obj_e :: key_e :: rest ->
              handler (target ~compile obj_e key_e) ~compile obj_e rest
            | _ -> None
          in
          match code with Some c -> c | None -> arity name)
    in
    reg member prop_target;
    reg index index_target
  in
  register_pair "__ceres_prop_write" "__ceres_index_write"
    (fun { obj; psym; key } ~compile obj_e -> function
       | [ line_e; op_e; rhs_e ] ->
         let line = num_operand ~compile line_e
         and op = op_operand ~compile op_e
         and basis = basis_of obj_e
         and rhs = compile rhs_e
         and read, write = accessors key
         and site =
           type_cell ~key:Symbol.canonical_sym ~name_of:Symbol.canonical
             (Option.map Runtime.canonical_prop key) line_e
         in
         Some
           (fun st scope this ->
              let base = obj st scope this in
              let psym = psym st scope this in
              let line = line st scope this in
              let op = op st scope this in
              let basis = basis st scope in
              let v =
                match op with
                | None -> rhs st scope this
                | Some op ->
                  record_read base psym line;
                  let old_v = read st base psym in
                  binop st op old_v (rhs st scope this)
              in
              record_write ~basis base psym line;
              Runtime.note_type rt (site st psym line) (type_tag v);
              write st base psym v;
              v)
       | _ -> None);
  register_pair "__ceres_prop_update" "__ceres_index_update"
    (fun { obj; psym; key } ~compile obj_e -> function
       | [ line_e; kind_e; prefix_e ] ->
         let line = num_operand ~compile line_e
         and delta = delta_operand ~compile kind_e
         and prefix = prefix_operand ~compile prefix_e
         and basis = basis_of obj_e
         and read, write = accessors key in
         Some
           (fun st scope this ->
              let base = obj st scope this in
              let psym = psym st scope this in
              let line = line st scope this in
              let delta = delta st scope this in
              let prefix = prefix st scope this in
              let basis = basis st scope in
              record_read base psym line;
              let old_n = to_number st (read st base psym) in
              record_write ~basis base psym line;
              write st base psym (Num (old_n +. delta));
              Num (if prefix then old_n +. delta else old_n))
       | _ -> None);
  register_pair "__ceres_prop_read" "__ceres_index_read"
    (fun { obj; psym; key } ~compile _ -> function
       | [ line_e ] ->
         let line = num_operand ~compile line_e
         and read, _ = accessors key in
         Some
           (fun st scope this ->
              let base = obj st scope this in
              let psym = psym st scope this in
              let line = line st scope this in
              record_read base psym line;
              read st base psym)
       | _ -> None);
  (* A method call runs as the plain [o.f(...)] site does: a member
     through its cache cell, a one-argument direct numeric builtin
     without an argument list. *)
  register_pair "__ceres_method_call" "__ceres_index_method_call"
    (fun { obj; psym; key } ~compile _ -> function
       | line_e :: arg_es ->
         let line = num_operand ~compile line_e
         and args = Array.of_list (List.map compile arg_es)
         and read, _ = accessors key in
         Some
           (fun st scope this ->
              let base = obj st scope this in
              let psym = psym st scope this in
              let line = line st scope this in
              record_read base psym line;
              match read st base psym with
              | Obj { call = Some (Host_unary (_, f)); _ } as fn
                when Array.length args = 1 ->
                Eval.unary st scope this line fn base args args.(0) f
              | fn -> Eval.invoke st scope this line fn base args)
       | [] -> None);
  (* DOM/canvas attribution: chain any existing host-access listener. *)
  let previous = st.on_host_access in
  st.on_host_access <-
    (fun category op ->
       previous category op;
       Runtime.on_host_access rt);
  rt
