(* Glue between instrumented code and the analysis runtimes.

   Each mode installs one compiler for the typed intrinsics that
   {!Instrument} inserts. The interpreter calls it once per intrinsic
   node while compiling, with the compiler of the node's operand
   expressions; the code it returns evaluates each operand exactly once
   and in the original order, so compound assignments and updates keep
   their single-evaluation semantics. One analysis mode is attached per
   interpreter state, mirroring the paper's separate staged runs: an
   intrinsic of another mode compiles to {!Eval.unknown_intrinsic}.
   Literal fields (loop ids, lines, names, operators, update kinds,
   prefix flags) are read while compiling; at run time each still
   charges, at the same point, the [cost_node] tick its literal operand
   in the printed call ({!Jsir.Ast.intrinsic_call}) would, so the
   virtual clock and every golden and chaos schedule are unchanged.

   Dependence-mode code leans on the front-end resolver: a variable
   write's node carries the packed (depth, slot) address of its
   variable in its [lex] stamp, so variable reads/writes and the
   owner-scope lookup skip the scope-chain string search; a property
   name's symbol is interned while compiling. A member site whose key
   is a name other than [length] or an index reads, writes and calls
   through inline cache cells of its own, with {!Eval}'s [o.f] paths
   ([get_member], [set_member], [invoke] and the direct numeric builtin
   call). Element accesses on a dense, untagged array go by the index
   symbol's precomputed array index, charged the [cost_prop] tick the
   plain [Index] path charges; any other index or [length] takes the
   string-keyed property path. A variable with no address ([lex = -1]:
   catch variables, wrapper bindings, implicit globals, or a program
   run without resolution) takes the dynamic path, which finds its
   owner scope by the scope walk.

   The per-access path allocates nothing of its own: a write's
   characterization basis is an int, and its type site is a cell found
   while compiling (a computed index keeps a one-entry cache). *)

open Interp.Value
module Ast = Jsir.Ast
module Eval = Interp.Eval
module Symbol = Ceres_util.Symbol

(* [n] literal operands of the printed call, each charging the
   [cost_node] tick its evaluation would, one at a time so the chaos
   probe and the budget check see the same sequence. *)
let lits st n = for _ = 1 to n do Eval.tick st 1 done

(* The frame [depth] hops out, or the global frame; the compiled code
   decodes its addresses while compiling. *)
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
   interned symbol, and the key's name when it is a field. *)
type target = {
  obj : code;
  psym : state -> scope -> value -> int;
  key : string option;
}

(* A field a member site caches: neither [length] nor an index,
   the keys the plain [o.f] path caches. *)
let cached = function
  | Some k when (not (String.equal k "length")) && array_index_of_key k = None
    -> Some k
  | _ -> None

(* ------------------------------------------------------------------ *)

let lightweight st : Lightweight.t =
  let lw = Lightweight.create st.clock in
  st.intrinsics <-
    Some
      (fun ~compile:_ ~lex:_ -> function
        | Ast.Light_enter -> fun _ _ _ -> Lightweight.on_enter lw; Undefined
        | Ast.Light_exit -> fun _ _ _ -> Lightweight.on_exit lw; Undefined
        | i -> Eval.unknown_intrinsic i);
  lw

(* A loop event: the loop id's tick, then [f id]. *)
let loop_event f id : code =
 fun st _ _ ->
  lits st 1;
  f id;
  Undefined

let loop_profile st (infos : Jsir.Loops.info array) : Loop_profile.t =
  let lp = Loop_profile.create st.clock infos in
  st.intrinsics <-
    Some
      (fun ~compile:_ ~lex:_ -> function
        | Ast.Loop_enter id -> loop_event (Loop_profile.on_enter lp) id
        | Ast.Loop_iter id -> loop_event (Loop_profile.on_iter lp) id
        | Ast.Loop_exit id -> loop_event (Loop_profile.on_exit lp) id
        | i -> Eval.unknown_intrinsic i);
  lp

(* ------------------------------------------------------------------ *)

let dependence ?focus st (infos : Jsir.Loops.info array) : Runtime.t =
  let rt = Runtime.create ?focus ~symtab:st.symtab infos in
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
     [read_var] finds it; [sym] is the name's symbol. *)
  let write_var ~induction ~accum st scope lex depth slot name sym line v =
    if lex >= 0 then begin
      let owner = owner_at st scope depth in
      Runtime.on_var_write ~induction ~accum rt
        ~sym:(Array.unsafe_get owner.syms slot) ~owner_sid:owner.sid ~line;
      if owner.sid < st.scope_floor then guard_scope st owner;
      owner.slots.(slot) <- v
    end
    else begin
      Runtime.on_var_write ~induction ~accum rt ~sym
        ~owner_sid:(owner_sid_dyn scope name) ~line;
      set_var st scope name v
    end
  in
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
  (* The receiver, the interned symbol of the property it names, and
     the name of a field: a field's symbol is interned here, charged
     the tick of its literal when it runs; a computed key is interned
     when it runs. Integer indices reuse the symbol cache instead of
     printing a fresh string per access; anything else goes through
     [to_string] exactly as an ordinary index expression would
     (including user [toString] calls). *)
  let target ~compile obj_e (key : Ast.key) =
    let obj = compile obj_e in
    match key with
    | Ast.Field f ->
      let sym = Symbol.intern st.symtab f in
      { obj; psym = (fun st _ _ -> lits st 1; sym); key = Some f }
    | Ast.Computed idx_e ->
      let idx = compile idx_e in
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
  (* A property write site's type cell: found here for a field; a
     computed key keeps a one-entry cache on the canonical symbol. *)
  let prop_site key line : state -> int -> Runtime.type_site =
    match key with
    | Some k ->
      let site = Runtime.type_site rt ~name:(Runtime.canonical_prop k) ~line in
      fun _ _ -> site
    | None ->
      let last = ref (-1) and last_site = ref None in
      fun st psym ->
        let sym = Symbol.canonical_sym st.symtab psym in
        match !last_site with
        | Some site when sym = !last -> site
        | _ ->
          let site =
            Runtime.type_site rt ~name:(Symbol.canonical st.symtab sym) ~line
          in
          last := sym;
          last_site := Some site;
          site
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
  (* No wildcard: the build stops on an intrinsic left unhandled. *)
  st.intrinsics <-
    Some
      (fun ~compile ~lex -> function
        | (Ast.Light_enter | Ast.Light_exit) as i -> Eval.unknown_intrinsic i
        | Ast.Loop_enter id -> loop_event (Runtime.on_loop_enter rt) id
        | Ast.Loop_iter id -> loop_event (Runtime.on_loop_iter rt) id
        | Ast.Loop_exit id -> loop_event (Runtime.on_loop_exit rt) id
        | Ast.Fn_scope ->
          fun _ scope _ ->
            Runtime.on_scope_created rt ~sid:scope.sid;
            Undefined
        | Ast.Created e ->
          let c = compile e in
          fun st scope this ->
            let v = c st scope this in
            (match v with
             | Obj o -> Runtime.on_object_created rt ~oid:o.oid
             | _ -> ());
            v
        | Ast.Var_write { var; line; op; rhs; induction } ->
          let rhs = compile rhs
          and site = Runtime.type_site rt ~name:var ~line
          and sym = Symbol.intern st.symtab var in
          let depth = Ast.lex_depth lex and slot = Ast.lex_slot lex in
          fun st scope this ->
            lits st 3 (* var, line, operator *);
            let v =
              match op with
              | None -> rhs st scope this
              | Some op ->
                let old_v = read_var st scope lex depth slot var in
                binop st op old_v (rhs st scope this)
            in
            Runtime.note_type rt site (type_tag v);
            write_var ~induction ~accum:(Option.is_some op) st scope lex depth
              slot var sym line v;
            v
        | Ast.Var_update { var; line; kind; prefix; induction } ->
          let delta = match kind with Ast.Incr -> 1. | Ast.Decr -> -1.
          and site = Runtime.type_site rt ~name:var ~line
          and sym = Symbol.intern st.symtab var in
          let depth = Ast.lex_depth lex and slot = Ast.lex_slot lex in
          fun st scope _ ->
            lits st 4 (* var, line, kind, prefix *);
            let old_n = to_number st (read_var st scope lex depth slot var) in
            let new_v = Num (old_n +. delta) in
            Runtime.note_type rt site (type_tag new_v);
            write_var ~induction ~accum:true st scope lex depth slot var sym
              line new_v;
            if prefix then new_v else Num old_n
        | Ast.Prop_read { obj = obj_e; key; line } ->
          let { obj; psym; key } = target ~compile obj_e key in
          let read, _ = accessors key in
          fun st scope this ->
            let base = obj st scope this in
            let psym = psym st scope this in
            lits st 1 (* line *);
            record_read base psym line;
            read st base psym
        | Ast.Prop_write { obj = obj_e; key; line; op; rhs } ->
          let { obj; psym; key } = target ~compile obj_e key in
          let basis = basis_of obj_e
          and rhs = compile rhs
          and read, write = accessors key
          and site = prop_site key line in
          fun st scope this ->
            let base = obj st scope this in
            let psym = psym st scope this in
            lits st 2 (* line, operator *);
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
            Runtime.note_type rt (site st psym) (type_tag v);
            write st base psym v;
            v
        | Ast.Prop_update { obj = obj_e; key; line; kind; prefix } ->
          let { obj; psym; key } = target ~compile obj_e key in
          let delta = match kind with Ast.Incr -> 1. | Ast.Decr -> -1.
          and basis = basis_of obj_e
          and read, write = accessors key in
          fun st scope this ->
            let base = obj st scope this in
            let psym = psym st scope this in
            lits st 3 (* line, kind, prefix *);
            let basis = basis st scope in
            record_read base psym line;
            let old_n = to_number st (read st base psym) in
            record_write ~basis base psym line;
            write st base psym (Num (old_n +. delta));
            Num (if prefix then old_n +. delta else old_n)
        | Ast.Method_call { obj = obj_e; key; line; args } ->
          (* runs as the plain [o.f(...)] site does: a member through its
             cache cell, a one-argument direct numeric builtin without an
             argument list *)
          let { obj; psym; key } = target ~compile obj_e key in
          let args = Array.of_list (List.map compile args)
          and read, _ = accessors key in
          fun st scope this ->
            let base = obj st scope this in
            let psym = psym st scope this in
            lits st 1 (* line *);
            record_read base psym line;
            match read st base psym with
            | Obj { call = Some (Host_unary (_, f)); _ } as fn
              when Array.length args = 1 ->
              Eval.unary st scope this line fn base args args.(0) f
            | fn -> Eval.invoke st scope this line fn base args);
  (* DOM/canvas attribution: chain any existing host-access listener. *)
  let previous = st.on_host_access in
  st.on_host_access <-
    (fun category op ->
       previous category op;
       Runtime.on_host_access rt);
  rt
