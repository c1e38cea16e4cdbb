(* Closure compiler for MiniJS.

   [run_program] resolves a program, then compiles it, every function
   body included, exactly once: an expression becomes a closure [st sc
   th -> value] (state, lexical scope, [this]), a statement one
   returning a completion, a condition one returning a [bool], and
   arithmetic whose result is always a number one returning a raw
   [float]. Slots, literal values, [length] reads and operators are
   chosen while compiling. Compiled code charges exactly the virtual
   clock ticks a node-by-node evaluation charges, at the same points,
   which keeps the reproduced timings deterministic. Instrumentation
   reaches the compiler only through [Ast.Intrinsic] nodes, each
   compiled by the runtime's compiler in [state.intrinsics]; an
   uninstrumented program runs with zero analysis overhead, mirroring
   the paper's staged methodology.

   Compiled code allocates no closures, and its only mutable state is
   its inline caches: one cell per property site holding an immutable
   (shape, slot) entry about shared shapes, which never change, so an
   entry read on any domain is true of any object of that shape, and
   chunks racing on a cell at worst miss. Forked chunks on other
   domains run the code on their own states. It reads the global slots
   through [st.global_scope] on every access, never a captured copy,
   because [attach_global] may grow them. *)

open Jsir.Ast
open Value

type completion = Value.completion =
  | Cnormal
  | Creturn of value
  | Cbreak of string option
  | Ccontinue of string option

(* Per-operation vtick costs. The absolute values are arbitrary; only
   ratios matter for the reproduced tables. *)
let cost_node = 1
let cost_prop = 1
let cost_call = 4
let cost_alloc = 3

(* Allocation- and call-free: the clock's counters are native ints, so a
   tick is an add, the probe's load + branch, and an int compare. The
   add is done here rather than through [Vclock.advance]: the costs are
   non-negative constants, so [advance]'s sign check is never needed on
   this per-node path. *)
let[@inline] tick st n =
  let clock = st.clock in
  clock.busy_ticks <- clock.busy_ticks + n;
  (match st.on_tick with None -> () | Some probe -> probe n);
  if clock.busy_ticks > st.budget then raise Budget_exhausted

(* The tick every expression and statement node charges as it starts. *)
let[@inline] node st = tick st cost_node

(* The compiled forms besides [code]. *)
type exec = state -> scope -> value -> completion
type cond = state -> scope -> value -> bool
type num = state -> scope -> value -> float

let[@inline] unbox st v = match v with Num f -> f | v -> to_number st v
let[@inline] truthy v = match v with Bool b -> b | v -> to_boolean v
let[@inline] of_bool b = if b then v_true else v_false

(* A dense-array index: integral, not [-0.] (its key is "-0"), small. *)
let[@inline] is_index f =
  Float.of_int (int_of_float f) = f && (not (Float.sign_bit f))
  && f < 1073741824.

(* ------------------------------------------------------------------ *)

let make_closure st scope (f : func) body =
  let fo = make_function st (Closure { fn = f; captured = scope; body }) in
  (* Give every closure a fresh [prototype] for [new]. *)
  let proto_obj = make_obj st in
  raw_set_prop proto_obj "constructor" (Obj fo);
  raw_set_prop fo "prototype" (Obj proto_obj);
  raw_set_prop fo "length" (Num (float_of_int (List.length f.params)));
  (match f.fname with Some n -> raw_set_prop fo "name" (Str n) | None -> ());
  fo

(* [var] and function-declaration hoisting for a frame without a slot
   layout, with the resolver's collection walk: the names it declares
   are exactly the slots a resolved frame gets. [decls] pairs each
   function declaration with its compiled body. *)
let rec declare_names scope = function
  | [] -> ()
  | n :: rest -> declare scope n; declare_names scope rest

let hoist st scope names decls =
  declare_names scope names;
  for i = 0 to Array.length decls - 1 do
    match decls.(i) with
    | ({ fname = Some n; _ } as f), body ->
      set_var st scope n (Obj (make_closure st scope f body))
    | _ -> ()
  done

(* Attach a resolved program's global layout: grow the global slots to
   the symbol table's registry, enter the program's names and create its
   function declarations in [hoist]'s order, so object ids match the
   dynamic path. A dynamic binding (implicit global, unresolved program)
   migrates into its slot when a program first hoists the name. *)
let attach_global st (glay : layout) decls =
  let g = st.global_scope in
  let gl =
    match g.ltab with
    | Some t -> t
    | None -> let t = Hashtbl.create 64 in g.ltab <- Some t; t
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
  Array.iter
    (fun (slot, f, body) -> g.slots.(slot) <- Obj (make_closure st g f body))
    decls

(* ------------------------------------------------------------------ *)
(* The write barrier                                                   *)

(* A chunk of a parallel instance runs on the master heap ({!Fork}).
   Every write to an object or scope older than the chunk is checked
   here before it mutates anything: an overwrite of an element below a
   master array's length goes to the chunk's log, anything else poisons
   the chunk. On the master both floors are 0, so a guarded write pays
   one int compare. *)

let master_elem st o a i =
  if i < a.len then
    match st.chunk with Some c -> c.log_elem o a i | None -> ()
  else master_write "element write past the end of a master array"

let master_prop st o key =
  match o.arr, array_index_of_key key with
  | Some a, Some i -> master_elem st o a i
  | Some _, None when String.equal key "length" ->
    master_write "length write on a master array"
  | _ ->
    master_write
      (if has_own_prop o key then "property overwrite on a master object"
       else "property add on a master object")

(* A write to [slot] of the frame [depth] hops out, or of the global
   frame. *)
let write_slot st sc depth slot v =
  let f = if depth = lex_global_depth then st.global_scope else frame_up sc depth in
  guard_scope st f;
  f.slots.(slot) <- v

let rec reaches (s : scope) target =
  s == target || match s.parent with Some p -> reaches p target | None -> false

(* A closure that captured the master frame behind the chunk's copy
   would read that frame's slots, not the chunk's. The global frame is
   exempt: resolved code reaches it through [st.global_scope], which is
   the chunk's copy, and dynamic reads are checked by [guard_read]. *)
let guard_call st (cl : closure) =
  match st.chunk with
  | Some { frame = { parent = Some _; _ } as frame; _ }
    when reaches cl.captured frame ->
    master_write "call to a closure over the copied frame"
  | _ -> ()

(* A closure over the copy would outlive the chunk's frame. *)
let guard_closure st sc =
  match st.chunk with
  | Some c when reaches sc c.copy ->
    master_write "closure created over the copied frame"
  | _ -> ()

(* ------------------------------------------------------------------ *)

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

(* [get_prop v "length"], without key comparisons on common receivers. *)
let length_of st v =
  match v with
  | Obj { arr = Some a; _ } -> tick st cost_prop; Num (float_of_int a.len)
  | Str s -> tick st cost_prop; Num (float_of_int (String.length s))
  | v -> get_prop st v "length"

let set_prop st v key value =
  tick st cost_prop;
  match v with
  | Obj o ->
    (* Writing a DOM element property (innerHTML, textContent, style
       members, ...) mutates browser state: report it as DOM traffic. *)
    (match o.host_tag with
     | Some "element" -> st.on_host_access "dom" ("set " ^ key)
     | _ -> ());
    if o.oid < st.write_floor then master_prop st o key;
    set_prop_obj o key value
  | Undefined | Null ->
    type_error st
      (Printf.sprintf "cannot set property %S of %s" key (type_of v))
  | _ -> () (* writes to primitives are silently dropped, as in JS *)

(* [base[f]]: the dense-array hot path builds no key string. *)
let index_num st base f =
  match base with
  | Obj ({ arr = Some a; _ } as o) when is_index f ->
    tick st cost_prop;
    let i = int_of_float f in
    if i < a.len then Array.unsafe_get a.elems i
    else get_prop_obj o (string_of_int i)
  | _ -> get_prop st base (Jsir.Printer.number_to_string f)

let index_value st base idx =
  match idx with
  | Num f -> index_num st base f
  | _ -> get_prop st base (to_string st idx)

(* The place a write or update of [base[idx]] targets: element [k] of
   an untagged dense array when [elem_index] is non-negative, read and
   written with the [cost_prop] tick of a property access; else the
   property [key]. A member target is always a key. *)
let elem_index base idx =
  match base, idx with
  | Obj { arr = Some _; host_tag = None; _ }, Num f when is_index f ->
    int_of_float f
  | _ -> -1

let read_at st base k key =
  if k < 0 then get_prop st base key
  else begin
    tick st cost_prop;
    match base with
    | Obj { arr = Some a; _ } when k < a.len -> Array.unsafe_get a.elems k
    | Obj o -> get_prop_obj o (string_of_int k)
    | _ -> Undefined
  end

let write_at st base k key v =
  if k < 0 then set_prop st base key v
  else begin
    tick st cost_prop;
    match base with
    | Obj ({ arr = Some a; _ } as o) ->
      if o.oid < st.write_floor then master_elem st o a k;
      if k < a.len then Array.unsafe_set a.elems k v
      else array_store_set a k v
    | Obj o ->
      let key = string_of_int k in
      if o.oid < st.write_floor then master_prop st o key;
      set_prop_obj o key v
    | _ -> ()
  end

(* The key of a member ([i = None]) or non-element index target. *)
let key_of st k i field idx =
  match i with _ when k >= 0 -> "" | None -> field | Some _ -> to_string st idx

(* ------------------------------------------------------------------ *)
(* Inline caches                                                       *)

(* A property site's monomorphic cache: an object of shared shape [sh]
   holds the key at [slot], or, when [psh] is not [own], lacks it and
   its prototype, if of shape [psh], holds it there. Shared shapes never
   change, so an entry stays true; it is immutable and replaced whole,
   so chunks racing on a site at worst miss. Dictionary shapes, owned by
   one object and edited in place, are never cached. *)
type ic = { sh : shape; psh : shape; slot : int }

let own = dict_of root_shape (* no object has it *)
let ic_empty = { sh = own; psh = own; slot = 0 }
let new_ic () = ref ic_empty

(* [o.key] past a cache miss: the lookup [get_prop_obj] makes, for a key
   that is neither an index nor "length", remembered in [cell] when
   the shapes it went through are shared. *)
let read_miss st cell o key =
  tick st cost_prop;
  let sh = o.shape in
  let s = slot_of sh key in
  if s >= 0 then begin
    if not sh.dict then cell := { sh; psh = own; slot = s };
    Array.unsafe_get o.vals s
  end
  else
    match o.proto with
    | None -> Undefined
    | Some p ->
      let psh = p.shape in
      let s = slot_of psh key in
      if s < 0 then get_prop_obj p key
      else begin
        if not (sh.dict || psh.dict) then cell := { sh; psh; slot = s };
        Array.unsafe_get p.vals s
      end

(* [get_prop] through the site's cache. *)
let get_member st cell v key =
  match v with
  | Obj o ->
    let c = !cell in
    if o.shape == c.sh then
      if c.psh == own then begin
        tick st cost_prop; Array.unsafe_get o.vals c.slot
      end
      else
        match o.proto with
        | Some p when p.shape == c.psh ->
          tick st cost_prop; Array.unsafe_get p.vals c.slot
        | _ -> read_miss st cell o key
    else read_miss st cell o key
  | _ -> get_prop st v key

(* [set_prop] on an untagged object, past a cache miss: an own key of a
   shared shape is remembered. *)
let write_miss st cell o key v =
  tick st cost_prop;
  let sh = o.shape in
  let s = slot_of sh key in
  if s < 0 then add_prop o key v
  else begin
    Array.unsafe_set o.vals s v;
    if not sh.dict then cell := { sh; psh = own; slot = s }
  end

(* [set_prop] through the site's cache. A host object (a DOM element
   reports its writes) takes [set_prop]. *)
let set_member st cell base key v =
  match base with
  | Obj ({ host_tag = None; _ } as o) ->
    if o.oid < st.write_floor then master_prop st o key;
    let c = !cell in (* read once: another domain may replace it *)
    if o.shape == c.sh then begin
      tick st cost_prop; Array.unsafe_set o.vals c.slot v
    end
    else write_miss st cell o key v
  | _ -> set_prop st base key v

let[@inline] compare_num op (a : float) b =
  match op with Lt -> a < b | Le -> a <= b | Gt -> a > b | _ -> a >= b

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)

(* The helpers below are top-level functions rather than local
   closures, so calls and statements allocate none of their own. *)
let rec bind_params slots param_slots i = function
  | a :: rest when i < Array.length param_slots ->
    Array.unsafe_set slots (Array.unsafe_get param_slots i) a;
    bind_params slots param_slots (i + 1) rest
  | _ -> slots

(* A binding in a scope without a layout. *)
let bind scope name v =
  declare scope name;
  match Strtbl.find_opt scope.vars name with
  | Some cell -> cell.v <- v
  | None -> ()

let rec bind_names scope params args =
  match params, args with
  | [], _ -> ()
  | p :: ps, [] -> declare scope p; bind_names scope ps []
  | p :: ps, a :: rest -> bind scope p a; bind_names scope ps rest

(* The nearest slotted frame on a parent chain (wrappers skipped),
   returning the option cell it already sits in. *)
let rec enclosing (o : scope option) =
  match o with
  | Some s when s.ltab != None -> o
  | Some s -> enclosing s.parent
  | None -> None

(* A named function expression sees its own name: through a wrapper
   scope, unless the resolver proved it statically bound. *)
let frame_base st fo (cl : closure) ~static =
  match cl.fn.fname with
  | Some name when (not static) && not (var_exists cl.captured name) ->
    let wrapper = fresh_scope st (Some cl.captured) in
    bind wrapper name (Obj fo);
    wrapper
  | _ -> cl.captured

(* A frame's slot array; small ones are allocated inline. *)
let new_slots n =
  match n with
  | 0 -> [||]
  | 1 -> [| Undefined |]
  | 2 -> [| Undefined; Undefined |]
  | 3 -> [| Undefined; Undefined; Undefined |]
  | n -> Array.make n Undefined

(* Enter [cl]'s frame and run its body. A resolved frame is built whole,
   its parameters already in [slots]; [args] feeds the [arguments]
   array, and the parameters of a frame without a layout. *)
let run_closure st fo (cl : closure) this slots args =
  if fo.oid < st.write_floor then guard_call st cl;
  match cl.fn.layout with
  | Some lay ->
    let parent = Some (frame_base st fo cl ~static:lay.l_fname_static) in
    let sid = st.next_sid in
    st.next_sid <- sid + 1;
    let frame =
      { sid; vars = no_vars; parent; ltab = Some lay.l_table; slots;
        syms = lay.l_syms; fup = enclosing parent }
    in
    if lay.l_uses_arguments then
      slots.(lay.l_arguments) <- Obj (make_array st (Array.of_list args));
    cl.body st frame this
  | None ->
    let frame = fresh_scope st (Some (frame_base st fo cl ~static:false)) in
    bind_names frame cl.fn.params args;
    bind frame "arguments" (Obj (make_array st (Array.of_list args)));
    cl.body st frame this

let leave st =
  (match st.on_call_boundary with None -> () | Some f -> f ());
  st.call_depth <- st.call_depth - 1

(* Run a callee under the depth limit and the call-boundary hook; one
   handler, no closures: [leave] on the normal and the exceptional path
   alike. *)
let enter st fo c this slots args =
  st.call_depth <- st.call_depth + 1;
  if st.call_depth > st.max_call_depth then begin
    st.call_depth <- st.call_depth - 1;
    throw_error st "RangeError" "maximum call stack size exceeded"
  end;
  (match st.on_call_boundary with None -> () | Some f -> f ());
  match
    match c with
    | Host (_, fn) -> fn st this args
    | Closure cl -> run_closure st fo cl this slots args
    | Host_unary (_, fn) ->
      Num (fn (match args with v :: _ -> to_number st v | [] -> Float.nan))
  with
  | v -> leave st; v
  | exception e -> leave st; raise e

let call st (callee : value) (this : value) (args : value list) : value =
  tick st cost_call;
  match callee with
  | Obj ({ call = Some c; _ } as fo) ->
    let slots =
      match c with
      | Closure { fn = { layout = Some lay; _ }; _ } ->
        bind_params (new_slots lay.l_size) lay.l_param_slots 0 args
      | _ -> [||]
    in
    enter st fo c this slots args
  | _ -> type_error st (type_of callee ^ " is not a function")

let rec eval_args st sc th (args : code array) i =
  if i = Array.length args then []
  else
    let v = (Array.unsafe_get args i) st sc th in
    v :: eval_args st sc th args (i + 1)

let fill_frame st sc th (lay : layout) (args : code array) =
  let slots = new_slots lay.l_size in
  let params = lay.l_param_slots in
  for i = 0 to Array.length args - 1 do
    let v = (Array.unsafe_get args i) st sc th in
    if i < Array.length params then
      Array.unsafe_set slots (Array.unsafe_get params i) v
  done;
  slots

let[@inline] site st line fn (args : code array) =
  match st.on_call_site with None -> () | Some f -> f line fn (Array.length args)

(* A call site evaluates its arguments straight into the callee's new
   slot array when the callee is a resolved closure with no observable
   [arguments]; any other callee gets an argument list. *)
let invoke st sc th line fn recv args =
  match fn with
  | Obj ({ call = Some (Closure { fn = { layout = Some lay; _ }; _ } as c); _ }
         as fo)
    when not lay.l_uses_arguments ->
    let slots = fill_frame st sc th lay args in
    site st line fn args;
    tick st cost_call;
    enter st fo c recv slots []
  | _ ->
    let vs = eval_args st sc th args 0 in
    site st line fn args;
    call st fn recv vs

(* A one-argument call of a direct numeric builtin: on a number, with no
   call-site hook and room on the stack, it runs without an argument
   list, charging the call's tick. A call-boundary hook fires on entry
   and exit at the callee's depth, as [enter] would. Else as [invoke]. *)
let unary st sc th line fn recv args (a : code) f =
  match a st sc th with
  | Num x
    when st.on_call_site == None && st.call_depth < st.max_call_depth ->
    tick st cost_call;
    (match st.on_call_boundary with
     | None -> Num (f x)
     | Some hook ->
       st.call_depth <- st.call_depth + 1;
       hook ();
       let r = f x in
       hook ();
       st.call_depth <- st.call_depth - 1;
       Num r)
  | v -> site st line fn args; call st fn recv [ v ]

(* [new fn(args)]. *)
let construct st sc th fn args =
  let args = eval_args st sc th args 0 in
  match fn with
  | Obj ({ call = Some _; _ } as fo) ->
    tick st cost_alloc;
    let proto =
      match raw_get_own fo "prototype" with
      | Some (Obj p) -> p
      | _ -> st.object_proto
    in
    let obj = make_obj ~proto:(Some proto) st in
    (match call st fn (Obj obj) args with Obj _ as r -> r | _ -> Obj obj)
  | _ -> type_error st (type_of fn ^ " is not a constructor")

(* ------------------------------------------------------------------ *)
(* Statement runners                                                   *)

(* A break/continue label [l] targets the loop carrying [label]; [None]
   targets the innermost loop. *)
let targets label l =
  match l, label with
  | None, _ -> true
  | Some l, Some label -> String.equal l label
  | Some _, None -> false

(* Does a loop body's completion go on to the next iteration? *)
let[@inline] continues label = function
  | Cnormal -> true
  | Ccontinue l -> targets label l
  | _ -> false

let rec run_seq st sc th (cs : exec array) i =
  if i = Array.length cs then Cnormal
  else
    match (Array.unsafe_get cs i) st sc th with
    | Cnormal -> run_seq st sc th cs (i + 1)
    | c -> c

(* A [for], [while] (no update) or [do]-[while] loop. *)
let rec for_loop st sc th label (test : cond) (body : exec) (update : code) =
  if test st sc th then
    match body st sc th with
    | c when continues label c ->
      ignore (update st sc th);
      for_loop st sc th label test body update
    | Cbreak l when targets label l -> Cnormal
    | r -> r
  else Cnormal

let no_value : code = fun _ _ _ -> Undefined

(* The first iteration of a do-while, then a while. *)
let do_loop st sc th label (test : cond) (body : exec) =
  match body st sc th with
  | c when continues label c -> for_loop st sc th label test body no_value
  | Cbreak l when targets label l -> Cnormal
  | r -> r

let rec for_in_loop st sc th label lex name (body : exec) = function
  | [] -> Cnormal
  | k :: rest ->
    if lex >= 0 then set_lex st sc lex (Str k) else set_var st sc name (Str k);
    (match body st sc th with
     | c when continues label c -> for_in_loop st sc th label lex name body rest
     | Cbreak l when targets label l -> Cnormal
     | r -> r)

(* finally runs on every path; its abrupt completion wins. *)
let run_try st sc th (body : exec) catch (finally : exec option) =
  let result =
    match body st sc th with
    | c -> Ok c
    | exception Js_throw v ->
      (match catch with
       | Some (name, (cbody : exec)) ->
         declare sc name;
         set_var st sc name v;
         (try Ok (cbody st sc th) with Js_throw v2 -> Error v2)
       | None -> Error v)
  in
  match match finally with None -> Cnormal | Some fb -> fb st sc th with
  | Cnormal -> (match result with Ok c -> c | Error v -> raise (Js_throw v))
  | abrupt -> abrupt

(* The case a switch starts at: the first guard strictly equal to [v],
   else the first [default], else -1. *)
let rec switch_default (guards : code option array) j =
  if j = Array.length guards then -1
  else match guards.(j) with None -> j | Some _ -> switch_default guards (j + 1)

let rec switch_start st sc th v (guards : code option array) i =
  if i = Array.length guards then switch_default guards 0
  else
    match guards.(i) with
    | Some g when strict_eq v (g st sc th) -> i
    | _ -> switch_start st sc th v guards (i + 1)

let rec run_cases st sc th (bodies : exec array) i =
  if i = Array.length bodies then Cnormal
  else
    match bodies.(i) st sc th with
    | Cnormal -> run_cases st sc th bodies (i + 1)
    | Cbreak None -> Cnormal
    | other -> other

let result st = function
  | Creturn v -> v
  | Cnormal -> Undefined
  | Cbreak _ | Ccontinue _ ->
    type_error st "break/continue escaped function body"

(* ------------------------------------------------------------------ *)
(* The compiler                                                        *)

(* Is the result always a number? Then it can travel as a raw float. *)
let rec is_num e =
  match e.e with
  | Number _ | Update _ | Unop ((Neg | Positive | Bitnot), _) -> true
  | Binop ((Sub | Mul | Div | Mod | Band | Bor | Bxor), _, _) -> true
  | Binop ((Lshift | Rshift | Urshift), _, _) -> true
  | Binop (Add, l, r) -> is_num l && is_num r
  | _ -> false

(* The slot array a resolved address names. *)
let[@inline] slots_at st sc depth =
  if depth = 0 then sc.slots
  else if depth = lex_global_depth then st.global_scope.slots
  else (frame_up sc depth).slots

let codes compile es = Array.of_list (List.map compile es)

(* An intrinsic no runtime compiles: raises the catchable TypeError
   naming its printed call when it runs. *)
let unknown_intrinsic i : code =
  let msg = "unknown intrinsic " ^ fst (intrinsic_call i) in
  fun st _ _ -> type_error st msg

(* [hs] is the state's intrinsic compiler, read only while compiling. *)
let rec expr hs (e : expr) : code =
  match e.e with
  | Number f -> let v = Num f in fun st _ _ -> node st; v
  | String s -> let v = Str s in fun st _ _ -> node st; v
  | Bool b -> let v = of_bool b in fun st _ _ -> node st; v
  | Null -> fun st _ _ -> node st; Null
  | Undefined -> fun st _ _ -> node st; Undefined
  | This -> fun st _ th -> node st; th
  | Ident name -> ident e.lex name
  | Array_lit elems ->
    let elems = codes (expr hs) elems in
    fun st sc th ->
      node st;
      tick st cost_alloc;
      Obj (make_array st (Array.of_list (eval_args st sc th elems 0)))
  | Object_lit props ->
    let keys = Array.of_list (List.map fst props)
    and values = codes (fun (_, v) -> expr hs v) props in
    (match shape_of_keys keys with
     | Some sh when sh.size > 0 ->
       (* straight into the final shape: the object is out of reach
          until its slots are filled *)
       fun st sc th ->
         node st;
         tick st cost_alloc;
         let o = make_obj st in
         let vals = Array.make sh.size Undefined in
         for i = 0 to Array.length values - 1 do
           Array.unsafe_set vals i ((Array.unsafe_get values i) st sc th)
         done;
         o.vals <- vals;
         o.shape <- sh;
         Obj o
     | _ ->
       fun st sc th ->
         node st;
         tick st cost_alloc;
         let o = make_obj st in
         for i = 0 to Array.length keys - 1 do
           raw_set_prop o keys.(i) (values.(i) st sc th)
         done;
         Obj o)
  | Function_expr f ->
    let body = func hs f in
    fun st sc _ ->
      node st;
      tick st cost_alloc;
      if st.write_floor > 0 then guard_closure st sc;
      Obj (make_closure st sc f body)
  | Member (oe, "length") ->
    let o = expr hs oe in
    fun st sc th -> node st; length_of st (o st sc th)
  | Member (oe, field) ->
    let o = expr hs oe and cell = new_ic () in
    fun st sc th -> node st; get_member st cell (o st sc th) field
  | Index (oe, ie) ->
    let o = expr hs oe and i = expr hs ie in
    fun st sc th ->
      node st; let base = o st sc th in index_value st base (i st sc th)
  | Call (callee, args) -> call_expr hs e.at.left.line callee args
  | New (callee, args) ->
    let f = expr hs callee and args = codes (expr hs) args in
    fun st sc th ->
      node st; let fn = f st sc th in construct st sc th fn args
  | Unop (Typeof, x) -> typeof hs x
  | Unop (Delete, x) -> delete hs x
  | Unop (Void, x) ->
    let c = expr hs x in
    fun st sc th -> node st; ignore (c st sc th); Undefined
  | Unop (Bitnot, x) ->
    let c = expr hs x in
    fun st sc th ->
      node st; Num (Int32.to_float (Int32.lognot (to_int32 st (c st sc th))))
  | Unop (Not, _)
  | Binop ((Lt | Le | Gt | Ge | Eq | Neq | Strict_eq | Strict_neq), _, _) ->
    let c = cond hs e in
    fun st sc th -> of_bool (c st sc th)
  | Binop (Add, l, r) when not (is_num e) -> add hs l r
  | Unop ((Neg | Positive), _) | Binop ((Add | Sub | Mul | Div | Mod), _, _) ->
    let n = num hs e in
    fun st sc th -> Num (n st sc th)
  | Binop (op, l, r) ->
    let l = expr hs l and r = expr hs r in
    fun st sc th ->
      node st; let lv = l st sc th in binop st op lv (r st sc th)
  | Logical (And, l, r) ->
    let l = expr hs l and r = expr hs r in
    fun st sc th ->
      node st; let lv = l st sc th in if truthy lv then r st sc th else lv
  | Logical (Or, l, r) ->
    let l = expr hs l and r = expr hs r in
    fun st sc th ->
      node st; let lv = l st sc th in if truthy lv then lv else r st sc th
  | Cond (c, t, f) ->
    let c = cond hs c and t = expr hs t and f = expr hs f in
    fun st sc th -> node st; if c st sc th then t st sc th else f st sc th
  | Assign (tgt, None, rhs) -> assign hs e.lex tgt (expr hs rhs)
  | Assign (tgt, Some op, rhs) -> compound hs e.lex tgt op (expr hs rhs)
  | Update (kind, prefix, tgt) ->
    update hs e.lex tgt (match kind with Incr -> 1. | Decr -> -1.) prefix
  | Seq (l, r) ->
    let l = expr hs l and r = expr hs r in
    fun st sc th -> node st; ignore (l st sc th); r st sc th
  | Intrinsic i ->
    let h =
      match hs with
      | Some c -> c ~compile:(expr hs) ~lex:e.lex i
      | None -> unknown_intrinsic i
    in
    fun st sc th -> node st; h st sc th

(* A variable read: the slot decoded here; a free name goes straight to
   the global lookup, only an unresolved one walks the scope chain. *)
and ident lex name : code =
  if lex_is_free lex then
    let sym = lex_free_sym lex in
    fun st _ _ -> node st; get_free st sym name
  else if lex < 0 then fun st sc _ -> node st; get_var st sc name
  else
    let depth = lex_depth lex and slot = lex_slot lex in
    if depth = 0 then fun st sc _ -> node st; sc.slots.(slot)
    else if depth = lex_global_depth then fun st _ _ ->
      node st; Array.unsafe_get st.global_scope.slots slot
    else fun st sc _ -> node st; (frame_up sc depth).slots.(slot)

(* A number-valued form of [e], coerced as soon as it is evaluated.
   Only [is_num] operands, unary operands and right-hand operands take
   it: a left operand that is not [is_num] is coerced after the right
   one has been evaluated, as [Value.binop] orders it. *)
and num hs (e : expr) : num =
  match e.e with
  | Number f -> fun st _ _ -> node st; f
  | Unop (Neg, x) -> let x = num hs x in fun st sc th -> node st; -.x st sc th
  | Unop (Positive, x) ->
    let x = num hs x in
    fun st sc th -> node st; x st sc th
  | Binop (Add, l, r) when is_num l && is_num r ->
    let l = num hs l and r = num hs r in
    fun st sc th -> node st; let a = l st sc th in a +. r st sc th
  | Binop ((Sub | Mul | Div | Mod) as op, l, r) -> arith hs op l r
  | Ident _ when e.lex >= 0 && lex_depth e.lex = 0 ->
    let slot = lex_slot e.lex in
    fun st sc _ -> node st; unbox st sc.slots.(slot)
  | _ -> let c = expr hs e in fun st sc th -> unbox st (c st sc th)

(* [- * / %] as floats. A left operand that is not [is_num] is
   evaluated as a value and coerced last. *)
and arith hs op l r : num =
  let r = num hs r in
  if is_num l then
    let l = num hs l in
    match op with
    | Sub -> fun st sc th -> node st; let a = l st sc th in a -. r st sc th
    | Mul -> fun st sc th -> node st; let a = l st sc th in a *. r st sc th
    | Div -> fun st sc th -> node st; let a = l st sc th in a /. r st sc th
    | _ ->
      fun st sc th -> node st; let a = l st sc th in Float.rem a (r st sc th)
  else
    let l = expr hs l in
    match op with
    | Sub ->
      fun st sc th ->
        node st; let lv = l st sc th in let b = r st sc th in unbox st lv -. b
    | Mul ->
      fun st sc th ->
        node st; let lv = l st sc th in let b = r st sc th in unbox st lv *. b
    | Div ->
      fun st sc th ->
        node st; let lv = l st sc th in let b = r st sc th in unbox st lv /. b
    | _ ->
      fun st sc th ->
        node st;
        let lv = l st sc th in
        let b = r st sc th in
        Float.rem (unbox st lv) b

(* [+] that may concatenate: a side is not [is_num]. *)
and add hs l r : code =
  if is_num r then
    let l = expr hs l and r = num hs r in
    fun st sc th ->
      node st;
      let lv = l st sc th in
      let b = r st sc th in
      (match lv with Num a -> Num (a +. b) | _ -> add_values st lv (Num b))
  else
    let l = expr hs l and r = expr hs r in
    fun st sc th ->
      node st;
      let lv = l st sc th in
      let rv = r st sc th in
      (match lv, rv with
       | Num a, Num b -> Num (a +. b)
       | _ -> add_values st lv rv)

and cond hs (e : expr) : cond =
  match e.e with
  | Bool b -> fun st _ _ -> node st; b
  | Unop (Not, x) ->
    let c = cond hs x in
    fun st sc th -> node st; not (c st sc th)
  | Logical (And, l, r) ->
    let l = cond hs l and r = cond hs r in
    fun st sc th -> node st; l st sc th && r st sc th
  | Logical (Or, l, r) ->
    let l = cond hs l and r = cond hs r in
    fun st sc th -> node st; l st sc th || r st sc th
  | Binop ((Lt | Le | Gt | Ge) as op, l, r) when is_num r ->
    let l = expr hs l and r = num hs r in
    fun st sc th ->
      node st;
      let lv = l st sc th in
      let b = r st sc th in
      (match lv with
       | Num a -> compare_num op a b
       | _ -> compare_values st op lv (Num b))
  | Binop ((Lt | Le | Gt | Ge) as op, l, r) ->
    let l = expr hs l and r = expr hs r in
    fun st sc th ->
      node st;
      let lv = l st sc th in
      let rv = r st sc th in
      (match lv, rv with
       | Num a, Num b -> compare_num op a b
       | _ -> compare_values st op lv rv)
  | Binop (((Eq | Neq | Strict_eq | Strict_neq) as op), l, r) ->
    let l = expr hs l and r = expr hs r in
    let strict = op = Strict_eq || op = Strict_neq
    and neg = op = Neq || op = Strict_neq in
    fun st sc th ->
      node st;
      let lv = l st sc th in
      let rv = r st sc th in
      (match lv, rv with
       | Num a, Num b -> a = b
       | _ -> if strict then strict_eq lv rv else abstract_eq st lv rv)
      <> neg
  | _ -> let c = expr hs e in fun st sc th -> truthy (c st sc th)

(* Method calls bind [this] to the receiver. *)
and call_expr hs line callee args : code =
  let args = codes (expr hs) args in
  match callee.e with
  | Member (oe, field) when String.equal field "length" ->
    let o = expr hs oe in
    fun st sc th ->
      node st;
      let base = o st sc th in
      invoke st sc th line (get_prop st base field) base args
  | Member (oe, field) when Array.length args = 1 ->
    let o = expr hs oe and cell = new_ic () and a = args.(0) in
    fun st sc th ->
      node st;
      let base = o st sc th in
      (match get_member st cell base field with
       | Obj { call = Some (Host_unary (_, f)); _ } as fn ->
         unary st sc th line fn base args a f
       | fn -> invoke st sc th line fn base args)
  | Member (oe, field) ->
    let o = expr hs oe and cell = new_ic () in
    fun st sc th ->
      node st;
      let base = o st sc th in
      invoke st sc th line (get_member st cell base field) base args
  | Index (oe, ie) ->
    let o = expr hs oe and i = expr hs ie in
    fun st sc th ->
      node st;
      let base = o st sc th in
      let idx = i st sc th in
      invoke st sc th line (get_prop st base (to_string st idx)) base args
  | _ ->
    let f = expr hs callee in
    fun st sc th ->
      node st;
      let fn = f st sc th in
      invoke st sc th line fn (Obj st.global_obj) args

(* typeof of an undeclared variable must not throw. *)
and typeof hs (x : expr) : code =
  match x.e with
  | Ident _ when x.lex >= 0 ->
    let lex = x.lex in
    fun st sc _ -> node st; Str (type_of (get_lex st sc lex))
  | Ident name when lex_is_free x.lex ->
    let sym = lex_free_sym x.lex in
    fun st _ _ ->
      node st;
      (match find_free st sym name with
       | v -> Str (type_of v)
       | exception Not_found -> Str "undefined")
  | Ident name ->
    fun st sc _ ->
      node st;
      (match var_home sc name with
       | Some (s, slot) -> guard_read st s; Str (type_of (scope_read s slot name))
       | None ->
         (match find_global st name with
          | v -> Str (type_of v)
          | exception Not_found -> Str "undefined"))
  | _ ->
    let c = expr hs x in
    fun st sc th -> node st; Str (type_of (c st sc th))

and delete hs (x : expr) : code =
  match x.e with
  | Member (oe, field) ->
    let o = expr hs oe in
    fun st sc th ->
      node st;
      (match o st sc th with
       | Obj o ->
         if o.oid < st.write_floor then
           master_write "property delete on a master object";
         of_bool (raw_delete_prop o field)
       | _ -> v_true)
  | Index (oe, ie) ->
    let o = expr hs oe and i = expr hs ie in
    fun st sc th ->
      node st;
      let base = o st sc th in
      let key = to_string st (i st sc th) in
      (match base with
       | Obj o ->
         if o.oid < st.write_floor then
           master_write "property delete on a master object";
         (match o.arr, array_index_of_key key with
          | Some a, Some i when i < a.len -> a.elems.(i) <- Undefined; v_true
          | _ -> of_bool (raw_delete_prop o key))
       | _ -> v_true)
  | _ -> fun st _ _ -> node st; v_true

(* [tgt = rhs]. A computed key is converted before [rhs] runs. *)
and assign hs lex tgt (r : code) : code =
  match tgt with
  | Tgt_ident name when lex < 0 ->
    fun st sc th -> node st; let v = r st sc th in set_var st sc name v; v
  | Tgt_ident _ ->
    let depth = lex_depth lex and slot = lex_slot lex in
    if depth = 0 then fun st sc th ->
      node st; let v = r st sc th in sc.slots.(slot) <- v; v
    else fun st sc th ->
      node st; let v = r st sc th in write_slot st sc depth slot v; v
  | Tgt_member (oe, field) when not (String.equal field "length") ->
    let o = expr hs oe and cell = new_ic () in
    fun st sc th ->
      node st;
      let base = o st sc th in
      let v = r st sc th in
      set_member st cell base field v; v
  | _ ->
    let o, i, field = place hs tgt in
    fun st sc th ->
      node st;
      let base = o st sc th in
      let idx = match i with None -> Undefined | Some i -> i st sc th in
      let k = elem_index base idx in
      let key = key_of st k i field idx in
      let v = r st sc th in
      write_at st base k key v; v

(* The object, the key expression ([None] for a member) and the member
   name of a property target. *)
and place hs = function
  | Tgt_member (oe, field) -> (expr hs oe, None, field)
  | Tgt_index (oe, ie) -> (expr hs oe, Some (expr hs ie), "")
  | Tgt_ident _ -> invalid_arg "Eval.place"

(* [tgt op= rhs]: the target is read before [rhs] runs. *)
and compound hs lex tgt op (r : code) : code =
  match tgt with
  | Tgt_ident name ->
    fun st sc th ->
      node st;
      let old = if lex >= 0 then get_lex st sc lex else get_var st sc name in
      let v = binop st op old (r st sc th) in
      if lex >= 0 then set_lex st sc lex v else set_var st sc name v;
      v
  | _ ->
    let o, i, field = place hs tgt in
    fun st sc th ->
      node st;
      let base = o st sc th in
      let idx = match i with None -> Undefined | Some i -> i st sc th in
      let k = elem_index base idx in
      let key = key_of st k i field idx in
      let v = binop st op (read_at st base k key) (r st sc th) in
      write_at st base k key v; v

(* [++]/[--] by [delta]. A variable returns the value it wrote
   (prefix) or the old number (postfix) without a fresh box. *)
and update hs lex tgt delta prefix : code =
  let[@inline] boxed old_n = Num (if prefix then old_n +. delta else old_n) in
  match tgt with
  | Tgt_ident name ->
    let depth = lex_depth lex and slot = lex_slot lex in
    fun st sc _ ->
      node st;
      let old_v =
        if lex < 0 then get_var st sc name else (slots_at st sc depth).(slot)
      in
      let old_n = unbox st old_v in
      let new_v = Num (old_n +. delta) in
      if lex < 0 then set_var st sc name new_v
      else if depth = 0 then sc.slots.(slot) <- new_v
      else write_slot st sc depth slot new_v;
      if prefix then new_v
      else (match old_v with Num _ -> old_v | _ -> Num old_n)
  | _ ->
    let o, i, field = place hs tgt in
    fun st sc th ->
      node st;
      let base = o st sc th in
      let idx = match i with None -> Undefined | Some i -> i st sc th in
      let k = elem_index base idx in
      let key = key_of st k i field idx in
      let old_n = to_number st (read_at st base k key) in
      write_at st base k key (Num (old_n +. delta)); boxed old_n

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

and stmts hs (body : stmt list) : exec =
  match codes (stmt hs ~label:None) body with
  | [||] -> fun _ _ _ -> Cnormal
  | [| s |] -> s
  | cs -> fun st sc th -> run_seq st sc th cs 0

(* [label] is the label directly carried by a loop statement. *)
and stmt hs ~label (s : stmt) : exec =
  let sub = stmt hs ~label:None in
  match s.s with
  | Empty | Func_decl _ (* bound during hoisting *) ->
    fun st _ _ -> node st; Cnormal
  | Expr_stmt e ->
    let c = expr hs e in
    fun st sc th -> node st; ignore (c st sc th); Cnormal
  | Var_decl decls ->
    let d = declarators hs s.slex decls in
    fun st sc th -> node st; d st sc th; Cnormal
  | If (c, t, f) ->
    let c = cond hs c and t = sub t
    and f = match f with None -> fun _ _ _ -> Cnormal | Some f -> sub f in
    fun st sc th -> node st; if c st sc th then t st sc th else f st sc th
  | While (_, c, body) ->
    let test = cond hs c and body = sub body in
    fun st sc th -> node st; for_loop st sc th label test body no_value
  | Do_while (_, body, c) ->
    let body = sub body and test = cond hs c in
    fun st sc th -> node st; do_loop st sc th label test body
  | For (lid, init, c, u, body) ->
    let init =
      match init with
      | None -> fun _ _ _ -> ()
      | Some (Init_expr e) ->
        let c = expr hs e in
        fun st sc th -> ignore (c st sc th)
      | Some (Init_var decls) -> declarators hs s.slex decls
    in
    let test = match c with None -> fun _ _ _ -> true | Some c -> cond hs c in
    let update = match u with None -> no_value | Some u -> expr hs u in
    let run = sub body in
    let lv =
      { lv_id = lid; lv_cond = c; lv_update = u; lv_body = body;
        lv_test = test; lv_step = update; lv_run = run }
    in
    fun st sc th ->
      node st;
      init st sc th;
      (match st.on_loop with
       | Some hook when hook st sc th lv -> Cnormal
       | _ -> for_loop st sc th label test run update)
  | For_in (_, binder, obj_e, body) ->
    let o = expr hs obj_e and body = sub body in
    (* a stamped binder writes its slot; the others take [set_var] *)
    let lex = if Array.length s.slex > 0 then s.slex.(0) else -1 in
    let name, declared =
      match binder with
      | Binder_var n -> (n, lex < 0)
      | Binder_ident n -> (n, false)
    in
    fun st sc th ->
      node st;
      let keys = match o st sc th with Obj o -> own_keys o | _ -> [] in
      if declared then declare sc name;
      for_in_loop st sc th label lex name body keys
  | Return None -> let r = Creturn Undefined in fun st _ _ -> node st; r
  | Return (Some e) ->
    let c = expr hs e in
    fun st sc th -> node st; Creturn (c st sc th)
  | Break l -> let r = Cbreak l in fun st _ _ -> node st; r
  | Continue l -> let r = Ccontinue l in fun st _ _ -> node st; r
  | Throw e ->
    let c = expr hs e in
    fun st sc th -> node st; raise (Js_throw (c st sc th))
  | Try (body, catch, finally) ->
    let body = stmts hs body
    and catch = Option.map (fun (n, b) -> (n, stmts hs b)) catch
    and finally = Option.map (stmts hs) finally in
    fun st sc th -> node st; run_try st sc th body catch finally
  | Block body -> let b = stmts hs body in fun st sc th -> node st; b st sc th
  | Switch (scrutinee, cases) ->
    let v = expr hs scrutinee
    and guards = codes (fun (g, _) -> Option.map (expr hs) g) cases
    and bodies = codes (fun (_, b) -> stmts hs b) cases in
    fun st sc th ->
      node st;
      let start = switch_start st sc th (v st sc th) guards 0 in
      if start < 0 then Cnormal else run_cases st sc th bodies start
  | Labeled (name, body) ->
    (* attach the label to a directly labeled loop so [continue name]
       works; [break name] exits any labeled statement *)
    let label =
      match body.s with
      | While _ | Do_while _ | For _ | For_in _ -> Some name
      | _ -> None
    in
    let b = stmt hs ~label body in
    fun st sc th ->
      node st;
      (match b st sc th with
       | Cbreak (Some l) when String.equal l name -> Cnormal
       | other -> other)

(* The declarators of a [var] statement or a [for] head. Stamped ones
   ([slex], one address each) write their slot: the frame already has
   it, so an uninitialised one does nothing, as [declare] does for a
   slotted name. Unstamped ones declare and bind by name. *)
and declarators hs slex decls : state -> scope -> value -> unit =
  if Array.length slex > 0 then
    let inits =
      List.mapi (fun i (_, init) -> (slex.(i), init)) decls
      |> List.filter_map (fun (lex, init) ->
          Option.map (fun e -> (lex_depth lex, lex_slot lex, expr hs e)) init)
      |> Array.of_list
    in
    match inits with
    | [| (0, slot, c) |] -> fun st sc th -> sc.slots.(slot) <- c st sc th
    | _ ->
      fun st sc th ->
        for i = 0 to Array.length inits - 1 do
          let depth, slot, c = inits.(i) in
          let v = c st sc th in
          if depth = 0 then sc.slots.(slot) <- v
          else write_slot st sc depth slot v
        done
  else
    let decls = codes (fun (n, e) -> (n, Option.map (expr hs) e)) decls in
    fun st sc th ->
      for i = 0 to Array.length decls - 1 do
        let name, init = decls.(i) in
        declare sc name;
        match init with None -> () | Some c -> set_var st sc name (c st sc th)
      done

(* A function body, entered by [run_closure] with the frame created
   and its parameters bound: initialise its function declarations, run.
   A trailing [return e] hands back [e]'s value without a completion. *)
and func hs (f : func) : code =
  let run =
    match List.rev f.body with
    | [ { s = Return (Some e); _ } ] ->
      let e = expr hs e in
      fun st sc th -> node st; e st sc th
    | { s = Return (Some e); _ } :: rest ->
      let prefix = stmts hs (List.rev rest) and e = expr hs e in
      fun st sc th ->
        (match prefix st sc th with
         | Cnormal -> node st; e st sc th
         | c -> result st c)
    | _ ->
      let run = stmts hs f.body in
      fun st sc th -> result st (run st sc th)
  in
  match f.layout with
  | Some { l_decls = []; _ } -> run
  | Some lay ->
    let decls = codes (fun (slot, g) -> (slot, g, func hs g)) lay.l_decls in
    fun st sc th ->
      for i = 0 to Array.length decls - 1 do
        let slot, g, body = decls.(i) in
        sc.slots.(slot) <- Obj (make_closure st sc g body)
      done;
      run st sc th
  | None ->
    let names = Jsir.Resolve.hoisted_names [] f.body
    and decls = dynamic_decls hs f.body in
    fun st sc th -> hoist st sc names decls; run st sc th

and dynamic_decls hs body =
  codes (fun g -> (g, func hs g)) (Jsir.Resolve.function_decls body)

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
    { oid = -1; shape = root_shape; vals = [||]; proto = None;
      call = None; arr = None; host_tag = None }
  in
  let st =
    { clock; prng; symtab = Ceres_util.Symbol.create ();
      global_scope =
        { sid = 0; vars = Strtbl.create 64; parent = None;
          ltab = None; slots = [||]; syms = [||]; fup = None };
      global_obj = dummy_obj; object_proto = dummy_obj;
      array_proto = dummy_obj; function_proto = dummy_obj;
      string_proto = dummy_obj; number_proto = dummy_obj;
      error_proto = dummy_obj; next_oid = 1; next_sid = 1; call_depth = 0;
      max_call_depth = 2000; budget = Int64.to_int budget; console = [];
      echo_console = false; intrinsics = None;
      on_call_boundary = None;
      on_host_access = (fun _ _ -> ()); on_tick = None; on_call_site = None;
      apply = (fun _ _ _ _ -> Undefined); events = []; next_event_seq = 0;
      host_time_reads = 0; on_loop = None; write_floor = 0; scope_floor = 0;
      chunk = None }
  in
  let object_proto =
    { oid = 0; shape = root_shape; vals = [||]; proto = None;
      call = None; arr = None; host_tag = None }
  in
  st.object_proto <- object_proto;
  st.array_proto <- make_obj ~proto:(Some object_proto) st;
  st.function_proto <- make_obj ~proto:(Some object_proto) st;
  st.string_proto <- make_obj ~proto:(Some object_proto) st;
  st.number_proto <- make_obj ~proto:(Some object_proto) st;
  st.error_proto <- make_obj ~proto:(Some object_proto) st;
  st.global_obj <- make_obj ~proto:(Some object_proto) st;
  st.apply <- call;
  st

let run_program ?(resolve = true) st (p : program) : unit =
  if resolve then Jsir.Resolve.ensure st.symtab p;
  let hs = st.intrinsics in
  let run = stmts hs p.stmts in
  (match p.resolved_for, p.glayout with
   | Some t, Some glay when t == st.symtab ->
     attach_global st glay
       (codes (fun (slot, f) -> (slot, f, func hs f)) glay.l_decls)
   | _ ->
     hoist st st.global_scope (Jsir.Resolve.hoisted_names [] p.stmts)
       (dynamic_decls hs p.stmts));
  match run st st.global_scope (Obj st.global_obj) with
  | Cnormal | Creturn _ -> ()
  | Cbreak _ | Ccontinue _ -> type_error st "break/continue at top level"

let eval_in_global st (e : expr) : value =
  expr st.intrinsics e st st.global_scope (Obj st.global_obj)
