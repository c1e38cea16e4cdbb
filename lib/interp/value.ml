(* Runtime values for the MiniJS interpreter.

   The representation follows JavaScript's object model closely enough
   for the paper's analysis to be meaningful:
   - objects are property maps with a prototype link: a shared, immutable
     {!shape} (the ordered keys, as SELF maps) and a [vals] slot array;
   - arrays are objects with a dense element store and a live [length];
   - functions are objects with an attached callable (closure or host
     function), so they can carry properties ([prototype] in
     particular) and be constructed with [new];
   - every object carries a unique [oid]; JS-CERES keys its
     creation-site stamps and per-property write snapshots on it.

   Scopes implement [var] function scoping: one {!scope} per function
   invocation (plus the global scope), each with a unique [sid] that
   the dependence analysis stamps at creation. *)

module Strtbl = Ceres_util.Strtbl
module Smap = Map.Make (String)

type value =
  | Num of float
  | Str of string
  | Bool of bool
  | Undefined
  | Null
  | Obj of obj

and obj = {
  oid : int;
  mutable shape : shape;
  mutable vals : value array;
      (* slot -> value; at least [shape.size] long, spare slots hold
         [Undefined] *)
  mutable proto : obj option;
  mutable call : callable option;
  mutable arr : arr_data option;
  mutable host_tag : string option;
      (* host-object discriminator, e.g. "canvas-context" *)
}

(* The keys of an object, in insertion order. A shared shape is a node
   of the one process-wide transition tree: immutable once published, so
   objects on any domain share it, and two objects with the same shape
   hold the same key at the same slot. A dictionary shape belongs to one
   object, which edits it in place. *)
and shape = {
  mutable keys : string array;
      (* slot -> key; a dictionary's may hold [hole]s and spare room *)
  mutable size : int; (* slots in use, holes included *)
  mutable index : int Strtbl.t;
      (* key -> slot; empty in a shared shape of at most [scan_max] keys,
         which are scanned instead *)
  mutable holes : int; (* dictionary only: deleted slots *)
  next : shape Smap.t Atomic.t; (* shared only: transitions by key *)
  prev : shape; (* shared only: the shape one key shorter *)
  dict : bool;
}

and arr_data = { mutable elems : value array; mutable len : int }

and callable =
  | Closure of closure
  | Host of string * host_fn
  | Host_unary of string * (float -> float)
      (* a one-argument numeric builtin: [Eval] calls it directly on a
         number, any other call coerces its first argument *)

and closure = { fn : Jsir.Ast.func; captured : scope; body : code }
(* [body]: [fn]'s body as compiled by [Eval], run in a fresh frame whose
   parameters are bound; returns the call's result *)

and code = state -> scope -> value -> value
(* compiled code: state, lexical scope, this; its only mutable state is
   its inline caches *)

and completion =
  | Cnormal
  | Creturn of value
  | Cbreak of string option (* optional target label *)
  | Ccontinue of string option

and host_fn = state -> value -> value list -> value
(* state, this, arguments *)

and scope = {
  sid : int;
  mutable vars : cell Strtbl.t;
      (* dynamic side table: catch parameters, wrapper bindings,
         implicit globals, and every binding of an unresolved frame.
         Starts as the shared, never-written [no_vars]; a frame gets
         its own table on its first dynamic binding. *)
  parent : scope option;
  mutable ltab : (string, int) Hashtbl.t option;
      (* slot layout of this frame: name -> slot. Function frames share
         their layout's table read-only; the global scope owns a
         mutable one accumulated across programs. [None] = dynamic
         scope (wrapper, or frame of an unresolved function). A name is
         either slotted or in [vars], never both. *)
  mutable slots : value array; (* slot-indexed activation record *)
  mutable syms : int array; (* slot -> interned symbol, for the runtime *)
  mutable fup : scope option;
      (* enclosing slotted frame (wrapper scopes skipped); the lexical
         [depth] in a resolved address counts [fup] hops *)
}

and cell = { mutable v : value }

and state = {
  clock : Ceres_util.Vclock.t;
  prng : Ceres_util.Prng.t;
  symtab : Ceres_util.Symbol.table;
      (* the state's interned names; programs are resolved against it
         by [Eval.run_program] *)
  mutable global_scope : scope;
  mutable global_obj : obj;
  mutable object_proto : obj;
  mutable array_proto : obj;
  mutable function_proto : obj;
  mutable string_proto : obj;
  mutable number_proto : obj;
  mutable error_proto : obj;
  mutable next_oid : int;
  mutable next_sid : int;
  mutable call_depth : int;
  max_call_depth : int;
  mutable budget : int; (* max busy vticks; raise Budget_exhausted past it *)
  mutable console : string list; (* reversed log of console output *)
  mutable echo_console : bool;
  mutable intrinsics :
    (compile:(Jsir.Ast.expr -> code) -> lex:int -> Jsir.Ast.intrinsic -> code)
    option;
      (* the analysis runtime's compiler for [Intrinsic] nodes, called
         once per node (with the node's [lex] stamp) when a program is
         compiled; [None] until one is installed *)
  (* instrumentation and embedding hooks; [None] (the default) costs a
     load + branch where an installed hook would be called *)
  mutable on_call_boundary : (unit -> unit) option;
  mutable on_host_access : string -> string -> unit;
      (* category (e.g. "dom"), operation *)
  mutable on_tick : (int -> unit) option;
      (* fault-injection probe called on every clock advance; [None]
         (the default) keeps the hot path a single load + branch *)
  mutable on_call_site : (int -> value -> int -> unit) option;
      (* source line of a call site, callee value, argument count *)
  mutable apply : state -> value -> value -> value list -> value;
      (* callback into the evaluator, installed by [Eval.create] *)
  mutable events : event list; (* pending timer queue, kept sorted *)
  mutable next_event_seq : int;
  mutable host_time_reads : int;
      (* Date.now / performance.now calls observed; a parallel-loop
         chunk that reads the clock is not deterministic and aborts *)
  mutable on_loop : (state -> scope -> value -> loop_visit -> bool) option;
      (* consulted by [Eval] when a [For] loop is entered (after its
         init clause ran): [true] = the hook executed the whole loop
         itself (the parallel-execution path), [false] = proceed
         sequentially. [None] keeps loop entry a single load. *)
  write_floor : int;
  scope_floor : int;
      (* objects with a smaller oid, and scopes with a smaller sid,
         predate the running chunk: its writes to them go through the
         write barrier. 0 on the master, which owns everything. *)
  chunk : chunk option; (* [Some] on a chunk's state *)
}

(* What the write barrier needs of a chunk running on the master heap. *)
and chunk = {
  frame : scope; (* the master frame the chunk runs a private copy of *)
  copy : scope;
  log_elem : obj -> arr_data -> int -> unit;
      (* before the chunk overwrites element [i < len] of a master array *)
}

and loop_visit = {
  lv_id : int; (* Jsir loop id, matching Jsir.Loops.info.id *)
  lv_cond : Jsir.Ast.expr option;
  lv_update : Jsir.Ast.expr option;
  lv_body : Jsir.Ast.stmt;
  lv_test : state -> scope -> value -> bool; (* compiled cond; true if absent *)
  lv_step : code; (* compiled update; its value is discarded *)
  lv_run : state -> scope -> value -> completion; (* compiled body *)
}

and event = {
  due : int64; (* vclock time, in vticks *)
  seq : int;
  callback : value;
  args : value list;
}

exception Js_throw of value
(** A JavaScript exception in flight ([throw] / host-raised errors). *)

exception Budget_exhausted
(** The interpreter exceeded its busy-tick budget. *)

exception Par_abort of string
(** A chunk tried something its instance cannot commit; it is raised
    before anything is mutated. *)

let master_write why = raise (Par_abort why)

(* The write barrier on scopes: a chunk may write only its copy of the
   invocation frame and the frames it created. *)
let[@inline] guard_scope st s =
  if s.sid < st.scope_floor then master_write "write to a master scope"

let () =
  Printexc.register_printer (function
    | Budget_exhausted ->
      Some "interpreter vclock budget exhausted (watchdog: possible runaway loop)"
    | _ -> None)

let type_of = function
  | Num _ -> "number"
  | Str _ -> "string"
  | Bool _ -> "boolean"
  | Undefined -> "undefined"
  | Null -> "object"
  | Obj o -> if o.call <> None then "function" else "object"

(* ------------------------------------------------------------------ *)
(* Shapes                                                              *)

(* Shared shapes up to this size are scanned; larger ones, and every
   dictionary, look keys up in [index]. *)
let scan_max = 8

(* An object that would pass this many keys turns into a dictionary,
   which keeps the transition tree bounded. *)
let max_shared = 32

(* A dictionary's deleted slot: compared physically, so no key is it. *)
let hole = String.make 1 '\000'

let no_index : int Strtbl.t = Strtbl.create 1

let rec root_shape =
  { keys = [||]; size = 0; index = no_index; holes = 0;
    next = Atomic.make Smap.empty; prev = root_shape; dict = false }

let rec scan keys key i n =
  if i = n then -1
  else
    let k = Array.unsafe_get keys i in
    if String.length k = String.length key && String.equal k key then i
    else scan keys key (i + 1) n

(* The slot of [key] in [sh], or -1. *)
let slot_of sh key =
  if sh.size <= scan_max && not sh.dict then scan sh.keys key 0 sh.size
  else match Strtbl.find sh.index key with s -> s | exception Not_found -> -1

let index_of_keys keys n =
  let t = Strtbl.create (2 * n) in
  for i = 0 to n - 1 do
    let k = keys.(i) in
    if k != hole then Strtbl.replace t k i
  done;
  t

(* The shared shape [sh] plus [key]: taken from the transition tree, or
   built and published by compare-and-set. A lost race re-reads the
   transitions, so every domain ends up with the same child. *)
let rec transition sh key =
  let m = Atomic.get sh.next in
  match Smap.find key m with
  | c -> c
  | exception Not_found ->
    let n = sh.size + 1 in
    let keys = Array.make n key in
    Array.blit sh.keys 0 keys 0 sh.size;
    let c =
      { keys; size = n;
        index = (if n > scan_max then index_of_keys keys n else no_index);
        holes = 0; next = Atomic.make Smap.empty; prev = sh; dict = false }
    in
    if Atomic.compare_and_set sh.next m (Smap.add key c m) then c
    else transition sh key

(* The shared shape holding exactly [keys], in order; [None] when they
   repeat a key or are too many to share. *)
let shape_of_keys keys =
  let n = Array.length keys in
  if n > max_shared then None
  else
    let rec go sh i =
      if i = n then Some sh
      else if slot_of sh keys.(i) >= 0 then None
      else go (transition sh keys.(i)) (i + 1)
    in
    go root_shape 0

(* A private, editable copy of [sh]. *)
let dict_of sh =
  let cap = max 8 (2 * sh.size) in
  let keys = Array.make cap hole in
  Array.blit sh.keys 0 keys 0 sh.size;
  { keys; size = sh.size; index = index_of_keys keys sh.size;
    holes = sh.holes; next = Atomic.make Smap.empty; prev = root_shape;
    dict = true }

(* ------------------------------------------------------------------ *)
(* Object primitives                                                   *)

let fresh_oid st =
  let oid = st.next_oid in
  st.next_oid <- st.next_oid + 1;
  oid

let make_obj ?proto st =
  { oid = fresh_oid st;
    shape = root_shape;
    vals = [||];
    proto = (match proto with Some p -> p | None -> Some st.object_proto);
    call = None;
    arr = None;
    host_tag = None }

let make_array st values =
  let o = make_obj ~proto:(Some st.array_proto) st in
  let n = Array.length values in
  let cap = max 8 n in
  let elems = Array.make cap Undefined in
  Array.blit values 0 elems 0 n;
  o.arr <- Some { elems; len = n };
  o

let make_function st call =
  let o = make_obj ~proto:(Some st.function_proto) st in
  o.call <- Some call;
  o

let make_host_fn st name fn = make_function st (Host (name, fn))

(* Canonical array index of a property key, allocation- and
   exception-free. Matches the round-trip check
   [int_of_string_opt key = Some i && string_of_int i = key]: plain
   decimal digits, no leading zero (except "0" itself), no sign. *)
let array_index_of_key key =
  let n = String.length key in
  if n = 0 || n > 18 || (n > 1 && String.unsafe_get key 0 = '0') then None
  else begin
    let rec go i acc =
      if i = n then Some acc
      else
        let c = Char.code (String.unsafe_get key i) - Char.code '0' in
        if c >= 0 && c <= 9 then go (i + 1) ((acc * 10) + c) else None
    in
    go 0 0
  end

(* Room for slot [s] in [o.vals]. *)
let ensure_slot o s =
  let cap = Array.length o.vals in
  if s >= cap then begin
    let vals = Array.make (max 4 (max (s + 1) (2 * cap))) Undefined in
    Array.blit o.vals 0 vals 0 cap;
    o.vals <- vals
  end

(* Append [key] to a dictionary shape. *)
let dict_add o sh key v =
  let s = sh.size in
  if s = Array.length sh.keys then begin
    let keys = Array.make (2 * s) hole in
    Array.blit sh.keys 0 keys 0 s;
    sh.keys <- keys
  end;
  sh.keys.(s) <- key;
  Strtbl.replace sh.index key s;
  sh.size <- s + 1;
  ensure_slot o s;
  Array.unsafe_set o.vals s v

(* A key [o] does not have yet, at the end of the key order. *)
let add_prop o key v =
  let sh = o.shape in
  if sh.dict then dict_add o sh key v
  else if sh.size >= max_shared then begin
    let d = dict_of sh in
    o.shape <- d;
    dict_add o d key v
  end
  else begin
    let c = transition sh key in
    let s = sh.size in
    ensure_slot o s;
    Array.unsafe_set o.vals s v;
    o.shape <- c
  end

let raw_set_prop o key v =
  let s = slot_of o.shape key in
  if s >= 0 then Array.unsafe_set o.vals s v else add_prop o key v

let raw_get_own o key =
  let s = slot_of o.shape key in
  if s >= 0 then Some (Array.unsafe_get o.vals s) else None

let has_own_prop o key = slot_of o.shape key >= 0

(* Drop the holes of a dictionary, keeping the key order. *)
let compact o sh =
  let n = sh.size - sh.holes in
  let keys = Array.make (max 8 (2 * n)) hole
  and vals = Array.make (max 4 n) Undefined in
  let j = ref 0 in
  for i = 0 to sh.size - 1 do
    if sh.keys.(i) != hole then begin
      keys.(!j) <- sh.keys.(i);
      vals.(!j) <- o.vals.(i);
      incr j
    end
  done;
  sh.keys <- keys;
  sh.size <- n;
  sh.holes <- 0;
  sh.index <- index_of_keys keys n;
  o.vals <- vals

(* A delete turns the object into a dictionary, so no shared shape ever
   has a hole. *)
let raw_delete_prop o key =
  let s = slot_of o.shape key in
  if s >= 0 then begin
    let sh = if o.shape.dict then o.shape else dict_of o.shape in
    o.shape <- sh;
    Strtbl.remove sh.index key;
    sh.keys.(s) <- hole;
    o.vals.(s) <- Undefined;
    sh.holes <- sh.holes + 1;
    if sh.holes > 8 && 2 * sh.holes > sh.size then compact o sh
  end;
  true (* deleting a missing property succeeds in JS *)

(* The named keys in insertion order. *)
let shape_keys sh =
  let rec go i acc =
    if i < 0 then acc
    else
      let k = sh.keys.(i) in
      go (i - 1) (if k == hole then acc else k :: acc)
  in
  go (sh.size - 1) []

let own_keys o =
  let named = shape_keys o.shape in
  match o.arr with
  | None -> named
  | Some a ->
    let idx = List.init a.len string_of_int in
    idx @ named

(* Grow an array store to hold index [i]. *)
let ensure_capacity a i =
  let cap = Array.length a.elems in
  if i >= cap then begin
    let ncap = max (i + 1) (max 8 (2 * cap)) in
    let elems = Array.make ncap Undefined in
    Array.blit a.elems 0 elems 0 a.len;
    a.elems <- elems
  end

let array_set_length a n =
  if n < a.len then begin
    (* truncate, clearing dropped slots so they can be collected *)
    for i = n to a.len - 1 do
      a.elems.(i) <- Undefined
    done;
    a.len <- n
  end
  else if n > a.len then begin
    ensure_capacity a (n - 1);
    a.len <- n
  end

(* Prototype-chain property lookup on a bare object. The index parse
   runs only for actual arrays. *)
let rec get_prop_obj o key =
  match o.arr with
  | Some a ->
    (match array_index_of_key key with
     | Some i -> if i < a.len then a.elems.(i) else lookup_chain o key
     | None ->
       if String.equal key "length" then Num (float_of_int a.len)
       else lookup_chain o key)
  | None -> lookup_chain o key

and lookup_chain o key =
  let s = slot_of o.shape key in
  if s >= 0 then Array.unsafe_get o.vals s
  else
    match o.proto with
    | Some p -> get_prop_obj p key
    | None -> Undefined

let array_store_set a i v =
  ensure_capacity a i;
  a.elems.(i) <- v;
  if i >= a.len then a.len <- i + 1

let set_prop_obj o key v =
  match o.arr with
  | Some a ->
    (match array_index_of_key key with
     | Some i -> array_store_set a i v
     | None ->
       if String.equal key "length" then
         match v with
         | Num f when Float.is_integer f && f >= 0. ->
           array_set_length a (int_of_float f)
         | _ -> raise (Js_throw (Str "Invalid array length"))
       else raw_set_prop o key v)
  | None -> raw_set_prop o key v

let has_prop_obj o key =
  let rec chain o =
    slot_of o.shape key >= 0
    || (match o.proto with Some p -> chain p | None -> false)
  in
  (match o.arr with
   | Some a ->
     (match array_index_of_key key with
      | Some i -> i < a.len
      | None -> String.equal key "length")
   | None -> false)
  || chain o

(* ------------------------------------------------------------------ *)
(* Coercions                                                           *)

(* The two booleans, allocated once: comparisons and [!] return these
   instead of building a fresh [Bool] block. *)
let v_true = Bool true
let v_false = Bool false
let[@inline] vbool b = if b then v_true else v_false

let to_boolean = function
  | Bool b -> b
  | Num f -> not (f = 0. || Float.is_nan f)
  | Str s -> String.length s > 0
  | Undefined | Null -> false
  | Obj _ -> true

let number_of_string s =
  let s = String.trim s in
  if s = "" then 0.
  else
    match float_of_string_opt s with
    | Some f -> f
    | None ->
      (* JS also accepts 0x literals; float_of_string already does. *)
      Float.nan

(* String conversion may need to call a user [toString]; the [st]
   parameter provides [apply] for that. *)
let rec to_string st v =
  match v with
  | Str s -> s
  | Num f -> Jsir.Printer.number_to_string f
  | Bool b -> if b then "true" else "false"
  | Undefined -> "undefined"
  | Null -> "null"
  | Obj o ->
    (match get_prop_obj o "toString" with
     | Obj f when f.call <> None ->
       (match st.apply st (Obj f) v [] with
        | Obj _ -> default_obj_string st o
        | prim -> to_string st prim)
     | _ -> default_obj_string st o)

and default_obj_string st o =
  match o.arr with
  | Some a ->
    let parts =
      List.init a.len (fun i ->
          match a.elems.(i) with
          | Undefined | Null -> ""
          | v -> to_string st v)
    in
    String.concat "," parts
  | None -> if o.call <> None then "function () { [code] }" else "[object Object]"

let to_number st v =
  match v with
  | Num f -> f
  | Bool b -> if b then 1. else 0.
  | Str s -> number_of_string s
  | Null -> 0.
  | Undefined -> Float.nan
  | Obj _ -> number_of_string (to_string st v)

(* ToPrimitive with default hint, as needed by [+] and [==]. *)
let to_primitive st v =
  match v with
  | Obj _ -> Str (to_string st v)
  | prim -> prim

let two_pow_32 = 4294967296.

let to_int32 st v =
  let f = to_number st v in
  if Float.is_nan f || Float.abs f = Float.infinity then 0l
  else begin
    let m = Float.rem (Float.trunc f) two_pow_32 in
    let m = if m < 0. then m +. two_pow_32 else m in
    let m = if m >= two_pow_32 /. 2. then m -. two_pow_32 else m in
    Int32.of_float m
  end

let to_uint32 st v =
  let f = to_number st v in
  if Float.is_nan f || Float.abs f = Float.infinity then 0
  else begin
    let m = Float.rem (Float.trunc f) two_pow_32 in
    let m = if m < 0. then m +. two_pow_32 else m in
    int_of_float m
  end

(* Abstract equality (==), covering the coercion lattice our workloads
   exercise. *)
let rec abstract_eq st a b =
  match a, b with
  | Num x, Num y -> x = y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Undefined, Undefined | Null, Null -> true
  | Undefined, Null | Null, Undefined -> true
  | Obj x, Obj y -> x.oid = y.oid
  | Num _, Str _ -> abstract_eq st a (Num (to_number st b))
  | Str _, Num _ -> abstract_eq st (Num (to_number st a)) b
  | Bool _, _ -> abstract_eq st (Num (to_number st a)) b
  | _, Bool _ -> abstract_eq st a (Num (to_number st b))
  | Obj _, (Num _ | Str _) -> abstract_eq st (to_primitive st a) b
  | (Num _ | Str _), Obj _ -> abstract_eq st a (to_primitive st b)
  | _ -> false

let strict_eq a b =
  match a, b with
  | Num x, Num y -> x = y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Undefined, Undefined | Null, Null -> true
  | Obj x, Obj y -> x.oid = y.oid
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)

(* The side table of every frame with no dynamic binding. Nothing may
   write it: a writer first gives the frame its own table
   ([own_vars]). Forks on other domains read it concurrently. *)
let no_vars : cell Strtbl.t = Strtbl.create 1

let own_vars scope =
  if scope.vars == no_vars then scope.vars <- Strtbl.create 8;
  scope.vars

let fresh_scope st parent =
  let sid = st.next_sid in
  st.next_sid <- st.next_sid + 1;
  { sid; vars = no_vars; parent;
    ltab = None; slots = [||]; syms = [||]; fup = None }

(* Slot of [name] at this level only, or -1. *)
let scope_slot scope name =
  match scope.ltab with
  | None -> -1
  | Some t -> (match Hashtbl.find_opt t name with Some s -> s | None -> -1)

let declare scope name =
  if scope_slot scope name < 0 && not (Strtbl.mem scope.vars name) then
    Strtbl.replace (own_vars scope) name { v = Undefined }

(* Where [name] lives, walking out from [scope]: the owning scope and
   its slot there (-1 = a dynamic cell in that scope's [vars]). *)
let rec var_home scope name =
  if Strtbl.length scope.vars > 0 && Strtbl.mem scope.vars name then
    Some (scope, -1)
  else
    let s = scope_slot scope name in
    if s >= 0 then Some (scope, s)
    else
      match scope.parent with
      | Some p -> var_home p name
      | None -> None

let var_exists scope name = var_home scope name <> None

let owner_scope scope name =
  match var_home scope name with Some (s, _) -> Some s | None -> None

let scope_read scope slot name =
  if slot >= 0 then scope.slots.(slot)
  else (Strtbl.find scope.vars name).v

let scope_write scope slot name v =
  if slot >= 0 then scope.slots.(slot) <- v
  else (Strtbl.find scope.vars name).v <- v

let not_defined name =
  raise (Js_throw (Str (Printf.sprintf "ReferenceError: %s is not defined" name)))

(* A property on the prototype chain from [o], in one walk; [Not_found]
   when no object on it has the name. *)
let rec chain_find o name =
  let s = slot_of o.shape name in
  if s >= 0 then Array.unsafe_get o.vals s
  else
    match o.proto with
    | Some p -> chain_find p name
    | None -> raise_notrace Not_found

(* Host globals live on the global object. *)
let find_global st name = chain_find st.global_obj name

(* A dynamic read that walks past a chunk's copy to the master frame
   behind it would see the frame as it was at the fork. *)
let guard_read st s =
  match st.chunk with
  | Some c when s == c.frame -> master_write "read of the copied frame"
  | _ -> ()

let get_var st scope name =
  match var_home scope name with
  | Some (s, slot) -> guard_read st s; scope_read s slot name
  | None ->
    (match find_global st name with
     | v -> v
     | exception Not_found -> not_defined name)

(* A free name lives in the global side table (an implicit global), in
   the global slot a program attached for it, or on the global object,
   and in that order. The side table is probed only when it holds
   something; a slot counts once [attach_global] entered the name, which
   is when it set the slot's symbol. *)
let find_free st sym name =
  let g = st.global_scope in
  if Strtbl.length g.vars > 0 && Strtbl.mem g.vars name then
    (Strtbl.find g.vars name).v
  else
    let slot = Ceres_util.Symbol.find_global_slot st.symtab sym in
    if slot >= 0 && slot < Array.length g.syms
       && Array.unsafe_get g.syms slot = sym
    then Array.unsafe_get g.slots slot
    else chain_find st.global_obj name

let get_free st sym name =
  match find_free st sym name with
  | v -> v
  | exception Not_found -> not_defined name

let set_var st scope name v =
  match var_home scope name with
  | Some (s, slot) -> guard_scope st s; scope_write s slot name v
  | None ->
    (* Implicit global, as in sloppy-mode JS. *)
    guard_scope st st.global_scope;
    declare st.global_scope name;
    (match Strtbl.find_opt st.global_scope.vars name with
     | Some cell -> cell.v <- v
     | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Resolved (lexically addressed) variable access: no string hashing.
   [lex] packs [(depth, slot)]; the resolver only emits addresses whose
   frame provably exists, so the walk cannot fail. *)

let rec frame_up scope n =
  if n = 0 then scope
  else
    match scope.fup with
    | Some s -> frame_up s (n - 1)
    | None -> invalid_arg "frame_up: unresolved frame chain"

let get_lex st scope lex =
  let depth = lex land 0xFFF in
  let slot = lex lsr 12 in
  if depth = 0xFFF then Array.unsafe_get st.global_scope.slots slot
  else (frame_up scope depth).slots.(slot)

let set_lex st scope lex v =
  let depth = lex land 0xFFF in
  let slot = lex lsr 12 in
  let f = if depth = 0xFFF then st.global_scope else frame_up scope depth in
  guard_scope st f;
  f.slots.(slot) <- v

(* ------------------------------------------------------------------ *)
(* Error helpers                                                       *)

let throw_error st kind msg =
  let o = make_obj ~proto:(Some st.error_proto) st in
  raw_set_prop o "name" (Str kind);
  raw_set_prop o "message" (Str msg);
  raise (Js_throw (Obj o))

let type_error st msg = throw_error st "TypeError" msg

(* ------------------------------------------------------------------ *)
(* Binary operators over evaluated operands                            *)

(* [+] once a side is not a number. *)
let add_values st lv rv =
  let lp = to_primitive st lv in
  let rp = to_primitive st rv in
  match lp, rp with
  | Str _, _ | _, Str _ -> Str (to_string st lp ^ to_string st rp)
  | _ -> Num (to_number st lp +. to_number st rp)

(* Relational comparison, the left operand coerced first. IEEE
   comparisons are already false on NaN. *)
let compare_values st (op : Jsir.Ast.binop) lv rv =
  let lp = to_primitive st lv in
  let rp = to_primitive st rv in
  match lp, rp with
  | Str a, Str b ->
    let c = String.compare a b in
    (match op with Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | _ -> c >= 0)
  | _ ->
    let a = to_number st lp and b = to_number st rp in
    (match op with Lt -> a < b | Le -> a <= b | Gt -> a > b | _ -> a >= b)

let of_int32 i = Num (Int32.to_float i)

(* A side that needs coercing is coerced after both are evaluated, the
   right one first except for [+] and the relational operators. *)
let binop st (op : Jsir.Ast.binop) lv rv =
  match op with
  | Add ->
    (match lv, rv with
     | Num a, Num b -> Num (a +. b)
     | _ -> add_values st lv rv)
  | Sub | Mul | Div | Mod ->
    let b = to_number st rv in
    let a = to_number st lv in
    Num
      (match op with
       | Sub -> a -. b
       | Mul -> a *. b
       | Div -> a /. b
       | _ -> Float.rem a b)
  | Lt | Le | Gt | Ge -> vbool (compare_values st op lv rv)
  | Eq -> vbool (abstract_eq st lv rv)
  | Neq -> vbool (not (abstract_eq st lv rv))
  | Strict_eq -> vbool (strict_eq lv rv)
  | Strict_neq -> vbool (not (strict_eq lv rv))
  | Band -> of_int32 (Int32.logand (to_int32 st lv) (to_int32 st rv))
  | Bor -> of_int32 (Int32.logor (to_int32 st lv) (to_int32 st rv))
  | Bxor -> of_int32 (Int32.logxor (to_int32 st lv) (to_int32 st rv))
  | Lshift | Rshift | Urshift ->
    let shift = to_uint32 st rv land 31 in
    (match op with
     | Lshift -> of_int32 (Int32.shift_left (to_int32 st lv) shift)
     | Rshift -> of_int32 (Int32.shift_right (to_int32 st lv) shift)
     | _ -> Num (float_of_int (to_uint32 st lv lsr shift)))
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
        | _ -> v_false)
     | _ -> type_error st "right-hand side of instanceof is not callable")
  | In ->
    (match rv with
     | Obj o -> vbool (has_prop_obj o (to_string st lv))
     | _ -> type_error st "right-hand side of 'in' is not an object")
