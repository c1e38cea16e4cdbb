(** Runtime values and interpreter state for MiniJS.

    The representation follows JavaScript's object model closely enough
    for the paper's analysis to be meaningful: mutable property maps
    with prototype links, arrays with a dense element store and a live
    [length], functions as callable objects, and [var] function scoping
    (one {!scope} per invocation). Every object carries a unique [oid]
    and every scope a unique [sid]; JS-CERES keys its creation-site
    stamps and write snapshots on them.

    The types are transparent: the interpreter, the DOM, the analysis
    glue and the tests all pattern-match on them. Treat direct mutation
    outside those layers as off-limits. *)

module Strtbl = Ceres_util.Strtbl
(** Property maps and dynamic scope tables: string-keyed, with the
    generic table's hash, so iteration order is the generic one. *)

type value =
  | Num of float
  | Str of string
  | Bool of bool
  | Undefined
  | Null
  | Obj of obj

and obj = {
  oid : int; (** unique object identity *)
  props : value Strtbl.t;
  mutable key_order : string list; (** reversed insertion order *)
  mutable proto : obj option;
  mutable call : callable option; (** Some = the object is a function *)
  mutable arr : arr_data option; (** Some = the object is an array *)
  mutable host_tag : string option;
      (** host-object discriminator, e.g. ["element"],
          ["canvas-context"] *)
}

and arr_data = { mutable elems : value array; mutable len : int }

and callable =
  | Closure of closure
  | Host of string * host_fn

and closure = { fn : Jsir.Ast.func; captured : scope; body : code }
(** [body] is [fn]'s body compiled by {!Eval}: run in a fresh frame
    whose parameters are bound, it returns the call's result. *)

and code = state -> scope -> value -> value
(** Compiled code: state, lexical scope, [this]. It holds no mutable
    state, so forked chunks on other domains share it. *)

and completion =
  | Cnormal
  | Creturn of value
  | Cbreak of string option (** optional target label *)
  | Ccontinue of string option
(** Statement completion (exceptions travel as {!Js_throw}). *)

and host_fn = state -> value -> value list -> value
(** state, [this], arguments. *)

and scope = {
  sid : int; (** unique scope identity, stamped by the analysis *)
  mutable vars : cell Strtbl.t;
      (** dynamic side table: catch parameters, wrapper bindings,
          implicit globals, bindings of unresolved frames. {!no_vars}
          until the frame's first dynamic binding ({!own_vars}). *)
  parent : scope option;
  mutable ltab : (string, int) Hashtbl.t option;
      (** name -> slot of this frame's layout; [None] = dynamic scope.
          A name is either slotted or in [vars], never both. *)
  mutable slots : value array; (** slot-indexed activation record *)
  mutable syms : int array; (** slot -> interned symbol *)
  mutable fup : scope option;
      (** enclosing slotted frame (wrappers skipped); resolved [depth]
          counts [fup] hops *)
}

and cell = { mutable v : value }

and state = {
  clock : Ceres_util.Vclock.t;
  prng : Ceres_util.Prng.t; (** backs [Math.random]; seeded *)
  symtab : Ceres_util.Symbol.table;
      (** the state's interned names; programs are resolved against it
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
  max_call_depth : int; (** exceeded -> catchable RangeError *)
  mutable budget : int; (** max busy vticks; {!Budget_exhausted} past it *)
  mutable console : string list; (** reversed console output *)
  mutable echo_console : bool;
  intrinsics : (string, intrinsic) Hashtbl.t;
      (** handler factories for {!Jsir.Ast.Intrinsic} nodes, registered
          by {!Ceres.Install} and looked up when a program is
          compiled *)
  mutable on_scope_create : scope -> unit;
  mutable on_call_enter : string option -> unit;
  mutable on_call_exit : unit -> unit;
  mutable on_host_access : string -> string -> unit;
      (** (category, operation): the DOM/canvas report channel *)
  mutable on_tick : (int -> unit) option;
      (** fault-injection probe fired on every clock advance (receives
          the tick cost); [None] by default, so the interpreter hot
          path pays one load + branch when no chaos plan is armed *)
  mutable on_call_site : int -> value -> int -> unit;
      (** (source line, callee, argument count) for every syntactic
          call; backs the call-site mono/polymorphism census *)
  mutable apply : state -> value -> value -> value list -> value;
      (** callback into the evaluator, installed by [Eval.create] *)
  mutable events : event list;
  mutable next_event_seq : int;
  mutable host_time_reads : int;
      (** count of [Date.now]/[performance.now] calls; lets the
          parallel-loop runtime detect (and abort on) clock reads
          inside a forked chunk *)
  mutable on_loop : (state -> scope -> value -> loop_visit -> bool) option;
      (** consulted on [For] entry, after the init clause: [true] =
          the hook executed the whole loop (parallel path), [false] =
          run sequentially. [None] by default. *)
}

and loop_visit = {
  lv_id : int;  (** Jsir loop id, matching {!Jsir.Loops.info}[.id] *)
  lv_cond : Jsir.Ast.expr option;
  lv_update : Jsir.Ast.expr option;
  lv_body : Jsir.Ast.stmt;
  lv_test : state -> scope -> value -> bool;
      (** the compiled condition ([true] when absent) *)
  lv_step : code;  (** the compiled update; its value is discarded *)
  lv_run : state -> scope -> value -> completion;  (** the compiled body *)
}
(** Built once per [for] loop when it is compiled. *)

and intrinsic = compile:(Jsir.Ast.expr -> code) -> Jsir.Ast.expr list -> code
(** A handler factory, called once per {!Jsir.Ast.Intrinsic} node when
    the program is compiled, with the *unevaluated* argument
    expressions and the compiler for them: the code it returns controls
    which operands run, in which order, and reads literal operands
    ahead of time. *)

and event = { due : int64; seq : int; callback : value; args : value list }

exception Js_throw of value
(** A JavaScript exception in flight. *)

exception Budget_exhausted

val type_of : value -> string
(** JavaScript [typeof] (with [typeof null = "object"]). *)

(** {1 Objects} *)

val fresh_oid : state -> int
val make_obj : ?proto:obj option -> state -> obj
val make_array : state -> value array -> obj
val make_function : state -> callable -> obj
val make_host_fn : state -> string -> host_fn -> obj
val is_array : obj -> bool

val array_index_of_key : string -> int option
(** [Some i] when the key is a canonical array index. *)

val raw_set_prop : obj -> string -> value -> unit
(** Own-property write, bypassing array index handling and hooks. *)

val raw_get_own : obj -> string -> value option
val raw_delete_prop : obj -> string -> bool
val own_keys : obj -> string list
(** Array indices first, then named keys in insertion order. *)

val ensure_capacity : arr_data -> int -> unit
val array_set_length : arr_data -> int -> unit

val array_store_set : arr_data -> int -> value -> unit
(** Element write: grow, store, bump [len] — the [set_prop_obj] index
    branch without the key parse. *)

val get_prop_obj : obj -> string -> value
(** Prototype-chain lookup, array-index aware. *)

val set_prop_obj : obj -> string -> value -> unit
val has_prop_obj : obj -> string -> bool

(** {1 Coercions} *)

val v_true : value
val v_false : value

val vbool : bool -> value
(** One of the two preallocated [Bool] values above: allocation-free. *)

val to_boolean : value -> bool
val number_of_string : string -> float
val to_string : state -> value -> string
(** May call a user [toString] through [state.apply]. *)

val default_obj_string : state -> obj -> string
val to_number : state -> value -> float
val to_primitive : state -> value -> value
val to_int32 : state -> value -> int32
val to_uint32 : state -> value -> int
val abstract_eq : state -> value -> value -> bool
(** JavaScript [==] over the coercion lattice. *)

val strict_eq : value -> value -> bool
(** JavaScript [===]; objects by identity. *)

(** {1 Scopes} *)

val no_vars : cell Strtbl.t
(** The shared side table of every scope without dynamic bindings.
    It stays empty: nothing writes it, so scopes on any domain can
    share it. *)

val own_vars : scope -> cell Strtbl.t
(** The scope's side table for writing: replaces {!no_vars} with a
    fresh table of the scope's own first. *)

val fresh_scope : state -> scope option -> scope
(** New scope (fires [on_scope_create]), sharing {!no_vars}. *)

val declare : scope -> string -> unit
(** Bind the name to [Undefined] if not already bound here (slotted
    names count as bound). *)

val scope_slot : scope -> string -> int
(** Slot of the name at this level only, or -1. *)

val var_home : scope -> string -> (scope * int) option
(** Where the name lives, walking out from [scope]: the owning scope
    and its slot there (-1 = a dynamic cell in that scope's [vars]). *)

val var_exists : scope -> string -> bool

val owner_scope : scope -> string -> scope option
(** The scope in the chain that owns the binding. *)

val scope_read : scope -> int -> string -> value
(** Read slot/cell located by {!var_home}. *)

val scope_write : scope -> int -> string -> value -> unit

val get_var : state -> scope -> string -> value
(** Falls back to global-object properties; ReferenceError if absent. *)

val set_var : state -> scope -> string -> value -> unit
(** Sloppy-mode semantics: unbound names become implicit globals. *)

(** {2 Resolved access}

    No string hashing: [lex] packs [(depth, slot)] as produced by the
    resolver, whose addresses provably exist at runtime. *)

val frame_up : scope -> int -> scope
val get_lex : state -> scope -> int -> value
val set_lex : state -> scope -> int -> value -> unit

val register_intrinsic : state -> string -> intrinsic -> unit
(** Register an {!Jsir.Ast.Intrinsic} handler factory; programs
    compiled afterwards use it. *)

(** {1 Errors} *)

val throw_error : state -> string -> string -> 'a
(** Throw a JS error object with the given [name] and message. *)

val type_error : state -> string -> 'a

(** {1 Binary operators} *)

val add_values : state -> value -> value -> value
(** [+] once a side is not a number: string concatenation if either
    primitive is a string, else numeric addition. *)

val compare_values : state -> Jsir.Ast.binop -> value -> value -> bool
(** [<], [<=], [>], [>=] over evaluated operands, the left one coerced
    first. *)

val binop : state -> Jsir.Ast.binop -> value -> value -> value
(** The binary-operator semantics over evaluated operands. A side that
    needs coercing is coerced after both are evaluated, the right one
    first except for [+] and the relational operators. *)
