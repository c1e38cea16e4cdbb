(** Scope resolution for MiniJS (stage 1 of the static analyzer).

    Indexes every function of the program — the top level is function
    0 — honouring [var] hoisting (to the enclosing function, through
    blocks) and parameter/function-declaration binding; resolves name
    occurrences to owning frames; records the definitions reaching
    each binding (consumed by the effect and alias stages); and
    tabulates direct global reads/writes per function. *)

open Jsir

type fid = int

module SS : Set.S with type elt = string

(** A memory root: the binding an object is reached from. *)
type root =
  | Rglobal of string
  | Rlocal of fid * string  (** a [var]/param owned by a function frame *)

val root_compare : root -> root -> int
val root_name : root -> string
val root_to_string : root -> string

module RS : Set.S with type elt = root
module RM : Map.S with type key = root

type func_rec = {
  fid : fid;
  fname : string option;
  params : string list;
  parent : fid option;
  locals : SS.t;
      (** params + own name + the names the body hoists (vars,
          for/for-in heads, function declarations) + its catch
          parameters *)
  body : Ast.stmt list;
  line : int;
}

type def =
  | Dexpr of fid * Ast.expr * fid option
      (** RHS, the frame it appears in, and its function id when the
          RHS is syntactically a function *)
  | Dunknown

type t

val resolve_program : Ast.program -> t

val functions : t -> func_rec list
val func : t -> fid -> func_rec
val resolve : t -> fid -> string -> root

type binding = Local | Captured of fid | Global

val classify : t -> fid -> string -> binding
(** How a name used inside function [fid] is bound. *)

val captures : t -> fid -> (string * fid) list
(** Free names of [fid]'s own body bound by an enclosing function
    frame, with the owner — the closure captures. *)

val global_reads : t -> fid -> string list
val global_writes : t -> fid -> string list
(** Direct (non-transitive) global accesses of the function body. *)

val defs_of : t -> root -> def list
(** Every definition reaching the binding. For parameters these are
    the matching arguments of the discovered call sites. Never
    empty: unknown sources appear as {!Dunknown}. *)

val funcs_of_root : t -> root -> fid list
(** Functions the binding can be bound to (via direct function
    definitions reaching it). *)

val prop_funcs : t -> string -> fid list
(** Functions assigned to a property of that name anywhere in the
    program (object literals, [o.m = function], prototypes). *)

val call_sites : t -> root -> (fid * (Ast.expr * fid option) list) list
(** Call sites whose callee is that identifier binding. *)

val fresh_method : string -> bool
(** Builtin methods returning a freshly allocated object
    ([slice], [map], [getImageData], ...). *)

val alloc_sites : t -> root -> string list option
(** [Some sites] when every definition reaching the root is a fresh
    allocation (literal, [new], copying builtin, or the [.data] of
    such) or a scalar; the allocation-site keys. Copy cycles between
    roots (the pointer-swap idiom) resolve to the union of the
    allocation defs around the cycle. [None] = not alias-isolated. *)

val expr_sites : t -> fid -> Ast.expr -> string list option
(** Allocation sites of an arbitrary expression evaluated in [fid]
    (scalars have none, identifiers defer to {!alloc_sites}). *)

val swap_distinct : t -> root -> root -> bool
(** The pair is joined by a recognized three-statement swap idiom
    [t = a; a = b; b = t], each root has exactly one (distinct)
    allocation def, and every other def of either root is a move of
    this very swap — the two bindings then always hold two distinct
    allocations, so they never alias. *)

val may_alias : t -> root -> root -> bool
(** Conservative alias test: two roots may alias unless both are
    alias-isolated with disjoint allocation-site sets, proven
    swap-distinct, or parameters of one function whose actual
    arguments are pairwise non-aliasing at every call site. *)
