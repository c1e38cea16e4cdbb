(** Scope resolution for MiniJS (stage 1 of the static analyzer).

    Indexes every function of the program — the top level is function
    0 — honouring [var] hoisting (to the enclosing function, through
    blocks) and parameter/function-declaration binding; resolves name
    occurrences to owning frames; records the definitions reaching
    each binding (consumed by the effect and alias stages). *)

open Jsir

type fid = int

module SS : Set.S with type elt = string

(** A memory root: the binding an object is reached from. *)
type root =
  | Rglobal of string
  | Rlocal of fid * string  (** a [var]/param owned by a function frame *)

val root_compare : root -> root -> int
val root_name : root -> string

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

val fresh_method : string -> bool
(** Builtin methods returning a freshly allocated object
    ([slice], [map], [getImageData], ...). *)

val may_alias : t -> root -> root -> bool
(** Conservative alias test: two roots may alias unless both are
    alias-isolated with disjoint allocation-site sets, proven
    swap-distinct, or parameters of one function whose actual
    arguments are pairwise non-aliasing at every call site. *)
