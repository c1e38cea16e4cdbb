(** Effect summaries (stage 2 of the static analyzer).

    A bottom-up may-effect summary per function, closed under a
    fixpoint over the name-resolved call graph. Intrinsics and the
    DOM/canvas/console/timer builtins carry hand-written summaries;
    heap effects are attributed to memory roots where resolvable and
    to parameter positions otherwise, translated at each call site
    through the argument regions. *)

open Jsir
module IS : Set.S with type elt = int

(** Which allocation an object reference may point into. *)
type region =
  | Fresh  (** allocated within the current activation *)
  | Root of Scope.root
  | Param of int
  | RThis
  | RUnknown

val region_join : region -> region -> region

type summary = {
  greads : Scope.RS.t;  (** scalar global/captured roots read *)
  gwrites : Scope.RS.t;
  hread_roots : Scope.RS.t;
  hread_params : IS.t;
  hread_unknown : bool;
  hwrite_roots : Scope.RS.t;
  hwrite_params : IS.t;
  hwrite_unknown : bool;
  this_reads : bool;
  this_writes : bool;
  io : bool;
  calls_unknown : bool;
  returns_shared : bool;
      (** may return a non-fresh, non-param, non-scalar value *)
  returns_params : IS.t;  (** parameter positions possibly returned *)
}

val bottom : summary
val join : summary -> summary -> summary

type t

val infer : Scope.t -> t
(** Run the summary fixpoint over every function of the program. *)

val summary : t -> Scope.fid -> summary
val scope : t -> Scope.t

val region_of :
  t ->
  ?param_as_root:bool ->
  ?local_env:(string -> region option) ->
  Scope.fid ->
  Ast.expr ->
  region
(** Region of an expression evaluated inside function [fid].
    [param_as_root] treats the function's own parameters as roots
    (loop-level view) instead of [Param] positions (call-boundary
    view); [local_env] overlays per-iteration knowledge. *)

(** How a call site behaves; shared with the loop-dependence walk. *)
type call_kind =
  | Cpure
  | Cio
  | Cmutate_receiver of string * Ast.expr
  | Cread_receiver of Ast.expr
  | Citerate of Ast.expr
  | Cuser of Scope.fid list
  | Cunknown

val classify_call : t -> Scope.fid -> Ast.expr -> call_kind

val callback_fids : t -> Scope.fid -> Ast.expr list -> Scope.fid list option
(** Resolve callback arguments of an iterating builtin; [None] when
    an argument may be an unresolvable function. *)

val apply :
  t ->
  callees:Scope.fid list ->
  arg_region:(int -> region) ->
  receiver:region option ->
  is_new:bool ->
  summary
(** The joined summaries of [callees] translated into the caller's
    frame: parameter-indexed heap effects land on the argument
    regions, [this] effects on the receiver ([new] receivers are
    fresh, so their [this] writes vanish). *)
