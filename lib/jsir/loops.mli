(** Static index of the syntactic loops in a program.

    JS-CERES reports characterize accesses against the *loop nest*
    ("while(line 24) ok ok → for(line 6) ok dependence"); this module
    recovers, per {!Ast.loop_id}: its kind, source line, syntactic
    parent loop and enclosing function, so reports can be rendered in
    the paper's notation. *)

type info = {
  id : Ast.loop_id;
  kind : Ast.loop_kind;
  line : int;                 (** 1-based source line of the loop head *)
  parent : Ast.loop_id option; (** innermost syntactically-enclosing loop *)
  in_function : string option; (** nearest enclosing named function *)
  depth : int;                (** 0 for top-level loops *)
}

val index : Ast.program -> info array
(** [index p] has one entry per loop, indexable by {!Ast.loop_id}
    (parser ids are dense and start at 0). *)

val find : info array -> Ast.loop_id -> info
(** @raise Invalid_argument on an unknown id. *)

val label : info -> string
(** The paper's notation, e.g. ["for(line 6)"]. *)

val roots : info array -> info list
(** Top-level loops (no enclosing loop), in source order. *)

val in_nest : info array -> root:Ast.loop_id -> Ast.loop_id -> bool
(** Whether a loop belongs to the nest rooted at [root], i.e. is
    [root] itself or a transitive syntactic descendant of it. *)

val descendants : info array -> Ast.loop_id -> Ast.loop_id list
(** All loop ids of the nest rooted at the given loop (the loop
    itself included), in id order. *)
