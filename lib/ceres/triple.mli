(** Characterization triples and stamps (paper Sec. 3.3).

    The dependence analysis maintains, at every moment, a stack of
    triples — one per open loop — of the loop's identifier, its
    instance number (how many times the syntactic loop has been
    entered) and its current iteration. Objects and scopes are stamped
    with the stack current at their creation; diffing an access's stack
    against a stamp yields a per-level verdict in the paper's
    ["ok"/"dependence"] notation. *)

type mark = { loop : Jsir.Ast.loop_id; instance : int; iteration : int }
(** One stack entry: which loop, which runtime instance of it, which
    iteration within that instance. *)

type stamp = { marks : mark array; seq : int }
(** The loop stack at creation time (outermost first) plus the global
    event sequence number of the creation, used to decide whether other
    instances of a loop already existed when the location was born. *)

(** Per-level verdict. The paper notes "dependence ok" (shared across
    instances but private per iteration) is contradictory; this type
    makes it unrepresentable. *)
type flags =
  | Ok_ok      (** private per instance and per iteration *)
  | Ok_dep     (** private per instance, shared across its iterations *)
  | Dep_dep    (** shared across instances (hence across iterations) *)

type level = {
  lid : Jsir.Ast.loop_id;
  flags : flags;
  aligned : bool;
      (** the stamp had a matching mark for this level: a non-[Ok_ok]
          flag here is a genuinely loop-carried relation, not mere
          pre-existence of the location *)
}

type characterization = level list
(** One verdict per open loop, outermost first — the paper's
    ["while(line 24) ok ok -> for(line 6) ok dependence"] lists. *)

val iteration_carrier : characterization -> Jsir.Ast.loop_id option
(** The outermost loop whose *iterations* carry the dependence (same
    instance, different iteration). Cross-instance sharing returns
    [None]: successive instances are ordered by the program anyway and
    do not impede parallelizing one instance's iterations. *)

val sharing_carrier : characterization -> Jsir.Ast.loop_id option
(** The outermost level with any sharing at all; used to attribute
    write advisories to a nest. *)

val to_string : Jsir.Loops.info array -> characterization -> string
(** Render in the paper's arrow notation, resolving loop labels through
    the static index. *)

val characterize :
  prev_entry_seq:(Jsir.Ast.loop_id -> int) ->
  stamp ->
  mark list ->
  characterization
(** [characterize ~prev_entry_seq stamp current] diffs the creation (or
    last-write) [stamp] against the [current] stack (outermost first).
    [prev_entry_seq loop] must report the global sequence at which
    [loop]'s previous instance was entered (0 if none): it decides, for
    levels the stamp has no mark for, whether another instance already
    existed after the location was created (shared, [Dep_dep]) or the
    current instance is the first to see it ([Ok_dep]). *)
