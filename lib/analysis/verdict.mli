(** Per-loop verdict of the static parallelizability analysis.

    The lattice runs [Parallel < Reduction < Needs_runtime_check <
    Sequential]; the first two are proofs valid for every execution
    (soundness: the dynamic analyzer may never observe an
    iteration-carried flow triple on such a loop), the third is an
    honest "inconclusive; the loop runs sequentially", the last a
    demonstrated dependence or I/O.

    Proof verdicts may declare [war_roots] — roots whose only
    cross-iteration conflicts are anti dependences; the parallel
    executor keeps such a nest sequential ("anti dependence on …") —
    and typed accumulators with an order-insensitivity proof consumed
    by the parallel executor. *)

type acc_op = Sum | Prod | Min | Max | Band | Bor | Bxor | Other

type acc = {
  aname : string;  (** accumulator variable *)
  op : acc_op;
  order_insensitive : bool;
      (** partials may be combined in any grouping/order bit-exactly *)
}

(** A blocking fact of the why-not chain: which pass gave up, on
    what, and at which source line. *)
type fact = { pass : string; why : string; line : int }

type t =
  | Parallel of { war_roots : string list }
  | Reduction of { accs : acc list; war_roots : string list }
  | Needs_runtime_check of fact list
  | Sequential of fact list

val parallel : t
(** [Parallel] with no declared anti dependences. *)

val kind_name : t -> string
(** ["parallel" | "reduction" | "needs-runtime-check" | "sequential"] *)

val is_proven : t -> bool
(** [Parallel] and [Reduction] only. *)

val acc_names : t -> string list
val war_roots : t -> string list

val facts : t -> fact list
(** The normalized (deduplicated, (pass rank, text, line)-ordered)
    blocking facts; empty on proof verdicts. *)

val normalize_facts : fact list -> fact list
val op_name : acc_op -> string
val to_string : t -> string
