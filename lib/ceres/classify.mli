(** Ordinal classification of loop nests for the paper's Table 3.

    The paper's columns 5-8 are human judgements made "with the help of
    our dependence analysis tool"; these heuristics derive them
    mechanically from the same evidence. Thresholds were fixed once
    against the N-body walkthrough and the 12 workloads; unit tests pin
    them. *)

(** Column 5, control-flow divergence. *)
type divergence = No_divergence | Little | Yes

val divergence_to_string : divergence -> string

(** Columns 7-8 ordinal scale. *)
type difficulty = Very_easy | Easy | Medium | Hard | Very_hard

val difficulty_to_string : difficulty -> string
val difficulty_rank : difficulty -> int

val divergence_of :
  iter_cv:float -> recursion:bool -> avg_trips:float -> divergence
(** From the coefficient of variation of per-iteration running time,
    whether recursion re-entered the nest (variable-depth recursion —
    "yes" in the paper), and the mean trip count (too few trips cannot
    feed SIMD lanes). *)

(** Aggregated warning evidence of one nest. *)
type warning_summary = {
  var_writes : int;
  var_accums : int;
  prop_writes : int;
  overwrites : int;
  war_writes : int;
  flow_reads : int;
  induction_writes : int;
  flow_lines : int; (** distinct source lines with flow reads *)
  overwrite_lines : int;
  accum_families : int;
  write_families : int;
}

val summarize_warnings : (Runtime.warning * int) list -> warning_summary

val dependence_difficulty : warning_summary -> difficulty
(** Column 7, "breaking dependencies": no carried dependences →
    very easy; reductions/last-value chains → easy; one serial chain
    (relaxation sweeps) → easy; a few flow lines → medium; many →
    hard/very hard. *)

val parallelization_difficulty :
  dep:difficulty -> dom_per_iteration:float -> divergence:divergence ->
  difficulty
(** Column 8: combines column 7 with browser blockers — a nest touching
    the non-concurrent DOM/Canvas every few iterations is "very hard"
    regardless of its dependences (the paper's Harmony), and divergence
    degrades SIMD suitability. *)
