(** Order-insensitivity proofs for reduction accumulators.

    Decides whether per-chunk partials of [acc = acc op e] may be
    combined in any grouping bit-exactly: min/max/bitwise always;
    [+] when {!Range} proves every contribution an exact integer of
    bounded magnitude; [*] and opaque ops never. *)

open Jsir

val order_insensitive :
  Range.t ->
  Scope.fid ->
  env:(string -> Range.iv option) ->
  op:Verdict.acc_op ->
  contribs:Ast.expr list ->
  bool
