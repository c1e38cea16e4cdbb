(** Static programming-style census (paper Sec. 2.3 / 5.5).

    Counts syntactic loops against call sites of the builtin
    higher-order array operators, quantifying the paper's observation
    that developers who *say* they prefer functional operators still
    write their compute-intensive loops imperatively. *)

type census = {
  loops : int; (** syntactic loops (for/while/do-while/for-in) *)
  operator_calls : int; (** HOF call sites (syntactic) *)
  per_operator : (string * int) list; (** descending by count *)
  function_count : int; (** declarations + expressions *)
}

val census : Jsir.Ast.program -> census
