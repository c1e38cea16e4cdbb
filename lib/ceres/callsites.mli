(** Dynamic call-site census.

    Measures, per syntactic call site, how many distinct callees and
    argument counts were observed — the two quantities Richards et
    al. report for real-world JavaScript (81% of call sites
    monomorphic, >90% of functions non-variadic) and that the paper's
    Sec. 5.2 builds on. Attaches to the interpreter's call-site hook,
    so plain (uninstrumented) runs suffice. *)

type t

val attach : Interp.Value.state -> t

type census = {
  sites_total : int;
  monomorphic : int; (** sites with exactly one observed callee *)
  non_variadic : int; (** sites with exactly one observed arity *)
  calls_total : int;
}

val census : t -> census
