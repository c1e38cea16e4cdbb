(** Online mean and variance via Welford's algorithm.

    The paper's loop-profiling mode (Sec. 3.2) records, for every
    syntactic loop, the running total, average and variance of both its
    running time and its trip count, updated one observation at a time
    with Welford's method [Welford 1962]. This module is that
    accumulator. All operations are O(1) and numerically stable. *)

type t
(** Mutable accumulator over a stream of float observations. *)

val create : unit -> t
(** A fresh accumulator with zero observations. *)

val add : t -> float -> unit
(** [add t x] folds observation [x] into the accumulator. *)

val count : t -> int
(** Number of observations folded in so far. *)

val total : t -> float
(** Sum of all observations. *)

val mean : t -> float
(** Arithmetic mean; [0.] when empty. *)

val variance : t -> float
(** Unbiased sample variance (divides by [n-1]); [0.] when [n < 2]. *)

val stddev : t -> float
(** Square root of {!variance}. *)
