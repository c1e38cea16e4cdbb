(** Amdahl's-law bounds (paper Sec. 4.2).

    The paper: "Considering Amdahl's law, the upper bound for speedup
    is greater than 3x for 5 of the 12 applications when only counting
    easy to parallelize loops." *)

val speedup : parallel_fraction:float -> workers:int -> float
(** Maximum speedup when [parallel_fraction] of the running time is
    perfectly parallelizable over [workers]; [workers <= 0] means
    unlimited. The fraction is clamped to [0, 1]. *)

val asymptote : parallel_fraction:float -> float
(** [speedup ~workers:0]; [infinity] when the fraction is 1. *)

val fraction_for : target_speedup:float -> float
(** Minimum parallel fraction needed to reach a speedup with unlimited
    workers: [1 - 1/s]. *)

val karp_flatt : measured_speedup:float -> workers:int -> float
(** Karp–Flatt experimentally-determined serial fraction,
    [(1/s - 1/n) / (1 - 1/n)] for a measured speedup [s] on [n]
    workers; a fraction that grows with [n] indicates scheduling
    overhead rather than inherently serial work. Returns [1.] when
    [workers <= 1] or the speedup is non-positive. *)
