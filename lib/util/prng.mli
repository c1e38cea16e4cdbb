(** Deterministic pseudo-random numbers (SplitMix64).

    Every stochastic element of the reproduction — the synthetic survey
    respondents, workload inputs, the MiniJS [Math.random] builtin —
    draws from a seeded instance of this generator, so that every table
    and figure is reproducible bit-for-bit. SplitMix64 is used for its
    tiny state and solid statistical quality. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] builds a generator from a 64-bit seed. *)

val of_int : int -> t
(** Convenience seeding from a native int. *)

val copy : t -> t
(** Snapshot with identical state: the copy replays the exact same
    stream without advancing the original. *)

val same_state : t -> t -> bool
(** Whether two generators are at the same point of the same stream
    (used to detect [Math.random] draws inside parallel chunks). *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is a uniform int in [\[0, bound)]. [bound] must be
    positive. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
