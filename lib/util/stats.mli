(** Small batch-statistics helpers shared across the harnesses. *)

val mean : float array -> float
(** Arithmetic mean; [0.] on empty input. *)

val variance : float array -> float
(** Unbiased two-pass sample variance; [0.] when fewer than two
    observations. Used by tests as the oracle for {!Welford}. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation
    between closest ranks. Raises [Invalid_argument] on empty input. *)

val jaccard : ('a, unit) Hashtbl.t -> ('a, unit) Hashtbl.t -> float
(** Jaccard coefficient |A∩B| / |A∪B| between two sets; [1.] when both
    are empty (total agreement on "nothing"). The paper uses this to
    measure inter-rater agreement of the thematic coding (Sec. 2.1). *)

val ratio : int -> int -> float
(** [ratio num den] as a float, [0.] when [den = 0]. *)

val pct : int -> int -> float
(** [ratio] scaled to a percentage. *)
