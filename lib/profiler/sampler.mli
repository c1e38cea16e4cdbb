(** Gecko-style sampling-profiler model (paper Sec. 3.1).

    The paper cross-checks JS-CERES's loop timings against the Gecko
    profiler and observes that Gecko's active time is sometimes *lower*
    than the time spent in loops, because its sampling is serviced at
    function granularity: a long computation inside one function yields
    missed samples.

    The model: virtual time is cut into fixed windows; a window counts
    as active only if at least one function boundary (call entry or
    exit) occurs in it. Call-dense code keeps the sampler fed; long
    call-free loop bodies and event-loop idle time starve it. The one
    number it yields is Table 2's active time. *)

type t

val attach : ?period_ms:float -> Interp.Value.state -> t
(** Set the state's call-boundary hook and start sampling. Default
    period 1 ms (Gecko's default interval). *)

val active_ms : t -> float
(** Estimated active time: serviced windows x period, capped by the
    interpreter's true busy time — a sampler books at most one full
    window per sample, but it cannot report more activity than the
    program actually performed. *)
