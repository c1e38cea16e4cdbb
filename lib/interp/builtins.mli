(** The global JavaScript environment.

    Math, the Array/String/Object/Function/Error prototypes, console,
    timers ([setTimeout], [requestAnimationFrame], [clearTimeout]),
    [Date.now], the W3C high-resolution timer [performance.now] (the
    paper's reference [4]), JSON, and the global functions
    ([parseInt], [parseFloat], [isNaN], [isFinite]). All host
    functions; [Math.random] draws from the state's seeded PRNG so
    every run is reproducible. *)

val install : Value.state -> unit
(** Install everything into the state's globals. Idempotent enough to
    call once per state. *)

(** {1 Helpers} (shared with the DOM layer) *)

val arg : int -> Value.value list -> Value.value
(** n-th argument or [Undefined]. *)

