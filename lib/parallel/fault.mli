(** Deterministic fault injection ("chaos") for the analysis pipeline.

    The paper's own tooling degrades gracefully (JS-CERES discards a
    nest's results on recursive stack growth instead of corrupting the
    run); this module is how we *prove* the pipeline now does too. An
    injection plan is a pure function of a seed: enabling chaos with
    the same seed yields the same failure set on every run, regardless
    of domain count or scheduling order, which is what lets the
    [test/golden/chaos] rules that [dune runtest] runs diff a chaos
    pipeline's stdout byte for byte against a committed golden.

    Workload faults come from per-workload {!session}s keyed on (seed,
    workload name), with counters owned by the session and reset at
    each supervised attempt — a plan dooms at most one of: the Nth
    task attempt, the Nth interpreter tick advance, the Nth DOM/canvas
    access. Transport faults are keyed on connection and request
    ordinals.

    Everything is zero-cost when off: sessions are [None] and no
    interpreter hook is installed. *)

type site = Task | Tick | Dom | Accept | Torn | Disconnect

exception Injected of { site : site; key : string; ordinal : int }
(** The injected failure. Registered with {!Printexc} so rendered
    messages are stable across runs (determinism of failure output
    depends on it). *)

val fire : site -> string -> int -> 'a
(** [fire site key ordinal] counts the injection in the registry's
    {!Telemetry.faults_injected} and raises {!Injected}. *)

(** {1 Global switch} *)

val enable : seed:int -> unit
(** Turn chaos on process-wide. *)

val disable : unit -> unit
val enabled : unit -> bool
val current_seed : unit -> int option

val env_var : string
(** ["JSCERES_CHAOS"]. *)

val enable_from_env : unit -> bool
(** Enable from [JSCERES_CHAOS=<seed>] if set to an integer; returns
    whether chaos was enabled. *)

(** {1 Per-workload sessions} *)

type session

val session : key:string -> session option
(** The (seed, key)-derived session, or [None] when chaos is off. *)

val describe_plan : seed:int -> key:string -> string
(** The plan [key] would receive under [seed], e.g.
    ["fail interp-tick #8123"] (pure; no global state). *)

val attempt_gate : session option -> unit
(** Call at the top of each supervised attempt: counts the attempt,
    resets the tick/DOM ordinals, and fires a planned [Task] fault. *)

val arm : session option -> Interp.Value.state -> unit
(** Install the session's tick/DOM probes on a freshly built
    interpreter state. No-op for [None] or a non-interpreter plan. *)

val with_session : session option -> (unit -> 'a) -> 'a
(** Run a thunk with the session exposed domain-locally, so layers
    that build interpreter states deep inside the attempt can
    {!arm} them via {!current_session}. *)

val current_session : unit -> session option

(** {1 Transport sites (socket server / loadgen)} *)

type transport_plan = {
  doomed_accept : bool;
      (** close the connection immediately after accept *)
  torn_after : int option;
      (** tear the Nth response mid-write, then cut the connection *)
  disconnect_after : int option;
      (** cut the connection right after the Nth response *)
}

val transport_plan : conn:int -> transport_plan option
(** The (seed, connection-ordinal)-keyed plan for an accepted
    connection, or [None] when chaos is off. The server applies it
    only under its explicit transport-chaos flag, so workload-only
    chaos keeps response streams byte-deterministic. *)

type client_action = Client_ok | Client_torn | Client_disconnect | Client_slow

val client_plan : seed:int -> client:int -> request:int -> client_action
(** Seed-keyed misbehaviour schedule for loadgen clients: send a torn
    half-request and reconnect, disconnect before reading the
    response, or dribble the request bytes (slow-loris). Pure. *)
