(** Per-workload supervision: fault isolation, retry with backoff, and
    a vclock watchdog budget.

    Paper Sec. 5.3 asks that a parallel runtime "not only abort ...
    but report the reason". [run f] confines any exception escaping
    [f] to a structured {!failure} value — exception text, backtrace,
    attempt count, elapsed wall/virtual time, transient-vs-permanent
    classification — so one crashed workload degrades into a reported
    row while the rest of the pipeline completes.

    Transient failures are retried up to [retries] times on one fixed
    exponential schedule with deterministic jitter ({!backoff_ms}).
    The watchdog rides the interpreter's existing vclock budget: [run
    ~budget] publishes the cap domain-locally;
    [Workloads.Harness.prepare] reads it via {!active_budget} when
    building interpreter states, so a non-terminating workload
    degrades into a reported {!Interp.Value.Budget_exhausted} failure
    instead of a hang. *)

type classification
(** Transient or permanent (see {!default_classify}). *)

val classification_to_string : classification -> string

type failure = {
  exn_text : string; (** [Printexc.to_string] of the final exception *)
  backtrace : string;
      (** [""] unless [Printexc.record_backtrace] is enabled *)
  attempts : int; (** total attempts made (>= 1) *)
  wall_ms : float; (** wall-clock time across all attempts *)
  virtual_ms : float;
      (** busy virtual time of the last interpreter state built inside
          the failing attempt (0 when none registered a probe);
          deterministic, unlike [wall_ms] *)
  classification : classification;
}

val default_classify : exn -> classification
(** {!Fault.Injected} and interrupted syscalls are transient;
    everything else — {!Interp.Value.Budget_exhausted}, JS exceptions,
    parse errors — is deterministic under the virtual clock and
    classified permanent. *)

val backoff_ms : attempt:int -> float
(** Delay in milliseconds before retrying after failed attempt
    [attempt] (1-based): [2^(attempt-1)] capped at 50, times a jitter
    factor between 0.75 and 1.25 drawn from a {!Ceres_util.Prng}
    stream keyed on [attempt]. A pure function of [attempt]. *)

val run : ?retries:int -> ?budget:int64 -> (unit -> 'a) -> ('a, failure) result
(** [run f] executes [f] under supervision. [retries] (default 0)
    bounds *re*-attempts after failures {!default_classify} calls
    transient, each preceded by {!backoff_ms}; [budget] is the vclock
    watchdog published to interpreter states built inside the
    attempt. *)

(** {1 Wiring for interpreter states built inside an attempt} *)

val active_budget : unit -> int64 option
(** The watchdog budget of the supervised attempt running on this
    domain, if any. Read by [Workloads.Harness.prepare]. *)

val set_virtual_probe : (unit -> float) -> unit
(** Register the current attempt's virtual-time probe (busy
    milliseconds); the last registered probe feeds
    [failure.virtual_ms]. *)

(** {1 Rendering} *)

val failure_to_string : failure -> string
(** One line, deterministic fields only (no wall time) — safe for
    byte-identical chaos runs. *)

val failure_details : failure -> string
(** {!failure_to_string} plus wall time and backtrace (stderr use). *)
