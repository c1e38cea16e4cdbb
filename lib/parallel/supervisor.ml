(* Per-workload supervision: fault isolation, retry with backoff, and
   a vclock watchdog budget.

   Paper Sec. 5.3 demands that a parallel runtime "not only abort ...
   but report the reason"; JS-CERES itself discards a nest's results
   on recursive stack growth rather than corrupting the run. This
   module gives the analysis pipeline the same discipline: a workload
   that raises — a parse error, a runaway loop degraded into
   [Value.Budget_exhausted] by the watchdog budget, an injected chaos
   fault — becomes a structured [failure] value instead of tearing
   down the other eleven workloads.

   The watchdog rides the interpreter's existing vclock budget: [run
   ~budget] publishes the cap domain-locally, [Harness.prepare] reads
   it via [active_budget] when building each interpreter state, and a
   non-terminating workload then degrades into a reported
   [Budget_exhausted] failure instead of a hang. The same channel
   carries a virtual-time probe back up, so failure reports can cite
   deterministic virtual milliseconds (wall time is recorded too, but
   only virtual time is safe to print when output must be
   reproducible). *)

type classification = Transient | Permanent

let classification_to_string = function
  | Transient -> "transient"
  | Permanent -> "permanent"

type failure = {
  exn_text : string;
  backtrace : string; (* "" unless Printexc.record_backtrace is on *)
  attempts : int;
  wall_ms : float;
  virtual_ms : float; (* busy virtual time of the last interpreter *)
  classification : classification;
}

(* Injected chaos faults are transient by design: the per-attempt
   ordinal reset means a retry replays the same schedule, so only
   first-attempt Task faults actually recover — which is the point
   (deterministic retry coverage). Interrupted syscalls are the one
   honestly-transient thing this codebase can hit. Everything else —
   budget exhaustion, JS exceptions, parse errors — is deterministic
   under the virtual clock and will fail identically on retry. *)
let default_classify = function
  | Fault.Injected _ -> Transient
  | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> Transient
  | Interp.Value.Budget_exhausted | _ -> Permanent

(* ------------------------------------------------------------------ *)
(* Thread-local wiring to interpreter states built inside an attempt.
   [Tls], not [Domain.DLS]: the socket server runs one session per
   systhread on the main domain, and concurrent sessions must not see
   each other's budget or virtual-time probe. *)

let budget_key : int64 Tls.t = Tls.create ()
let probe_key : (unit -> float) Tls.t = Tls.create ()

let active_budget () = Tls.get budget_key
let set_virtual_probe f = Tls.set probe_key (Some f)

let virtual_ms_now () =
  match Tls.get probe_key with
  | None -> 0.
  | Some probe -> (try probe () with _ -> 0.)

(* ------------------------------------------------------------------ *)

let run ?(retries = 0) ?(backoff = Backoff.default) ?budget
    ?(classify = default_classify) f =
  let t0 = Unix.gettimeofday () in
  let prev_budget = Tls.get budget_key in
  let prev_probe = Tls.get probe_key in
  let rec attempt k =
    Tls.set budget_key budget;
    Tls.set probe_key None;
    match f () with
    | v -> Ok v
    | exception exn ->
      let backtrace = Printexc.get_backtrace () in
      let classification = classify exn in
      let virtual_ms = virtual_ms_now () in
      if classification = Transient && k <= retries then begin
        Telemetry.(incr retries);
        let delay = Backoff.delay_ms backoff ~attempt:k in
        if delay > 0. then Thread.delay (delay /. 1000.);
        attempt (k + 1)
      end
      else
        Error
          { exn_text = Printexc.to_string exn;
            backtrace;
            attempts = k;
            wall_ms = 1000. *. (Unix.gettimeofday () -. t0);
            virtual_ms;
            classification }
  in
  Fun.protect
    ~finally:(fun () ->
        Tls.set budget_key prev_budget;
        Tls.set probe_key prev_probe)
    (fun () -> attempt 1)

(* Deterministic rendering: no wall time, so repeated chaos runs stay
   byte-identical. *)
let failure_to_string fl =
  Printf.sprintf "after %d attempt(s) [%s, %.0f virtual ms busy]: %s"
    fl.attempts
    (classification_to_string fl.classification)
    fl.virtual_ms fl.exn_text

let failure_details fl =
  Printf.sprintf "%s (%.1f wall ms)%s" (failure_to_string fl) fl.wall_ms
    (if fl.backtrace = "" then ""
     else "\n" ^ String.trim fl.backtrace)
