(* Gecko-style sampling profiler model.

   The paper cross-checks JS-CERES's loop timings against the Gecko
   profiler and observes an anomaly: Gecko's *active* time is sometimes
   lower than the time JS-CERES measures inside loops, because Gecko's
   sampler effectively observes the program at function granularity — a
   long-running computation that stays inside one function yields
   missed samples and is booked as inactive (paper, Sec. 3.1).

   We model exactly that mechanism. Virtual time is divided into
   fixed-width sample windows. A window counts as *active* only if at
   least one function boundary (call entry or exit) occurred in it.
   Tight loops that call functions every iteration keep the sampler
   fed; a monolithic loop that stays inside one function for many
   windows starves it, and idle event-loop time has no boundaries at
   all. The windows are native ints read off the clock's counters, so
   a boundary allocates nothing. *)

open Interp.Value

type t = {
  clock : Ceres_util.Vclock.t;
  period_ticks : int;
  mutable serviced_windows : int;
  mutable last_window : int; (* last serviced window index, -1 if none *)
}

let service t =
  let w = (t.clock.busy_ticks + t.clock.idle_ticks) / t.period_ticks in
  if w > t.last_window then begin
    t.last_window <- w;
    t.serviced_windows <- t.serviced_windows + 1
  end

let attach ?(period_ms = 1.0) (st : state) =
  let period_ticks =
    Int64.to_int (Ceres_util.Vclock.ms_to_ticks st.clock period_ms)
  in
  let t =
    { clock = st.clock; period_ticks = max 1 period_ticks;
      serviced_windows = 0; last_window = -1 }
  in
  st.on_call_boundary <- Some (fun () -> service t);
  t

(* Estimated active time: serviced windows × period, capped by the
   interpreter's true busy time (a sampler books at most one full
   window per sample, but cannot report more activity than the program
   performed). *)
let active_ms t =
  let to_ms = Ceres_util.Vclock.to_ms t.clock in
  let sampled =
    float_of_int t.serviced_windows *. to_ms (Int64.of_int t.period_ticks)
  in
  Float.min sampled (to_ms (Ceres_util.Vclock.busy t.clock))
