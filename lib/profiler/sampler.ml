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
   all. Attribution goes to the function on top of the call stack at
   the servicing boundary, which yields a Gecko-like per-function
   profile. *)

open Interp.Value

type t = {
  st : state;
  period_ticks : int64;
  mutable serviced_windows : int;
  mutable last_window : int64; (* last serviced window index, -1 if none *)
  mutable stack : string list; (* current function-name stack *)
  samples : (string, int) Hashtbl.t; (* function -> serviced windows on top *)
  mutable boundary_count : int;
  saved_enter : (string option -> unit) option;
  saved_exit : (unit -> unit) option;
}

let window_of t =
  Int64.div (Ceres_util.Vclock.now t.st.clock) t.period_ticks

let service t =
  let w = window_of t in
  if Int64.compare w t.last_window > 0 then begin
    t.last_window <- w;
    t.serviced_windows <- t.serviced_windows + 1;
    let top = match t.stack with [] -> "(root)" | f :: _ -> f in
    Hashtbl.replace t.samples top
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.samples top))
  end

let attach ?(period_ms = 1.0) st =
  let period_ticks = Ceres_util.Vclock.ms_to_ticks st.clock period_ms in
  let period_ticks = if Int64.compare period_ticks 1L < 0 then 1L else period_ticks in
  let t =
    { st;
      period_ticks;
      serviced_windows = 0;
      last_window = -1L;
      stack = [];
      samples = Hashtbl.create 64;
      boundary_count = 0;
      saved_enter = st.on_call_enter;
      saved_exit = st.on_call_exit }
  in
  st.on_call_enter <-
    Some
      (fun name ->
         (match t.saved_enter with Some f -> f name | None -> ());
         t.boundary_count <- t.boundary_count + 1;
         t.stack <- Option.value ~default:"(anonymous)" name :: t.stack;
         service t);
  st.on_call_exit <-
    Some
      (fun () ->
         (match t.saved_exit with Some f -> f () | None -> ());
         t.boundary_count <- t.boundary_count + 1;
         service t;
         match t.stack with [] -> () | _ :: rest -> t.stack <- rest);
  t

let detach t =
  t.st.on_call_enter <- t.saved_enter;
  t.st.on_call_exit <- t.saved_exit

let period_ms t = Ceres_util.Vclock.to_ms t.st.clock t.period_ticks

let busy_ms t =
  Ceres_util.Vclock.to_ms t.st.clock (Ceres_util.Vclock.busy t.st.clock)

(* Estimated active time: serviced windows × period, capped by the
   interpreter's true busy time (a sampler books at most one full
   window per sample, but cannot report more activity than the program
   performed). *)
let active_ms t =
  let sampled = float_of_int t.serviced_windows *. period_ms t in
  Float.min sampled (busy_ms t)

let boundary_count t = t.boundary_count

(* Per-function profile, sorted by descending sample count. *)
let profile t =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) t.samples []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let report t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "sampling profile (period %.2f ms, %d windows active)\n"
       (period_ms t) t.serviced_windows);
  List.iter
    (fun (name, n) ->
       Buffer.add_string buf
         (Printf.sprintf "  %6.1f ms  %s\n"
            (float_of_int n *. period_ms t)
            name))
    (profile t);
  Buffer.contents buf
