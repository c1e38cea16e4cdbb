(* Host-speed scaling of measured times.

   The host this benchmark runs on drifts: the same session can take
   40% longer a minute later. So each timed set-up, session and pass
   sits between two slices of the fixed reference workload in
   calib.exe, and is reported
   as [ms * ref_slice_ms / slice], with [slice] the mean of the two
   slices around it: its time at the speed where one slice takes
   [ref_slice_ms]. The slices run in a child process with its own
   runtime, so the program's code and GC settings do not reach them.
   The program's threads still share the host's CPUs with them: on
   exec, the pool's idle worker domain wakes every half millisecond
   during each slice, so a change to the pool's idle policy moves the
   slices, and the scaled times the other way. The detail line reports
   the median raw slice and the unscaled round times, so a comparison
   of two runs can see whether the reference moved. *)

let ref_slice_ms = 10.
let exe = "_build/default/perfbench/calib.exe"

type t = { pid : int; ic : in_channel; oc : out_channel; mutable last : float }

let child = ref None

let stop () =
  match !child with
  | None -> ()
  | Some t ->
    child := None;
    close_out_noerr t.oc;
    ignore (Unix.waitpid [] t.pid)

(* Wall ms spent waiting for slices, so callers can leave them out of
   unscaled round times. *)
let spent_ms = ref 0.

(* Every slice after the two start-up ones, for the detail line. *)
let slices = ref []

let run t =
  let t0 = Unix.gettimeofday () in
  output_char t.oc '\n';
  flush t.oc;
  let ms = float_of_string (input_line t.ic) in
  t.last <- ms;
  slices := ms :: !slices;
  spent_ms := !spent_ms +. ((Unix.gettimeofday () -. t0) *. 1000.);
  ms

let get () =
  match !child with
  | Some t -> t
  | None ->
    let in_r, in_w = Unix.pipe ~cloexec:true () in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process exe [| exe |] in_r out_w Unix.stderr in
    Unix.close in_r;
    Unix.close out_w;
    let t =
      { pid; ic = Unix.in_channel_of_descr out_r;
        oc = Unix.out_channel_of_descr in_w; last = 0. }
    in
    at_exit stop;
    child := Some t;
    ignore (run t); (* the first slice pays for process start-up *)
    ignore (run t);
    slices := [];
    t

let scale ~before ~after ms = ms *. ref_slice_ms /. ((before +. after) /. 2.)

(* Time [f] between two slices; returns its scaled milliseconds and its
   result. The closing slice opens the next operation's pair. *)
let time f =
  let t = get () in
  let before = t.last in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (scale ~before ~after:(run t) ms, r)
