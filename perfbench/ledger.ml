(* Cost ledger of the traced run.

   [span name f] times [f] under [name] ("layer.what"; the layer is the
   part before the first dot). While recording is off, [span] is a
   direct call, so untraced rounds pay one branch per span. While
   recording is on, every span boundary

   - reads the wall clock and the program-wide GC counters
     ([Gc.quick_stat] sums every domain, unlike [Gc.counters], which is
     domain-local), and
   - drains the runtime_events rings, so each GC phase a domain ran is
     charged to the spans open while it ran.

   Only the main domain opens spans; pool workers show up through their
   GC phases (one ring per domain) and through the pool's own
   [Telemetry.Trace] events, which [take_pool_trace] merges into the
   timeline. The timeline is written as DESIGN.md §14 JSON lines:
   [{"t_ms":..,"domain":..,"ev":..}] plus span and GC members. *)

type acc = {
  mutable count : int;
  mutable ms : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable gc_minor_ms : float;
  mutable gc_major_ms : float;
}

let new_acc () =
  { count = 0; ms = 0.; minor_words = 0.; major_words = 0.;
    minor_collections = 0; gc_minor_ms = 0.; gc_major_ms = 0. }

type frame = {
  layer : string;
  t0 : float;
  minor0 : float;
  major0 : float;
  coll0 : int;
  mutable child_ms : float;
  mutable own_gc_ms : float; (* main-domain GC while innermost *)
  mutable f_gc_minor_ms : float; (* every domain, inclusive *)
  mutable f_gc_major_ms : float;
}

let recording = ref false
let stack : frame list ref = ref []
let spans : (string, acc) Hashtbl.t = Hashtbl.create 64
let self_by_layer : (string, float) Hashtbl.t = Hashtbl.create 16
let counters : (string, float) Hashtbl.t = Hashtbl.create 64
let gc_total = ref (new_acc ())
let lost_events = ref 0

(* Timeline: (t_ms, arrival, line), sorted on output. *)
let timeline : (float * int * string) list ref = ref []
let arrivals = ref 0
let origin = ref 0.
let keep_timeline = ref true

let now_ms () = (Unix.gettimeofday () -. !origin) *. 1000.

let emit t_ms ~domain ev extra =
  if !keep_timeline then begin
    let fields =
      Printf.sprintf "\"t_ms\": %.3f, \"domain\": %d, \"ev\": %S" t_ms domain ev
      :: List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) extra
    in
    incr arrivals;
    timeline :=
      (t_ms, !arrivals, "{" ^ String.concat ", " fields ^ "}") :: !timeline
  end

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let acc_of tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None ->
    let a = new_acc () in
    Hashtbl.replace tbl name a;
    a

let add_float tbl name v =
  Hashtbl.replace tbl name
    (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))

(* ------------------------------------------------------------------ *)
(* runtime_events: GC phases per domain                                *)

type Runtime_events.User.tag += Sync

let sync_event =
  lazy (Runtime_events.User.register "perfbench.sync" Sync Runtime_events.Type.unit)

let ring_offset_ms = ref 0. (* ring clock ms at t_ms = 0 *)
let ring_ms ts = Int64.to_float (Runtime_events.Timestamp.to_int64 ts) /. 1e6
let cursor = ref None
let open_phases : (int * Runtime_events.runtime_phase, float) Hashtbl.t =
  Hashtbl.create 8

let phase_name = function
  | Runtime_events.EV_MINOR -> Some "minor"
  | Runtime_events.EV_MAJOR_SLICE -> Some "major_slice"
  | _ -> None

let on_gc_end ring phase dur_ms =
  let minor = phase = Runtime_events.EV_MINOR in
  let g = !gc_total in
  if minor then g.gc_minor_ms <- g.gc_minor_ms +. dur_ms
  else g.gc_major_ms <- g.gc_major_ms +. dur_ms;
  List.iter
    (fun f ->
       if minor then f.f_gc_minor_ms <- f.f_gc_minor_ms +. dur_ms
       else f.f_gc_major_ms <- f.f_gc_major_ms +. dur_ms)
    !stack;
  match !stack with
  | f :: _ when ring = 0 -> f.own_gc_ms <- f.own_gc_ms +. dur_ms
  | _ -> ()

let sync_seen = ref None

let callbacks =
  lazy
    (Runtime_events.Callbacks.create
       ~runtime_begin:(fun ring ts phase ->
           match phase_name phase with
           | Some p when !recording ->
             let t = ring_ms ts in
             Hashtbl.replace open_phases (ring, phase) t;
             emit (t -. !ring_offset_ms) ~domain:ring "gc_start" [ ("phase", p) ]
           | _ -> ())
       ~runtime_end:(fun ring ts phase ->
           match (phase_name phase, Hashtbl.find_opt open_phases (ring, phase)) with
           | Some p, Some t0 when !recording ->
             Hashtbl.remove open_phases (ring, phase);
             let t = ring_ms ts in
             emit (t -. !ring_offset_ms) ~domain:ring "gc_stop" [ ("phase", p) ];
             on_gc_end ring phase (t -. t0)
           | _ -> ())
       ~lost_events:(fun _ n -> lost_events := !lost_events + n)
       ()
     |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.unit
       (fun _ ts ev () ->
          if Runtime_events.User.tag ev = Sync then sync_seen := Some (ring_ms ts)))

let poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c (Lazy.force callbacks) None)
  | None -> ()

(* Start the rings (once per process) and align their clock with the
   wall clock through one user event. *)
let ensure_rings () =
  match !cursor with
  | Some _ -> Runtime_events.resume ()
  | None ->
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None);
    poll ();
    sync_seen := None;
    let wall = now_ms () in
    Runtime_events.User.write (Lazy.force sync_event) ();
    poll ();
    ring_offset_ms := Option.value ~default:0. !sync_seen -. wall

(* ------------------------------------------------------------------ *)

(* Begin recording: the first call also fixes the timeline origin. *)
let start () =
  if !origin = 0. then origin := Unix.gettimeofday ();
  ensure_rings ();
  poll (); (* discard what ran before recording *)
  Hashtbl.reset open_phases;
  recording := true

let stop () =
  poll ();
  recording := false;
  Runtime_events.pause ()

let span name f =
  if not !recording then f ()
  else begin
    poll ();
    let s = Gc.quick_stat () in
    let fr =
      { layer = layer_of name; t0 = now_ms ();
        minor0 = s.Gc.minor_words; major0 = s.Gc.major_words;
        coll0 = s.Gc.minor_collections; child_ms = 0.; own_gc_ms = 0.;
        f_gc_minor_ms = 0.; f_gc_major_ms = 0. }
    in
    emit fr.t0 ~domain:0 "span_start" [ ("name", name) ];
    stack := fr :: !stack;
    let finish () =
      poll ();
      let t1 = now_ms () in
      let s = Gc.quick_stat () in
      stack := List.tl !stack;
      emit t1 ~domain:0 "span_stop" [ ("name", name) ];
      let dur = t1 -. fr.t0 in
      let a = acc_of spans name in
      a.count <- a.count + 1;
      a.ms <- a.ms +. dur;
      a.minor_words <- a.minor_words +. (s.Gc.minor_words -. fr.minor0);
      a.major_words <- a.major_words +. (s.Gc.major_words -. fr.major0);
      a.minor_collections <-
        a.minor_collections + (s.Gc.minor_collections - fr.coll0);
      a.gc_minor_ms <- a.gc_minor_ms +. fr.f_gc_minor_ms;
      a.gc_major_ms <- a.gc_major_ms +. fr.f_gc_major_ms;
      add_float self_by_layer fr.layer
        (Float.max 0. (dur -. fr.child_ms -. fr.own_gc_ms));
      add_float self_by_layer "gc" fr.own_gc_ms;
      match !stack with
      | parent :: _ -> parent.child_ms <- parent.child_ms +. dur
      | [] ->
        (* a root span: count its whole-program GC work *)
        let g = !gc_total in
        g.minor_words <- g.minor_words +. (s.Gc.minor_words -. fr.minor0);
        g.major_words <- g.major_words +. (s.Gc.major_words -. fr.major0);
        g.minor_collections <-
          g.minor_collections + (s.Gc.minor_collections - fr.coll0)
    in
    Fun.protect ~finally:finish f
  end

let count name v = if !recording then add_float counters name v

(* ------------------------------------------------------------------ *)
(* Readers: totals over every traced round so far                      *)

let find name = Hashtbl.find_opt spans name
let ms name = match find name with Some a -> a.ms | None -> 0.
let calls name = match find name with Some a -> a.count | None -> 0
let span_acc name = Option.value ~default:(new_acc ()) (find name)

let sum_over names f =
  List.fold_left (fun acc n -> acc +. f (span_acc n)) 0. names

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)
let self_ms layer = Option.value ~default:0. (Hashtbl.find_opt self_by_layer layer)
let gc () = !gc_total
let lost () = !lost_events

(* Merge the pool's scheduling events, recorded since [Trace.start]
   at wall time [started] (seconds), into the timeline. *)
let take_pool_trace ~started =
  let base = (started -. !origin) *. 1000. in
  List.iter
    (fun (t, domain, kind) ->
       emit (base +. t) ~domain (Js_parallel.Telemetry.Trace.kind_name kind) [])
    (Js_parallel.Telemetry.Trace.events ())

let write_timeline path =
  let lines =
    List.sort
      (fun (t1, a1, _) (t2, a2, _) ->
         match Float.compare t1 t2 with 0 -> compare a1 a2 | c -> c)
      !timeline
  in
  let oc = open_out path in
  List.iter (fun (_, _, l) -> output_string oc l; output_char oc '\n') lines;
  if !lost_events > 0 then Printf.fprintf oc "{\"dropped\": %d}\n" !lost_events;
  close_out oc;
  List.length lines
