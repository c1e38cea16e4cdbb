(* Scheduling telemetry for the work-stealing pool.

   TASKPROF (Yoga & Nagarakatte) and ThreadScope both argue that a
   parallel runtime is only trustworthy when its scheduling behaviour
   is observable; this module is the pool's observability layer. Every
   participant owns one [counters] record and is the only writer of it
   (the reader races are benign: stats snapshots may lag by a few
   increments), so the counters add no cross-domain contention to the
   hot path. *)

type counters = {
  tasks : int Atomic.t; (* jobs executed by this participant *)
  failed : int Atomic.t; (* jobs whose exception escaped to the pool *)
  steal_attempts : int Atomic.t; (* probes of another participant's deque *)
  steals : int Atomic.t; (* probes that yielded a job *)
  idle_spins : int Atomic.t; (* idle spins and parks, nothing to run *)
}

let make_counters () =
  { tasks = Atomic.make 0;
    failed = Atomic.make 0;
    steal_attempts = Atomic.make 0;
    steals = Atomic.make 0;
    idle_spins = Atomic.make 0 }

let note_task c = Atomic.incr c.tasks
let note_task_failed c = Atomic.incr c.failed
let note_steal_attempt c = Atomic.incr c.steal_attempts
let note_steal_success c = Atomic.incr c.steals
let note_idle c = Atomic.incr c.idle_spins

let reset_participant c =
  Atomic.set c.tasks 0;
  Atomic.set c.failed 0;
  Atomic.set c.steal_attempts 0;
  Atomic.set c.steals 0;
  Atomic.set c.idle_spins 0

(* ------------------------------------------------------------------ *)
(* Process-wide counter registry. Retries happen in [Supervisor],
   fault injections in [Fault], cache traffic in the service's result
   cache and request fate in the server's admission gate and session
   loops — none of them owns a pool — so their counters live here, each
   declared once with the JSON key it renders under. *)

type counter = { name : string; value : int Atomic.t }

let counter name = { name; value = Atomic.make 0 }
let incr c = Atomic.incr c.value
let add c n = ignore (Atomic.fetch_and_add c.value n)
let count c = Atomic.get c.value

let retries = counter "retries"
let faults_injected = counter "faults_injected"
let cache_hits = counter "cache_hits"
let cache_misses = counter "cache_misses"
let cache_evictions = counter "cache_evictions"
let requests_admitted = counter "requests_admitted"
let requests_shed = counter "requests_shed"
let requests_timed_out = counter "requests_timed_out"
let sessions_dropped = counter "sessions_dropped"

(* Rendering order: the pool list rides in every pool snapshot, the
   server list is the {"op":"telemetry"} health snapshot's section. *)
let pool_counters =
  [ retries; faults_injected; cache_hits; cache_misses; cache_evictions ]

let server_counters =
  [ requests_admitted; requests_shed; requests_timed_out; sessions_dropped ]

let reset_counters () =
  List.iter (fun c -> Atomic.set c.value 0) (pool_counters @ server_counters)

let fields cs =
  List.map (fun c -> (c.name, Ceres_util.Json.Int (count c))) cs

let server_counters_json () = Ceres_util.Json.Obj (fields server_counters)

(* ------------------------------------------------------------------ *)
(* ThreadScope-style event timeline. Unlike the counters above, which
   aggregate, the trace records individual scheduling events with wall
   timestamps so pool behaviour under [-j N] is inspectable span by
   span. Disabled it costs one [Atomic.get] per potential event; when
   armed, events land in pre-allocated arrays through a fetch-and-add
   cursor (lock-free, single writer per slot). The buffer is bounded:
   past [capacity] events are counted as dropped, never buffered into
   OOM. *)

module Trace = struct
  type kind = Task_start | Task_stop | Steal | Idle_start

  let kind_name = function
    | Task_start -> "task_start"
    | Task_stop -> "task_stop"
    | Steal -> "steal"
    | Idle_start -> "idle_start"

  let capacity = 1 lsl 20
  let enabled = Atomic.make false
  let cursor = Atomic.make 0
  let dropped_count = Atomic.make 0
  let t0 = Atomic.make 0.
  let times : float array ref = ref [||]
  let doms : int array ref = ref [||]
  let kinds : kind array ref = ref [||]

  let start () =
    if Array.length !times = 0 then begin
      times := Array.make capacity 0.;
      doms := Array.make capacity 0;
      kinds := Array.make capacity Task_start
    end;
    Atomic.set cursor 0;
    Atomic.set dropped_count 0;
    Atomic.set t0 (Unix.gettimeofday ());
    Atomic.set enabled true

  let stop () = Atomic.set enabled false
  let active () = Atomic.get enabled

  let note ~domain kind =
    let i = Atomic.fetch_and_add cursor 1 in
    if i < capacity then begin
      !times.(i) <- (Unix.gettimeofday () -. Atomic.get t0) *. 1000.;
      !doms.(i) <- domain;
      !kinds.(i) <- kind
    end
    else Atomic.incr dropped_count

  let dropped () = Atomic.get dropped_count

  (* By time: a writer may be preempted between its slot and its clock. *)
  let events () =
    let n = min (Atomic.get cursor) capacity in
    List.init n (fun i -> (!times.(i), !doms.(i), !kinds.(i)))
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)

  (* One event per line ({i JSON lines}), schema documented in
     DESIGN.md: {"t_ms":<float>,"domain":<int>,"ev":<kind>}. Spans are
     derived by the consumer: a task span runs task_start..task_stop
     on one domain; an idle span runs idle_start..the domain's next
     event. *)
  let to_jsonl () =
    let buf = Buffer.create 4096 in
    List.iter
      (fun (t, d, k) ->
         Buffer.add_string buf
           (Ceres_util.Json.to_string
              (Obj
                 [ ("t_ms", Fixed (3, t)); ("domain", Int d);
                   ("ev", Str (kind_name k)) ]));
         Buffer.add_char buf '\n')
      (events ());
    Buffer.contents buf

  let write_file path =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
         output_string oc (to_jsonl ());
         let d = dropped () in
         if d > 0 then
           output_string oc
             (Ceres_util.Json.to_string
                (Obj [ ("dropped", Int d) ])
              ^ "\n"))
end

(* ------------------------------------------------------------------ *)

type domain_stats = {
  domain : int;
  tasks_executed : int;
  tasks_failed : int;
  steals_attempted : int;
  steals_succeeded : int;
  idle_spins : int;
}

type loop_stats = {
  loop_index : int; (* 0-based ordinal of the parallel_for on this pool *)
  chunks : int;
  wall_ms : float; (* fork start to join end *)
  fork_ms : float; (* time spent dealing chunks onto the deques *)
  join_ms : float; (* caller's tail wait after its last executed task *)
}

let recent_cap = 64

type loop_log = {
  m : Mutex.t;
  mutable count : int;
  mutable recent : loop_stats list; (* newest first, capped *)
}

let make_loop_log () = { m = Mutex.create (); count = 0; recent = [] }

let note_loop log ~chunks ~wall_ms ~fork_ms ~join_ms =
  Mutex.lock log.m;
  let r =
    { loop_index = log.count; chunks; wall_ms; fork_ms; join_ms }
  in
  log.count <- log.count + 1;
  log.recent <- r :: List.filteri (fun i _ -> i < recent_cap - 1) log.recent;
  Mutex.unlock log.m

let reset_loop_log log =
  Mutex.lock log.m;
  log.count <- 0;
  log.recent <- [];
  Mutex.unlock log.m

(* ------------------------------------------------------------------ *)

type pool_stats = {
  participants : int;
  jobs_submitted : int;
  loops_run : int;
  domains : domain_stats list; (* by participant id, caller first *)
  recent_loops : loop_stats list; (* oldest first *)
}

let snapshot ~participants ~jobs_submitted (cs : counters array) log =
  let domains =
    Array.to_list
      (Array.mapi
         (fun i c ->
            { domain = i;
              tasks_executed = Atomic.get c.tasks;
              tasks_failed = Atomic.get c.failed;
              steals_attempted = Atomic.get c.steal_attempts;
              steals_succeeded = Atomic.get c.steals;
              idle_spins = Atomic.get c.idle_spins })
         cs)
  in
  Mutex.lock log.m;
  let loops_run = log.count and recent_loops = List.rev log.recent in
  Mutex.unlock log.m;
  { participants; jobs_submitted; loops_run; domains; recent_loops }

let total_tasks s =
  List.fold_left (fun a d -> a + d.tasks_executed) 0 s.domains

let total_failed s =
  List.fold_left (fun a d -> a + d.tasks_failed) 0 s.domains

let total_steals s =
  List.fold_left (fun a d -> a + d.steals_succeeded) 0 s.domains

(* Rendered through the repo-wide deterministic encoder so the pool's
   stats serialize exactly like every other JSON surface; the registry's
   pool list is read at render time. *)
let json_of_stats s : Ceres_util.Json.t =
  let open Ceres_util.Json in
  Obj
    ([ ("participants", Int s.participants);
       ("jobs_submitted", Int s.jobs_submitted);
       ("loops_run", Int s.loops_run);
       ("tasks_executed", Int (total_tasks s));
       ("tasks_failed", Int (total_failed s));
       ("steals_succeeded", Int (total_steals s)) ]
     @ fields pool_counters
     @ [ ( "domains",
           List
             (List.map
                (fun d ->
                   Obj
                     [ ("domain", Int d.domain);
                       ("tasks_executed", Int d.tasks_executed);
                       ("tasks_failed", Int d.tasks_failed);
                       ("steals_attempted", Int d.steals_attempted);
                       ("steals_succeeded", Int d.steals_succeeded);
                       ("idle_spins", Int d.idle_spins) ])
                s.domains) );
         ( "loops",
           List
             (List.map
                (fun (l : loop_stats) ->
                   Obj
                     [ ("loop", Int l.loop_index);
                       ("chunks", Int l.chunks);
                       ("wall_ms", Fixed (3, l.wall_ms));
                       ("fork_ms", Fixed (3, l.fork_ms));
                       ("join_ms", Fixed (3, l.join_ms)) ])
                s.recent_loops) ) ])

let to_json s = Ceres_util.Json.to_string (json_of_stats s)
