(* Work-stealing pool of OCaml 5 domains.

   Every participant owns a chunk deque — the owner pops LIFO at one
   end, thieves steal FIFO (oldest first) at the other — with
   per-deque mutexes, so the only contention left is actual stealing.
   A participant that finds no work spins for a short constant window
   and then parks on one pool-wide condition until a wake epoch moves;
   every push of [parallel_for]'s chunks, the chunk that completes a
   loop, and [shutdown] bump the epoch and broadcast. A parked domain
   therefore costs nothing while the caller interprets between loops,
   and picks up its chunk as soon as it is pushed. [parallel_for] is
   the only way onto the pool. Every scheduling event feeds the
   Telemetry counters (tasks, steal attempts/successes, idle spins and
   parks, per-loop wall/fork/join times), exportable as JSON. *)

type job = unit -> unit

(* Two-list deque under a mutex. The owner pushes and pops at [bot]
   (newest first, LIFO); thieves take from [top] (oldest first, FIFO),
   flipping [bot] over when [top] runs dry. Mutex-per-deque keeps the
   memory-ordering story trivial while removing the global bottleneck;
   a Chase–Lev deque could drop the lock later without changing the
   interface. *)
module Deque = struct
  type t = {
    m : Mutex.t;
    mutable bot : job list; (* newest first: the owner's end *)
    mutable top : job list; (* oldest first: the thieves' end *)
  }

  let create () = { m = Mutex.create (); bot = []; top = [] }

  let push d j =
    Mutex.lock d.m;
    d.bot <- j :: d.bot;
    Mutex.unlock d.m

  let pop d =
    Mutex.lock d.m;
    let r =
      match d.bot with
      | j :: rest ->
        d.bot <- rest;
        Some j
      | [] ->
        (match d.top with
         | j :: rest ->
           d.top <- rest;
           Some j
         | [] -> None)
    in
    Mutex.unlock d.m;
    r

  let steal d =
    Mutex.lock d.m;
    let r =
      match d.top with
      | j :: rest ->
        d.top <- rest;
        Some j
      | [] ->
        (match List.rev d.bot with
         | j :: rest ->
           d.bot <- [];
           d.top <- rest;
           Some j
         | [] -> None)
    in
    Mutex.unlock d.m;
    r
end

type t = {
  n : int; (* participants, including the caller (id 0) *)
  deques : Deque.t array; (* one per participant *)
  counters : Telemetry.counters array; (* one per participant *)
  down : bool Atomic.t;
  loops : Telemetry.loop_log;
  epoch : int Atomic.t; (* moves on every push, loop completion, shutdown *)
  wake_m : Mutex.t;
  wake_c : Condition.t; (* broadcast under [wake_m] when [epoch] moves *)
  mutable workers : unit Domain.t array;
}

let now_ms () = Unix.gettimeofday () *. 1000.

let spin_window = 128

(* Move the epoch, then broadcast under the lock: a waiter re-checks
   the epoch under the same lock before it sleeps, so it either sees
   the new epoch or is already waiting when the broadcast comes. *)
let wake t =
  Atomic.incr t.epoch;
  Mutex.lock t.wake_m;
  Condition.broadcast t.wake_c;
  Mutex.unlock t.wake_m

(* Wait until the wake epoch moves off [e], which the caller read
   before its last failed [try_get]: spin for [spin_window] rounds,
   then park on the condition. Each spin and each park counts as one
   idle spin. The wait opens an idle span on the timeline trace (the
   span ends at the domain's next event). *)
let idle t id e =
  let c = t.counters.(id) in
  if Telemetry.Trace.active () then
    Telemetry.Trace.note ~domain:id Telemetry.Trace.Idle_start;
  let rec spin k =
    if Atomic.get t.epoch = e then begin
      Telemetry.note_idle c;
      if k < spin_window then begin
        Domain.cpu_relax ();
        spin (k + 1)
      end
      else begin
        Mutex.lock t.wake_m;
        while Atomic.get t.epoch = e do
          Condition.wait t.wake_c t.wake_m
        done;
        Mutex.unlock t.wake_m
      end
    end
  in
  spin 0

(* Pop locally (LIFO), then sweep the other deques oldest-first. Every
   probe of a foreign deque is a recorded steal attempt. *)
let try_get t id =
  match Deque.pop t.deques.(id) with
  | Some _ as r -> r
  | None ->
    if t.n <= 1 then None
    else begin
      let c = t.counters.(id) in
      let rec probe k =
        if k >= t.n then None
        else begin
          Telemetry.note_steal_attempt c;
          match Deque.steal t.deques.((id + k) mod t.n) with
          | Some _ as r ->
            Telemetry.note_steal_success c;
            if Telemetry.Trace.active () then
              Telemetry.Trace.note ~domain:id Telemetry.Trace.Steal;
            r
          | None -> probe (k + 1)
        end
      in
      probe 1
    end

(* Run a job on behalf of participant [id]. Every job is a
   [parallel_for] chunk, which catches its own exception and hands it
   to the loop's caller, so nothing escapes here. *)
let exec t id job =
  Telemetry.note_task t.counters.(id);
  let traced = Telemetry.Trace.active () in
  if traced then Telemetry.Trace.note ~domain:id Telemetry.Trace.Task_start;
  job ();
  if traced then Telemetry.Trace.note ~domain:id Telemetry.Trace.Task_stop

let rec worker_loop t id =
  let e = Atomic.get t.epoch in
  match try_get t id with
  | Some job ->
    exec t id job;
    worker_loop t id
  | None ->
    if Atomic.get t.down then () (* closed and drained: exit *)
    else begin
      idle t id e;
      worker_loop t id
    end

let create ?domains () =
  let requested =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  let n = max 1 requested in
  let t =
    { n;
      deques = Array.init n (fun _ -> Deque.create ());
      counters = Array.init n (fun _ -> Telemetry.make_counters ());
      down = Atomic.make false;
      loops = Telemetry.make_loop_log ();
      epoch = Atomic.make 0;
      wake_m = Mutex.create ();
      wake_c = Condition.create ();
      workers = [||] }
  in
  t.workers <-
    Array.init (n - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let size t = t.n

let shutdown t =
  (* compare_and_set makes idempotence race-safe: exactly one caller
     observes the transition and joins the workers. Workers drain every
     deque before exiting; the wake gets the parked ones to notice. *)
  if Atomic.compare_and_set t.down false true then begin
    wake t;
    Array.iter Domain.join t.workers
  end

(* ------------------------------------------------------------------ *)

let stats t = Telemetry.snapshot ~participants:t.n t.counters t.loops

let stats_json t = Telemetry.to_json (stats t)

let reset_stats t =
  Array.iter Telemetry.reset_participant t.counters;
  Telemetry.reset_loop_log t.loops

(* ------------------------------------------------------------------ *)

let default_chunk t ~lo ~hi =
  let span = hi - lo in
  max 1 (span / (t.n * 8))

let parallel_for t ~lo ~hi ?chunk f =
  if hi > lo then begin
    let t0 = now_ms () in
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk t ~lo ~hi
    in
    let nchunks = (hi - lo + chunk - 1) / chunk in
    let pending = Atomic.make nchunks in
    let failure = Atomic.make None in
    let task ci () =
      (if Atomic.get failure = None then begin
         let start = lo + (ci * chunk) in
         let stop = min hi (start + chunk) in
         try
           for i = start to stop - 1 do
             f i
           done
         with exn ->
           (* First failure wins; later chunks see it and skip. *)
           ignore (Atomic.compare_and_set failure None (Some exn))
       end);
      (* the chunk that completes the loop wakes a parked caller *)
      if Atomic.fetch_and_add pending (-1) = 1 then wake t
    in
    (* Fork: deal the chunk tasks round-robin over every participant's
       deque (the caller included). Owners pop their share LIFO; load
       imbalance is repaired by stealing, which the telemetry counts. *)
    for ci = 0 to nchunks - 1 do
      Deque.push t.deques.(ci mod t.n) (task ci)
    done;
    wake t;
    let t_fork = now_ms () in
    (* Join: the caller participates until every chunk has finished,
       helping with whatever work it can find (its own chunks first,
       then steals). *)
    let t_busy_end = ref t_fork in
    while Atomic.get pending > 0 do
      let e = Atomic.get t.epoch in
      match try_get t 0 with
      | Some job ->
        exec t 0 job;
        t_busy_end := now_ms ()
      | None ->
        (* re-check after reading [e]: the last chunk may have moved
           the epoch before the read, and no other wake is due *)
        if Atomic.get pending > 0 then idle t 0 e
    done;
    let t_end = now_ms () in
    Telemetry.note_loop t.loops ~chunks:nchunks ~wall_ms:(t_end -. t0)
      ~fork_ms:(t_fork -. t0) ~join_ms:(t_end -. !t_busy_end);
    match Atomic.get failure with None -> () | Some exn -> raise exn
  end

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
