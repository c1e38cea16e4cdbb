(* Admission control for the socket server: a counting gate with a
   bounded wait queue in front of it.

   At most [max_inflight] requests execute at once; up to
   [queue_capacity] more block in [acquire] (backpressure on the
   client — its next request is simply not read until this one is
   answered). Beyond that the request is shed immediately with a
   [retry_after_ms] hint sized to the backlog, so an overloaded server
   degrades into fast structured refusals instead of unbounded memory
   growth or silent drops.

   [begin_drain] flips the gate into shedding mode and wakes every
   waiter: in-flight work finishes, queued work is refused — the
   server's drain budget then only has to cover what is already
   executing. *)

type t = {
  m : Mutex.t;
  c : Condition.t;
  max_inflight : int;
  queue_capacity : int;
  mutable inflight : int;
  mutable waiting : int;
  mutable draining : bool;
}

type outcome =
  | Admitted
  | Shed of { retry_after_ms : int }

let create ~max_inflight ~queue_capacity =
  if max_inflight < 0 || queue_capacity < 0 then
    invalid_arg "Admission.create: negative bound";
  { m = Mutex.create ();
    c = Condition.create ();
    max_inflight;
    queue_capacity;
    inflight = 0;
    waiting = 0;
    draining = false }

(* Rough time-to-drain of the backlog ahead of a shed request,
   deterministic in the gate's state: the hint clients back off by. *)
let retry_hint t = 25 * (t.waiting + 1)

let acquire t =
  Mutex.lock t.m;
  let shed () =
    let hint = retry_hint t in
    Mutex.unlock t.m;
    Js_parallel.Telemetry.(incr requests_shed);
    Shed { retry_after_ms = hint }
  in
  if t.draining then shed ()
  else if t.inflight < t.max_inflight then begin
    t.inflight <- t.inflight + 1;
    Mutex.unlock t.m;
    Js_parallel.Telemetry.(incr requests_admitted);
    Admitted
  end
  else if t.waiting >= t.queue_capacity then shed ()
  else begin
    t.waiting <- t.waiting + 1;
    let rec wait () =
      if t.draining then begin
        t.waiting <- t.waiting - 1;
        shed ()
      end
      else if t.inflight < t.max_inflight then begin
        t.waiting <- t.waiting - 1;
        t.inflight <- t.inflight + 1;
        Mutex.unlock t.m;
        Js_parallel.Telemetry.(incr requests_admitted);
        Admitted
      end
      else begin
        Condition.wait t.c t.m;
        wait ()
      end
    in
    wait ()
  end

let release t =
  Mutex.lock t.m;
  t.inflight <- t.inflight - 1;
  Condition.broadcast t.c;
  Mutex.unlock t.m

let begin_drain t =
  Mutex.lock t.m;
  t.draining <- true;
  Condition.broadcast t.c;
  Mutex.unlock t.m

let draining t =
  Mutex.lock t.m;
  let d = t.draining in
  Mutex.unlock t.m;
  d

let inflight t =
  Mutex.lock t.m;
  let n = t.inflight in
  Mutex.unlock t.m;
  n

let waiting t =
  Mutex.lock t.m;
  let n = t.waiting in
  Mutex.unlock t.m;
  n
