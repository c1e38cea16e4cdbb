(* Deterministic fault injection ("chaos") for the analysis pipeline.

   The injection plan is a pure function of a seed: enabling chaos with
   the same seed must produce the same failure set on every run, no
   matter how many domains execute the pipeline or in which order the
   scheduler interleaves them. Workload faults come from per-workload
   *sessions*, keyed on (seed, workload name), whose counters live in
   the session and are reset at each supervised attempt — scheduling
   cannot perturb them. A session plan dooms at most one site: the Nth
   task attempt, the Nth interpreter tick advance, or the Nth
   DOM/canvas access. Transport faults (the socket server and its load
   generator) are keyed the same way on connection and request
   ordinals.

   Everything is behind a zero-cost-when-off check: with chaos
   disabled, sessions are [None] and no interpreter hook is
   installed. *)

type site = Task | Tick | Dom | Accept | Torn | Disconnect

let site_to_string = function
  | Task -> "task-attempt"
  | Tick -> "interp-tick"
  | Dom -> "dom-access"
  | Accept -> "accept"
  | Torn -> "torn-response"
  | Disconnect -> "mid-response-disconnect"

exception Injected of { site : site; key : string; ordinal : int }

let () =
  Printexc.register_printer (function
    | Injected { site; key; ordinal } ->
      Some
        (Printf.sprintf "chaos fault injected at %s #%d (%s)"
           (site_to_string site) ordinal key)
    | _ -> None)

let fire site key ordinal =
  Telemetry.(incr faults_injected);
  raise (Injected { site; key; ordinal })

(* ------------------------------------------------------------------ *)
(* Global switch *)

let chaos_seed : int option Atomic.t = Atomic.make None

let enable ~seed = Atomic.set chaos_seed (Some seed)

let disable () = Atomic.set chaos_seed None
let enabled () = Atomic.get chaos_seed <> None
let current_seed () = Atomic.get chaos_seed

let env_var = "JSCERES_CHAOS"

let enable_from_env () =
  match Sys.getenv_opt env_var with
  | None -> false
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some seed ->
       enable ~seed;
       true
     | None ->
       Printf.eprintf "jsceres: ignoring non-integer %s=%S\n%!" env_var s;
       false)

(* ------------------------------------------------------------------ *)
(* Seed-keyed plans *)

(* FNV-1a, fixed here rather than [Hashtbl.hash] so plans survive
   compiler/hash-function changes. *)
let fnv64 (s : string) =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
       h := Int64.logxor !h (Int64.of_int (Char.code c));
       h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let stream ~seed ~key =
  Ceres_util.Prng.create
    (Int64.logxor
       (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (seed + 1)))
       (fnv64 key))

type plan = No_fault | Fail of site * int

(* A third of the keys draw a fault; the site split is uniform. Task
   faults target the first attempt, so a supervisor with [retries >= 1]
   recovers from them — which is exactly what makes them useful for
   exercising the retry path deterministically. Tick/DOM ordinals are
   drawn low enough that real workloads reach them. *)
let plan_of ~seed ~key =
  let p = stream ~seed ~key in
  if Ceres_util.Prng.int p 3 <> 0 then No_fault
  else
    match Ceres_util.Prng.int p 3 with
    | 0 -> Fail (Task, 1)
    | 1 -> Fail (Tick, 1 + Ceres_util.Prng.int p 200_000)
    | _ -> Fail (Dom, 1 + Ceres_util.Prng.int p 300)

let plan_to_string = function
  | No_fault -> "no fault"
  | Fail (site, n) -> Printf.sprintf "fail %s #%d" (site_to_string site) n

let describe_plan ~seed ~key = plan_to_string (plan_of ~seed ~key)

(* ------------------------------------------------------------------ *)
(* Per-workload sessions *)

type session = {
  key : string;
  plan : plan;
  mutable task_attempts : int;
  mutable ticks : int;
  mutable doms : int;
}

let session ~key =
  match Atomic.get chaos_seed with
  | None -> None
  | Some seed ->
    Some { key; plan = plan_of ~seed ~key; task_attempts = 0; ticks = 0;
           doms = 0 }

let attempt_gate = function
  | None -> ()
  | Some s ->
    s.task_attempts <- s.task_attempts + 1;
    (* tick/DOM ordinals restart each attempt so a retried workload
       replays the same injection schedule *)
    s.ticks <- 0;
    s.doms <- 0;
    (match s.plan with
     | Fail (Task, n) when s.task_attempts = n -> fire Task s.key n
     | _ -> ())

let arm session (st : Interp.Value.state) =
  match session with
  | None -> ()
  | Some s ->
    (match s.plan with
     | Fail (Tick, n) ->
       st.Interp.Value.on_tick <-
         Some
           (fun _cost ->
              s.ticks <- s.ticks + 1;
              if s.ticks = n then fire Tick s.key n)
     | Fail (Dom, n) ->
       let previous = st.Interp.Value.on_host_access in
       st.Interp.Value.on_host_access <-
         (fun category op ->
            s.doms <- s.doms + 1;
            if s.doms = n then fire Dom s.key n;
            previous category op)
     | Fail ((Task | Accept | Torn | Disconnect), _) | No_fault -> ())

(* The session in scope for the current supervised attempt, so layers
   that build interpreter states deep inside the attempt (the workload
   harness) can arm them without threading a parameter through every
   call. Thread-local ([Tls], keyed on domain × systhread): concurrent
   supervised workloads — on different pool domains *or* on different
   server session threads of the same domain — cannot see each other's
   sessions. *)
let current : session Tls.t = Tls.create ()

let with_session s f =
  let prev = Tls.get current in
  Tls.set current s;
  Fun.protect ~finally:(fun () -> Tls.set current prev) f

let current_session () = Tls.get current

(* ------------------------------------------------------------------ *)
(* Transport-layer sites (socket server and loadgen clients).

   Server-side plans are keyed on the accepted connection's ordinal:
   whether connection N is doomed at accept, has its Kth response torn
   mid-write, or is cut right after its Kth response depends only on
   (seed, N) — the same purity contract as the workload sessions. The
   server consults them only when transport chaos is explicitly
   requested (the [--chaos-transport] flag), so workload-only chaos
   runs keep per-session response streams byte-deterministic. *)

type transport_plan = {
  doomed_accept : bool; (* close the connection immediately after accept *)
  torn_after : int option; (* tear the Nth response mid-write, then cut *)
  disconnect_after : int option; (* cut right after the Nth response *)
}

let no_transport_fault =
  { doomed_accept = false; torn_after = None; disconnect_after = None }

let transport_plan ~conn =
  match Atomic.get chaos_seed with
  | None -> None
  | Some seed ->
    let p = stream ~seed ~key:(Printf.sprintf "conn-%d" conn) in
    Some
      (if Ceres_util.Prng.int p 8 = 0 then
         { no_transport_fault with doomed_accept = true }
       else if Ceres_util.Prng.int p 5 = 0 then
         { no_transport_fault with
           torn_after = Some (1 + Ceres_util.Prng.int p 3) }
       else if Ceres_util.Prng.int p 5 = 0 then
         { no_transport_fault with
           disconnect_after = Some (1 + Ceres_util.Prng.int p 4) }
       else no_transport_fault)

(* Client-side misbehaviour for the load generator: a pure function of
   (seed, client, request), independent of the global switch so a
   loadgen process can abuse a healthy server. *)

type client_action = Client_ok | Client_torn | Client_disconnect | Client_slow

let client_plan ~seed ~client ~request =
  let p =
    stream ~seed ~key:(Printf.sprintf "client-%d-req-%d" client request)
  in
  match Ceres_util.Prng.int p 12 with
  | 0 -> Client_torn
  | 1 -> Client_disconnect
  | 2 | 3 -> Client_slow
  | _ -> Client_ok
