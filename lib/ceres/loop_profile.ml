(* Loop-profiling mode (paper Sec. 3.2).

   For every syntactic loop: the number of instances encountered, and
   the total/average/variance of (1) per-instance running time, (2)
   per-instance trip count, and (3) per-iteration running time, all via
   Welford's online algorithm. The per-iteration series additionally
   feeds the control-flow-divergence heuristic used for Table 3. *)

type loop_stats = {
  id : Jsir.Ast.loop_id;
  time : Ceres_util.Welford.t; (* ms per instance *)
  trips : Ceres_util.Welford.t; (* trip count per instance *)
  iter_time : Ceres_util.Welford.t; (* ms per iteration *)
}

(* An open loop instance. The records are preallocated, one per
   nesting depth, and reused: a loop event allocates none. *)
type open_instance = {
  mutable oloop : Jsir.Ast.loop_id;
  mutable started : int; (* busy vticks at instance entry *)
  mutable otrips : int;
  mutable last_iter_started : int;
}

type t = {
  clock : Ceres_util.Vclock.t;
  stats : loop_stats array;
  mutable open_stack : open_instance array; (* bottom first *)
  mutable depth : int; (* open instances: [open_stack.(0 .. depth - 1)] *)
  mutable opened : int; (* busy vticks when the stack last became non-empty *)
  mutable in_loops : int; (* busy vticks with a loop open *)
}

let fresh_instance _ =
  { oloop = 0; started = 0; otrips = 0; last_iter_started = 0 }

let create clock (infos : Jsir.Loops.info array) =
  { clock;
    stats =
      Array.init (Array.length infos) (fun id ->
          { id;
            time = Ceres_util.Welford.create ();
            trips = Ceres_util.Welford.create ();
            iter_time = Ceres_util.Welford.create () });
    open_stack = Array.init 16 fresh_instance;
    depth = 0;
    opened = 0;
    in_loops = 0 }

(* Native ints, read straight off the clock: a loop event boxes no
   [Int64]. Exact as [Vclock.to_ms] below 2^53 ticks. *)
let busy t = t.clock.Ceres_util.Vclock.busy_ticks
let ms t ticks = float_of_int ticks /. float t.clock.Ceres_util.Vclock.rate

let on_enter t id =
  let now = busy t in
  if t.depth = 0 then t.opened <- now;
  let n = Array.length t.open_stack in
  if t.depth = n then
    t.open_stack <-
      Array.init (2 * n) (fun i ->
          if i < n then t.open_stack.(i) else fresh_instance i);
  let inst = t.open_stack.(t.depth) in
  inst.oloop <- id;
  inst.started <- now;
  inst.otrips <- 0;
  inst.last_iter_started <- now;
  t.depth <- t.depth + 1

(* Depth of the innermost open instance of [id], or -1. *)
let find t id =
  let i = ref (t.depth - 1) in
  while !i >= 0 && t.open_stack.(!i).oloop <> id do decr i done;
  !i

let close_iteration t (inst : open_instance) now =
  if inst.otrips > 0 then
    Ceres_util.Welford.add t.stats.(inst.oloop).iter_time
      (ms t (now - inst.last_iter_started))

let on_iter t id =
  let d = find t id in
  if d >= 0 then begin
    let inst = t.open_stack.(d) in
    let now = busy t in
    close_iteration t inst now;
    inst.otrips <- inst.otrips + 1;
    inst.last_iter_started <- now
  end

(* Close the innermost open instance of [id]; instances opened inside
   it stay open, one depth lower. *)
let on_exit t id =
  let now = busy t in
  let d = find t id in
  if d >= 0 then begin
    let stack = t.open_stack in
    let inst = stack.(d) in
    Array.blit stack (d + 1) stack d (t.depth - 1 - d);
    t.depth <- t.depth - 1;
    stack.(t.depth) <- inst;
    if t.depth = 0 then t.in_loops <- t.in_loops + (now - t.opened);
    close_iteration t inst now;
    let s = t.stats.(id) in
    Ceres_util.Welford.add s.time (ms t (now - inst.started));
    Ceres_util.Welford.add s.trips (float_of_int inst.otrips)
  end

let stats t id = t.stats.(id)

(* Loops by descending total time, restricted to roots of syntactic
   nests — the unit the paper inspects ("the top loop nests that,
   together, make up at least two thirds of the time spent in loops"). *)
let hottest_roots t (infos : Jsir.Loops.info array) =
  Jsir.Loops.roots infos
  |> List.map (fun (info : Jsir.Loops.info) -> t.stats.(info.id))
  |> List.filter (fun s -> Ceres_util.Welford.count s.time > 0)
  |> List.sort (fun a b ->
      compare (Ceres_util.Welford.total b.time) (Ceres_util.Welford.total a.time))

let total_root_time_ms t _infos = ms t t.in_loops
