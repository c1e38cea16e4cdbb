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

type open_instance = {
  oloop : Jsir.Ast.loop_id;
  started : int64; (* busy vticks at instance entry *)
  mutable otrips : int;
  mutable last_iter_started : int64;
}

type t = {
  clock : Ceres_util.Vclock.t;
  stats : loop_stats array;
  mutable open_stack : open_instance list;
  mutable opened : int64; (* busy vticks when the stack last became non-empty *)
  mutable in_loops : int64; (* busy vticks with a loop open *)
}

let create clock (infos : Jsir.Loops.info array) =
  { clock;
    stats =
      Array.init (Array.length infos) (fun id ->
          { id;
            time = Ceres_util.Welford.create ();
            trips = Ceres_util.Welford.create ();
            iter_time = Ceres_util.Welford.create () });
    open_stack = [];
    opened = 0L;
    in_loops = 0L }

let busy t = Ceres_util.Vclock.busy t.clock
let ms t ticks = Ceres_util.Vclock.to_ms t.clock ticks

let on_enter t id =
  let now = busy t in
  if t.open_stack = [] then t.opened <- now;
  t.open_stack <-
    { oloop = id; started = now; otrips = 0; last_iter_started = now }
    :: t.open_stack

let close_iteration t (inst : open_instance) now =
  if inst.otrips > 0 then
    Ceres_util.Welford.add t.stats.(inst.oloop).iter_time
      (ms t (Int64.sub now inst.last_iter_started))

let on_iter t id =
  match t.open_stack with
  | inst :: _ when inst.oloop = id ->
    let now = busy t in
    close_iteration t inst now;
    inst.otrips <- inst.otrips + 1;
    inst.last_iter_started <- now
  | _ ->
    (match List.find_opt (fun i -> i.oloop = id) t.open_stack with
     | Some inst ->
       let now = busy t in
       close_iteration t inst now;
       inst.otrips <- inst.otrips + 1;
       inst.last_iter_started <- now
     | None -> ())

let on_exit t id =
  let now = busy t in
  let rec split acc = function
    | [] -> (None, List.rev acc)
    | inst :: rest when inst.oloop = id -> (Some inst, List.rev_append acc rest)
    | inst :: rest -> split (inst :: acc) rest
  in
  let found, remaining = split [] t.open_stack in
  t.open_stack <- remaining;
  match found with
  | None -> ()
  | Some inst ->
    if remaining = [] then
      t.in_loops <- Int64.add t.in_loops (Int64.sub now t.opened);
    close_iteration t inst now;
    let s = t.stats.(id) in
    Ceres_util.Welford.add s.time (ms t (Int64.sub now inst.started));
    Ceres_util.Welford.add s.trips (float_of_int inst.otrips)

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
