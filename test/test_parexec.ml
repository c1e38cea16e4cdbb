(* Parallel loop execution (Par_exec): the fork/merge path must be
   observably indistinguishable from sequential interpretation — same
   console lines, same virtual-clock readings — across every workload
   and every job count, with proven nests actually going through the
   pool where the analyzer found them. *)

let qtest = QCheck_alcotest.to_alcotest

type obs = {
  console : string list;
  busy : int64;
  now : int64;
}

let observe (st : Interp.Value.state) =
  { console = st.console;
    busy = Ceres_util.Vclock.busy st.clock;
    now = Ceres_util.Vclock.now st.clock }

let obs_testable : obs Alcotest.testable =
  Alcotest.testable
    (fun ppf o ->
       Format.fprintf ppf "busy=%Ld now=%Ld console=[%s]" o.busy o.now
         (String.concat "; " (List.rev_map String.escaped o.console)))
    ( = )

let workload name = Option.get (Workloads.Registry.find name)

let run_seq w = observe (Workloads.Harness.run_plain w).st

let run_par ?break_even ~pool ~jobs w =
  let pe =
    Js_parallel.Par_exec.create ?break_even
      ~mode:(Js_parallel.Par_exec.Parallel pool) ~jobs ()
  in
  let o = observe (Workloads.Harness.run_plain ~par:pe w).st in
  (o, pe)

(* ------------------------------------------------------------------ *)
(* Acceptance: parallel output ≡ sequential bytes on all 12 workloads. *)

let test_all_workloads_deterministic () =
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (w : Workloads.Workload.t) ->
           let seq = run_seq w in
           let par, _ = run_par ~pool ~jobs:2 w in
           Alcotest.check obs_testable
             (Printf.sprintf "%s: par ≡ seq at -j 2" w.name)
             seq par)
        Workloads.Registry.all)

(* The workloads whose proven nests are big enough to fork must really
   execute through the pool (not silently fall back), and stay
   deterministic across job counts. *)
let test_proven_nests_execute () =
  let seq_caman = run_seq (workload "CamanJS") in
  let seq_ray = run_seq (workload "Raytracing") in
  List.iter
    (fun jobs ->
       Js_parallel.Pool.with_pool ~domains:jobs (fun pool ->
           let par, pe = run_par ~pool ~jobs (workload "CamanJS") in
           Alcotest.check obs_testable
             (Printf.sprintf "CamanJS: par ≡ seq at -j %d" jobs)
             seq_caman par;
           Alcotest.(check bool)
             (Printf.sprintf "CamanJS runs nests in parallel at -j %d" jobs)
             true
             (Js_parallel.Par_exec.nests_run pe > 0);
           let par, pe = run_par ~pool ~jobs (workload "Raytracing") in
           Alcotest.check obs_testable
             (Printf.sprintf "Raytracing: par ≡ seq at -j %d" jobs)
             seq_ray par;
           Alcotest.(check bool)
             (Printf.sprintf "Raytracing runs nests in parallel at -j %d" jobs)
             true
             (Js_parallel.Par_exec.nests_run pe > 0)))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Chunking and the work gate: one chunk per domain, and a gate that
   decides from deterministic vticks, so its decisions repeat exactly
   and keep the big nests parallel while refusing the small ones. *)

module PE = Js_parallel.Par_exec

let exec_apps =
  [ "HAAR.js"; "CamanJS"; "fluidSim"; "MyScript"; "Raytracing";
    "Normal Mapping" ]

let measure_rows w =
  let pe = PE.create ~mode:PE.Measure ~jobs:1 () in
  ignore (Workloads.Harness.run_plain ~par:pe w);
  PE.nest_rows pe

let find_nest rows label =
  let _, _, s = List.find (fun (_, l, _) -> Helpers.contains ~sub:label l) rows in
  s

let test_gate_deterministic () =
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let counts () =
        let _, pe = run_par ~pool ~jobs:2 (workload "fluidSim") in
        List.map
          (fun (id, _, (s : PE.nest_stats)) ->
             (id, (s.instances, s.chunks, s.refused)))
          (PE.nest_rows pe)
      in
      let first = counts () in
      Alcotest.(check (list (pair int (triple int int int))))
        "fluidSim: per-nest instances, chunks, refused repeat" first
        (counts ());
      Alcotest.(check bool) "fluidSim: the gate refused instances" true
        (List.exists (fun (_, (_, _, refused)) -> refused > 0) first))

let test_gate_admits_big_nests () =
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (name, labels) ->
           let w = workload name in
           let seq = measure_rows w in
           let _, pe = run_par ~pool ~jobs:2 w in
           List.iter
             (fun label ->
                let m = find_nest seq label in
                let p = find_nest (PE.nest_rows pe) label in
                Alcotest.(check (pair int int))
                  (Printf.sprintf "%s %s: (instances, refused)" name label)
                  (m.seq_instances, 0) (p.instances, p.refused))
             labels)
        [ ("Raytracing", [ "in render" ]);
          ("CamanJS", [ "in processPixels"; "in boxBlur"; "in levels" ]) ])

(* The first instance is gated too: its probe trip prices the nest
   below break-even, so not one instance forks. *)
let test_gate_refuses_small_nest () =
  let w = workload "MyScript" in
  let seq = run_seq w in
  let m = find_nest (measure_rows w) "in analyzeStroke" in
  Alcotest.(check bool) "analyzeStroke: several instances" true
    (m.seq_instances > 1);
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let par, pe = run_par ~pool ~jobs:2 w in
      Alcotest.check obs_testable "MyScript: par ≡ seq at -j 2" seq par;
      let p = find_nest (PE.nest_rows pe) "in analyzeStroke" in
      Alcotest.(check (pair int int))
        "analyzeStroke: every instance refused, the first included"
        (0, m.seq_instances) (p.instances, p.refused))

let test_one_chunk_per_domain () =
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun name ->
           let _, pe = run_par ~pool ~jobs:2 (workload name) in
           List.iter
             (fun (_, label, (s : PE.nest_stats)) ->
                Alcotest.(check int)
                  (Printf.sprintf "%s %s: 2 chunks per instance" name label)
                  (2 * s.instances) s.chunks)
             (PE.nest_rows pe))
        exec_apps)

(* Frames without dynamic bindings all share [Value.no_vars]; whatever
   binds a name dynamically (a catch, a function-name wrapper, an
   implicit global, an unresolved frame, a fork's shell or merge) must
   give the frame its own table first. After the exec apps run plain
   and forked at -j 2, and a program that binds dynamically runs on
   both paths, the shared table is still empty. *)
let test_no_vars_untouched () =
  let src =
    "function f(x) { try { throw x; } catch (err) { leaked = err; }
    \  var h = function g() { return typeof g; }; return h(); }
     console.log(f(1) + leaked);"
  in
  List.iter
    (fun resolve ->
       let st, _ = Helpers.fresh_state () in
       Interp.Eval.run_program ~resolve st (Jsir.Parser.parse_program src);
       Alcotest.(check (list string))
         (Printf.sprintf "dynamic bindings (resolve=%b)" resolve)
         [ "function1" ] st.console)
    [ true; false ];
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun name ->
           let w = workload name in
           ignore (run_seq w);
           ignore (run_par ~pool ~jobs:2 w))
        exec_apps);
  Alcotest.(check int) "Value.no_vars is empty" 0
    (Interp.Value.Strtbl.length Interp.Value.no_vars)

(* ------------------------------------------------------------------ *)
(* Generated additive reductions: the merged accumulator must equal
   the sequential run and the plain [fold_left] over the inputs. *)

let reduction_source init xs =
  let n = List.length xs in
  Printf.sprintf
    "var a = [%s];\nvar acc = %d;\nfor (var i = 0; i < %d; i++) { acc = acc \
     + a[i]; }\nconsole.log(acc);"
    (String.concat ", " (List.map string_of_int xs))
    init n

let run_program_console ?par src =
  let st, _ = Helpers.fresh_state () in
  let program = Jsir.Parser.parse_program src in
  (match par with
   | Some pe ->
     let report = Analysis.Driver.analyze program in
     Js_parallel.Par_exec.install pe st ~report
   | None -> ());
  Interp.Eval.run_program st program;
  st.Interp.Value.console

let generated_reductions_deterministic pool =
  QCheck.Test.make ~name:"generated reductions: par ≡ seq ≡ fold_left"
    ~count:30
    QCheck.(
      pair (int_range (-1000) 1000)
        (list_of_size (Gen.int_range 16 64) (int_range (-10000) 10000)))
    (fun (init, xs) ->
       let src = reduction_source init xs in
       let seq = run_program_console src in
       (* a 16-64 trip sum is far below break-even: gate off *)
       let pe =
         Js_parallel.Par_exec.create ~break_even:0
           ~mode:(Js_parallel.Par_exec.Parallel pool) ~jobs:2 ()
       in
       let par = run_program_console ~par:pe src in
       let expect =
         Printf.sprintf "%d" (List.fold_left ( + ) init xs)
       in
       par = seq && seq = [ expect ]
       && Js_parallel.Par_exec.nests_run pe = 1)

(* The same through the CLI, on the two workloads whose proven nests
   are big enough to fork (CamanJS and Raytracing): [run --par-exec
   -j 2] prints what [run] prints, and its telemetry shows nests
   really going through the pool, so the byte compare cannot pass
   vacuously on an all-sequential run. *)
let test_cli_par_exec () =
  List.iter
    (fun w ->
       let rc_seq, seq, _ = Helpers.cli [ "run"; w ] in
       let rc_par, par, err =
         Helpers.cli [ "run"; w; "--par-exec"; "-j"; "2"; "--par-stats" ]
       in
       Alcotest.(check (pair int int)) (w ^ ": both runs exit 0") (0, 0)
         (rc_seq, rc_par);
       Alcotest.(check string) (w ^ ": par stdout = seq stdout") seq par;
       let stats = Helpers.json_line ~prefix:"par-exec telemetry: " err in
       Alcotest.(check bool) (w ^ ": nests ran in parallel") true
         (Helpers.int_at [ "nests" ] stats > 0);
       Alcotest.(check bool) (w ^ ": pool executed tasks") true
         (Helpers.int_at [ "pool"; "tasks_executed" ] stats > 0))
    [ "CamanJS"; "Raytracing" ]

(* A [break] directly in a proven loop's body ends the loop early, which
   a chunk cannot do: the shape scan must see it and keep every instance
   sequential, instead of forking both chunks and poisoning each time. *)
let test_break_stays_sequential () =
  let src =
    {|
var a = [];
function fill(n) {
  for (var i = 0; i < 1000; i++) {
    a[i] = i * 2;
    if (i === n) { break; }
  }
}
for (var k = 0; k < 20; k++) { fill(100 + 40 * k); }
console.log(a.length + "," + a[99] + "," + a[900]);
|}
  in
  let seq = run_program_console src in
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let pe = PE.create ~mode:(PE.Parallel pool) ~jobs:2 () in
      let par = run_program_console ~par:pe src in
      Alcotest.(check (list string)) "par ≡ seq" seq par;
      Alcotest.(check (list string)) "the loop ran to each break"
        [ "861,198,undefined" ] seq;
      let total f =
        List.fold_left (fun acc (_, _, s) -> acc + f s) 0 (PE.nest_rows pe)
      in
      Alcotest.(check (pair int int)) "no instances, no fallbacks" (0, 0)
        (total (fun s -> s.PE.instances), total (fun s -> s.PE.fallbacks)))

(* ------------------------------------------------------------------ *)
(* Chunks run in place on the master heap, behind the write barrier:
   chunks run concurrently on the pool must end exactly as the same
   chunks run one after another on the caller — the same poisons, the
   same overlap verdict, and the same master after the commit or the
   roll-back. *)

let render_value (v : Interp.Value.value) =
  match v with
  | Num f -> Printf.sprintf "%h" f
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | Undefined -> "undefined"
  | Null -> "null"
  | Obj o -> Printf.sprintf "#%d" o.oid

let fork_prelude =
  "var a = [1, 2, 3]; var o = { x: 1, y: 2 }; var n = 0;"

(* A master built from [fork_prelude] and one chunk of one instance per
   entry of [chunk_exprs], over the global frame. *)
let forked_master chunk_exprs =
  let st, _ = Helpers.fresh_state () in
  Interp.Eval.run_program st (Jsir.Parser.parse_program fork_prelude);
  let inst = Interp.Fork.instance () in
  let chunks =
    List.mapi
      (fun k exprs ->
         ( Interp.Fork.fork st inst ~frame:st.global_scope
             ~write_floor:st.next_oid ~scope_floor:st.next_sid
             ~next_oid:(st.next_oid + ((k + 1) lsl 28))
             ~next_sid:(st.next_sid + ((k + 1) lsl 24)),
           exprs ))
      chunk_exprs
  in
  (st, inst, chunks)

(* Run a chunk's expressions until one poisons it. *)
let run_exprs ((c : Interp.Fork.t), exprs) =
  match
    List.iter
      (fun e ->
         ignore
           (Interp.Eval.eval_in_global c.st (Jsir.Parser.parse_expression e)))
      exprs
  with
  | () -> "clean"
  | exception Interp.Value.Par_abort why -> why

let settle st inst chunks poisons =
  let forks = List.map fst chunks in
  let overlap = Interp.Fork.overlaps inst forks in
  if overlap || List.exists (fun p -> p <> "clean") poisons then
    Interp.Fork.rollback inst
  else Interp.Fork.commit forks;
  let heap =
    Interp.Eval.eval_in_global st
      (Jsir.Parser.parse_expression "JSON.stringify([a, o, n])")
  in
  (poisons, overlap, st.console, render_value heap)

let test_concurrent_chunks_match_serial () =
  let scenarios =
    [ ( "disjoint element writes",
        [ [ "a[0] = 10"; "n = n + 1"; "console.log('chunk 0')" ];
          [ "a[2] = 30"; "console.log('chunk 1')" ] ] );
      ("a shrinking chunk", [ [ "a[1] = 20" ]; [ "a.pop()" ] ]);
      ("a property write", [ [ "a[1] = 20" ]; [ "o.x = 'left'" ] ]);
      ("one element twice", [ [ "a[1] = 20" ]; [ "a[1] = 21"; "a[0] = 5" ] ])
    ]
  in
  let testable =
    Alcotest.(
      pair (pair (list string) bool) (pair (list string) string))
  in
  let flat (p, o, c, h) = ((p, o), (c, h)) in
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (name, chunk_exprs) ->
           let par_st, par_inst, par_chunks = forked_master chunk_exprs in
           let chunks = Array.of_list par_chunks in
           let slots = Array.make (Array.length chunks) "" in
           Js_parallel.Pool.parallel_for pool ~lo:0 ~hi:(Array.length chunks)
             ~chunk:1 (fun k -> slots.(k) <- run_exprs chunks.(k));
           let par = settle par_st par_inst par_chunks (Array.to_list slots) in
           let seq_st, seq_inst, seq_chunks = forked_master chunk_exprs in
           let seq =
             settle seq_st seq_inst seq_chunks (List.map run_exprs seq_chunks)
           in
           Alcotest.check testable
             (name ^ ": same poisons, overlap, console and heap") (flat seq)
             (flat par))
        scenarios;
      (* what each scenario settles to *)
      let settled chunk_exprs =
        let st, inst, chunks = forked_master chunk_exprs in
        let _, overlap, console, heap =
          settle st inst chunks (List.map run_exprs chunks)
        in
        (overlap, (List.rev console, heap))
      in
      let outcome = Alcotest.(pair bool (pair (list string) string)) in
      Alcotest.check outcome "disjoint writes commit in chunk order"
        (false, ([ "chunk 0"; "chunk 1" ], {|"[[10,2,30],{\"x\":1,\"y\":2},1]"|}))
        (settled (snd (List.nth scenarios 0)));
      Alcotest.check outcome "a poisoned chunk rolls every element back"
        (false, ([], {|"[[1,2,3],{\"x\":1,\"y\":2},0]"|}))
        (settled (snd (List.nth scenarios 1)));
      Alcotest.check outcome "an overlap rolls every element back"
        (true, ([], {|"[[1,2,3],{\"x\":1,\"y\":2},0]"|}))
        (settled (snd (List.nth scenarios 3))))

(* ------------------------------------------------------------------ *)
(* The probe trip: a nest's first instance runs one trip on the
   master, and the gate prices the rest from its busy vticks. *)

(* On the six exec apps at -j 2, exactly Raytracing's [render] and
   CamanJS's three nests fork, on every instance; every other nest the
   hook sees is refused on every instance, its first included. The
   hook sees the Measure run's instances, except below a forked nest,
   whose chunks run without it: there only the probe trip's instance
   reaches the gate. *)
let test_probe_gates_exec_apps () =
  let forked =
    [ ("Raytracing", "for(line 70) in render");
      ("CamanJS", "for(line 23) in processPixels");
      ("CamanJS", "for(line 45) in boxBlur");
      ("CamanJS", "for(line 68) in levels") ]
  in
  let below_forked = [ ("Raytracing", "for(line 72) in render") ] in
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun name ->
           let w = workload name in
           let seq = measure_rows w in
           let _, pe = run_par ~pool ~jobs:2 w in
           List.iter
             (fun (_, label, (p : PE.nest_stats)) ->
                let key = (name, label) in
                let m = find_nest seq label in
                let expect =
                  if List.mem key forked then (m.seq_instances, 0, 0)
                  else if List.mem key below_forked then (0, 1, 0)
                  else (0, m.seq_instances, 0)
                in
                Alcotest.(check (triple int int int))
                  (Printf.sprintf "%s %s: (instances, refused, fallbacks)"
                     name label)
                  expect (p.instances, p.refused, p.fallbacks))
             (PE.nest_rows pe);
           Alcotest.(check (list string))
             (name ^ ": the nests that fork")
             (List.filter_map
                (fun (w', l) -> if String.equal w' name then Some l else None)
                forked)
             (List.filter_map
                (fun (_, l, (p : PE.nest_stats)) ->
                   if p.instances > 0 then Some l else None)
                (PE.nest_rows pe)))
        exec_apps)

(* With the gate off, the probe trip moves every accumulator (a
   journaled float [+=], an order-insensitive integer sum) and writes
   an element before the fork; the forks must start from the state it
   left, so the merged output is the sequential one bit for bit. *)
let test_probe_hand_off () =
  let trips = 40 in
  (* [a] is pre-sized: two chunks growing one array both positionally
     would poison the merge *)
  let src =
    Printf.sprintf
      {|
var a = [%s];
var f = 0.1;
var n = 3;
for (var i = 0; i < %d; i++) {
  f += 1 / (i + 3);
  n += i + 1;
  a[i] = i * 7;
}
console.log(f + "," + n + "," + a.length + "," + a[0] + "," + a[39]);
|}
      (String.concat ", " (List.init trips (fun _ -> "0")))
      trips
  in
  let seq = run_program_console src in
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let pe = PE.create ~break_even:0 ~mode:(PE.Parallel pool) ~jobs:2 () in
      let par = run_program_console ~par:pe src in
      Alcotest.(check (list string)) "par ≡ seq" seq par;
      match PE.nest_rows pe with
      | [ (_, _, s) ] ->
        Alcotest.(check (list int))
          "(instances, iterations, probe trips, fallbacks)"
          [ 1; trips - 1; 1; 0 ]
          [ s.instances; s.iterations; s.probe_trips; s.fallbacks ]
      | rows -> Alcotest.failf "expected one nest row, got %d" (List.length rows))

(* A throw in the probe trip leaves the hook as it leaves [for_loop]:
   same console, same uncaught error, same virtual clock. *)
let test_probe_throw () =
  let src =
    {|
var a = [1, 2, 3, 4, 5, 6, 7, 8];
var b = [];
console.log("before");
for (var i = 0; i < a.length; i++) {
  b[i] = a[i].x.y;
}
console.log("after");
|}
  in
  let program = Jsir.Parser.parse_program src in
  let run par =
    let st, _ = Helpers.fresh_state () in
    Option.iter
      (fun pe -> PE.install pe st ~report:(Analysis.Driver.analyze program))
      par;
    let err =
      match Interp.Eval.run_program st program with
      | () -> "no error"
      | exception Interp.Value.Js_throw v -> Interp.Value.to_string st v
    in
    (err, observe st)
  in
  Alcotest.(check int) "the loop is proven" 1
    (List.length (Analysis.Driver.proven (Analysis.Driver.analyze program)));
  let seq_err, seq = run None in
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let pe = PE.create ~break_even:0 ~mode:(PE.Parallel pool) ~jobs:2 () in
      let par_err, par = run (Some pe) in
      Alcotest.(check string) "same uncaught error" seq_err par_err;
      Alcotest.check obs_testable "same console and clock" seq par;
      Alcotest.(check (list string)) "the loop threw on its first trip"
        [ "before" ] (List.rev seq.console);
      (* the probe opened the nest's row; its trip threw before it
         priced anything, and nothing forked *)
      Alcotest.(check (list (pair int int)))
        "one nest row: (instances, probe trips)" [ (0, 0) ]
        (List.map
           (fun (_, _, (s : PE.nest_stats)) -> (s.instances, s.probe_trips))
           (PE.nest_rows pe)))

(* One pool for the qcheck batteries: creating a fresh pool per
   generated case would dominate the suite's runtime. *)
let shared_pool = lazy (Js_parallel.Pool.create ~domains:2 ())

(* ------------------------------------------------------------------ *)
(* Shapes across chunks and domains *)

(* The second loop of [shape_prelude ^ body ^ shape_tail] (loop [id] of
   [run_forced]), declared Parallel whatever the analyzer says (it
   proves no loop that writes properties of objects the master already
   has), runs as one instance of two chunks. *)
let shape_prelude =
  {|
var pts = [];
for (var i = 0; i < 40; i++) { pts[i] = { x: i, y: i, w: 1 }; }
var shared = { n: 0 };
|}

let shape_tail =
  {|
console.log(JSON.stringify(pts[0]) + JSON.stringify(pts[39])
  + Object.keys(pts[7]).join(",") + JSON.stringify(shared));
|}

let run_forced ?(id = 1) ?dom ?par src =
  let st, _ = Helpers.fresh_state ?dom () in
  let program = Jsir.Parser.parse_program src in
  (match par with
   | Some pe ->
     let rep = Analysis.Driver.analyze program in
     let force (r : Analysis.Driver.row) =
       if r.info.Jsir.Loops.id = id then
         { r with verdict = Analysis.Verdict.parallel }
       else r
     in
     PE.install pe st ~report:{ Analysis.Driver.rows = List.map force rep.rows }
   | None -> ());
  Interp.Eval.run_program st program;
  (List.rev st.Interp.Value.console, st)

(* The nest row of loop [id]: (instances, fallbacks) and the poisons. *)
let outcome pe id =
  match List.find_opt (fun (i, _, _) -> i = id) (PE.nest_rows pe) with
  | Some (_, _, (s : PE.nest_stats)) -> ((s.instances, s.fallbacks), s.poisons)
  | None -> Alcotest.fail "the forced loop did not run"

let outcome_testable =
  Alcotest.(pair (pair int int) (list (pair string int)))

(* [None]: one instance commits; [Some why]: it poisons for [why]. *)
let expected = function
  | None -> ((1, 0), [])
  | Some why -> ((0, 1), [ (why, 1) ])

(* A chunk writes the master's objects only through array elements.
   Overwriting, adding or deleting a property of an object the master
   already has poisons the instance for that reason, and the instance
   re-runs sequentially, in the sequential order. Objects the chunks
   create, their keys added on two domains at once, commit and share
   one shape. *)
let test_shape_chunks_merge () =
  let cases =
    [ ( "for (var j = 0; j < 40; j++) { pts[j].y = pts[j].x * 2; pts[j].z = j + 1; }",
        Some "property overwrite on a master object" );
      ( "for (var j = 0; j < 40; j++) { pts[j].y = j; shared.tag = 7; }",
        Some "property overwrite on a master object" );
      ( "for (var j = 0; j < 40; j++) { delete pts[j].y; pts[j].x = j * 3; }",
        Some "property delete on a master object" );
      ( "for (var j = 0; j < 40; j++) { delete pts[j].x; pts[j].x = j * 3; }",
        Some "property delete on a master object" );
      ( "for (var j = 0; j < 40; j++) { pts[j].y = j; delete shared.n; }",
        Some "property overwrite on a master object" );
      ( "for (var j = 0; j < 40; j++) { var p = { x: j }; p.y = j * 2; p.w = 1; \
         p.z = j + 1; pts[j] = p; }",
        None ) ]
  in
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iteri
        (fun k (body, why) ->
           let src = shape_prelude ^ body ^ shape_tail in
           let seq, _ = run_forced src in
           let pe = PE.create ~break_even:0 ~mode:(PE.Parallel pool) ~jobs:2 () in
           let par, st = run_forced ~par:pe src in
           Alcotest.(check (list string)) (body ^ ": par ≡ seq") seq par;
           Alcotest.check outcome_testable (body ^ ": outcome") (expected why)
             (outcome pe 1);
           if k = 0 || why = None then begin
             let shape_of k =
               match
                 Interp.Eval.eval_in_global st
                   (Jsir.Parser.parse_expression (Printf.sprintf "pts[%d]" k))
               with
               | Obj o -> o.shape
               | _ -> Alcotest.fail "not an object"
             in
             Alcotest.(check bool) "both chunks' objects share one shape" true
               (List.for_all (fun k -> shape_of k == shape_of 0) [ 1; 19; 20; 39 ])
           end)
        cases)

(* Two pool domains adding the same keys to the same shape at once get
   one child shape per key. Each repetition races on a fresh parent,
   both domains taking its 200 transitions in the same order. *)
let test_transition_race () =
  let pool = Lazy.force shared_pool in
  let keys = Array.init 200 (Printf.sprintf "k%d") in
  for rep = 0 to 99 do
    let parent =
      Interp.Value.transition Interp.Value.root_shape
        (Printf.sprintf "race-%d-%f" rep (Unix.gettimeofday ()))
    in
    let arrived = Atomic.make 0 in
    let got = Array.make_matrix 2 (Array.length keys) parent in
    Js_parallel.Pool.parallel_for pool ~lo:0 ~hi:2 ~chunk:1 (fun d ->
        Atomic.incr arrived;
        (* bounded: one participant may run both chunks *)
        let spins = ref 0 in
        while Atomic.get arrived < 2 && !spins < 1_000_000 do
          incr spins; Domain.cpu_relax ()
        done;
        Array.iteri
          (fun i k -> got.(d).(i) <- Interp.Value.transition parent k)
          keys);
    Array.iteri
      (fun i k ->
         if not (got.(0).(i) == got.(1).(i)) then
           Alcotest.failf "repetition %d: two child shapes for key %s" rep k;
         if not (Interp.Value.transition parent k == got.(0).(i)) then
           Alcotest.failf "repetition %d: key %s's child was not published"
             rep k)
      keys
  done

(* ------------------------------------------------------------------ *)
(* The write barrier. Each case forces its loop Parallel, runs it with
   the gate off, and checks par ≡ seq and the exact outcome. Every
   poisoned body first increments the element it owns, so an instance
   that failed to roll its elements back would increment them twice. *)

let barrier_prelude =
  {|
var A = [];
var B = [];
for (var i = 0; i < 40; i++) { A[i] = i; B[i] = 0; }
var out = [];
var shared = { n: 0 };
var pts = [];
for (var i = 0; i < 40; i++) { pts[i] = { x: i, w: 1 }; }
var total = 0;
|}

let barrier_tail =
  {|
console.log(A.join(",") + "|" + B.join(",") + "|" + out.length + "|"
  + JSON.stringify(shared) + "|" + JSON.stringify(pts[5]) + "|" + total);
|}

(* [body] holds the forced loop, the third of the program (id 2). *)
let barrier_case pool ?(id = 2) ?dom body =
  let src = barrier_prelude ^ body ^ barrier_tail in
  let seq, _ = run_forced ~id ?dom src in
  let pe = PE.create ~break_even:0 ~mode:(PE.Parallel pool) ~jobs:2 () in
  let par, st = run_forced ~id ?dom ~par:pe src in
  Alcotest.(check (list string)) (body ^ ": par ≡ seq") seq par;
  (outcome pe id, st)

let test_barrier_poisons () =
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (body, why, id) ->
           let got, _ = barrier_case pool ~id body in
           Alcotest.check outcome_testable (body ^ ": poisons") (expected (Some why))
             got)
        [ ( "for (var j = 0; j < 40; j++) { A[j] = A[j] + 1; out.push(j); }",
            "push on a master array", 2 );
          ( "for (var j = 0; j < 40; j++) { A[j] = A[j] + 1; shared[\"k\" + j] = j; }",
            "property add on a master object", 2 );
          ( "for (var j = 0; j < 40; j++) { A[j] = A[j] + 1; delete pts[j].w; }",
            "property delete on a master object", 2 );
          ( "function run() { for (var j = 0; j < 40; j++) { A[j] = A[j] + 1; \
             total = j; } } run();",
            "write to a master scope", 2 );
          ( "for (var j = 0; j < 40; j++) { A[j] = A[j] + 1; A[40 + j] = j; }",
            "element write past the end of a master array", 2 ) ];
      (* a DOM call reports through the chunk's own state *)
      let got, _ =
        barrier_case pool ~dom:true
          "for (var j = 0; j < 40; j++) { A[j] = A[j] + 1; \
           document.getElementById(\"x\"); }"
      in
      Alcotest.check outcome_testable "a DOM call poisons"
        (expected (Some "host access dom/getElementById")) got)

(* Two chunks writing one element: nothing orders the writes, so the
   instance rolls back and re-runs, and the sequential last write wins. *)
let test_barrier_overlap () =
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let got, _ =
        barrier_case pool
          "for (var j = 0; j < 40; j++) { A[j] = A[j] + 1; B[0] = j; }"
      in
      Alcotest.check outcome_testable "A[0] = i: overlap"
        (expected (Some "overlapping element writes")) got)

(* A closure made before the loop captured the master frame, not the
   chunk's copy: a call to it would read the frame as the fork found
   it. *)
let test_barrier_closure () =
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let got, _ =
        barrier_case pool
          "function run() { var t = 0; var get = function () { return t; }; \
           for (var j = 0; j < 40; j++) { t = j * 2; A[j] = get(); } } run();"
      in
      Alcotest.check outcome_testable "closure over the frame"
        (expected (Some "call to a closure over the copied frame")) got)

(* Fresh objects stored into a master array survive the commit, with
   the oids of the band of the chunk that made them; the master
   allocates past every band afterwards. *)
let test_barrier_fresh_objects () =
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let got, st =
        barrier_case pool
          "for (var j = 0; j < 40; j++) { pts[j] = { x: j * 2 }; } \
           var after = {};"
      in
      Alcotest.check outcome_testable "fresh objects commit" (expected None) got;
      let oid e =
        match Interp.Eval.eval_in_global st (Jsir.Parser.parse_expression e) with
        | Obj o -> o.oid
        | _ -> Alcotest.fail (e ^ " is not an object")
      in
      (* the probe trip made pts[0] on the master; chunk 0 ran trips
         1-20, chunk 1 trips 21-39, each from its own band *)
      let stride = 1 lsl 28 in
      Alcotest.(check bool) "pts[1] is from chunk 0's band" true
        (oid "pts[1]" - oid "pts[0]" >= stride);
      Alcotest.(check bool) "pts[21] is from chunk 1's band" true
        (oid "pts[21]" - oid "pts[1]" >= stride);
      Alcotest.(check bool) "the master allocates past the bands" true
        (oid "after" > oid "pts[39]"))

(* A read of the element the next iteration overwrites: in place, a
   chunk could read its neighbour's write, so the proven nest, whose
   verdict declares the anti dependence, stays sequential. *)
let test_barrier_anti_dependence () =
  let src =
    {|
var A = [];
for (var i = 0; i < 41; i++) { A[i] = i * 3; }
for (var j = 0; j < 40; j++) { A[j] = A[j + 1]; }
console.log(A.join(","));
|}
  in
  let program = Jsir.Parser.parse_program src in
  let row =
    List.find
      (fun (r : Analysis.Driver.row) -> r.info.Jsir.Loops.id = 1)
      (Analysis.Driver.analyze program).rows
  in
  Alcotest.(check (list string)) "proven with its anti dependence" [ "A" ]
    (Analysis.Verdict.war_roots row.verdict);
  let seq = run_program_console src in
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let pe = PE.create ~break_even:0 ~mode:(PE.Parallel pool) ~jobs:2 () in
      let par = run_program_console ~par:pe src in
      Alcotest.(check (list string)) "par ≡ seq" seq par;
      Alcotest.check outcome_testable "stays sequential"
        (expected (Some "anti dependence on A")) (outcome pe 1);
      Alcotest.(check bool) "--par-stats tallies the reason" true
        (Helpers.contains
           ~sub:{|"fallbacks":1,"poisons":{"anti dependence on A":1},"refused":0|}
           (PE.stats_json pe)))

(* A chunk's frame copy is written back where the chunk wrote it, in
   chunk order. The last chunk here ends by storing the very value the
   slot held at the fork, while the first chunk ends on another: the
   last write must still win. *)
let test_frame_last_writer () =
  let src =
    {|
var A = [];
for (var i = 0; i < 40; i++) { A[i] = 0; }
function f() {
  var last = 0;
  for (var j = 0; j < 40; j++) { A[j] = j; last = (j < 15 || j > 30) ? 7 : 5; }
  return last;
}
console.log(f() + "," + A[39]);
|}
  in
  let seq = run_program_console src in
  Alcotest.(check (list string)) "sequential" [ "7,39" ] seq;
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let pe = PE.create ~break_even:0 ~mode:(PE.Parallel pool) ~jobs:2 () in
      let par = run_program_console ~par:pe src in
      Alcotest.(check (list string)) "par ≡ seq" seq par;
      Alcotest.(check int) "the loop ran in chunks" 1 (PE.nests_run pe))

(* The same loop over objects. An object keeps its identity at the
   fork, so the last chunk storing the entry object [P] again reads as
   unwritten, while the first chunk ends on [Q]: the commit cannot tell
   which chunk wrote last, so the instance re-runs sequentially and
   tallies why. *)
let test_frame_object_write_back () =
  let src =
    {|
var A = [];
for (var i = 0; i < 40; i++) { A[i] = 0; }
var P = { n: 7 };
var Q = { n: 5 };
function f() {
  var last = P;
  for (var j = 0; j < 40; j++) { A[j] = j; last = (j < 15 || j > 30) ? P : Q; }
  return last;
}
console.log(f().n + "," + A[39]);
|}
  in
  let seq = run_program_console src in
  Alcotest.(check (list string)) "sequential" [ "7,39" ] seq;
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let pe = PE.create ~break_even:0 ~mode:(PE.Parallel pool) ~jobs:2 () in
      let par = run_program_console ~par:pe src in
      Alcotest.(check (list string)) "par ≡ seq" seq par;
      Alcotest.check outcome_testable "the instance fell back, with its reason"
        (expected (Some "ambiguous frame write-back"))
        (outcome pe 1))

(* A chunk that throws, or that runs out of the state's budget, poisons
   its instance with the reason named; the instance re-runs
   sequentially and ends as the sequential run ends: same console, same
   uncaught error or [Budget_exhausted], same virtual clock. The throw
   is in trip 30, past the probe trip, so the second chunk meets it.
   The budget cases take a fraction of the loop's sequential cost: at
   3/10 a chunk runs out on its own; at 3/4 each chunk fits, but their
   sum would not. *)
let test_chunk_failures () =
  let throw_src =
    {|
var a = [];
var b = [];
for (var k = 0; k < 40; k++) { a[k] = { x: { y: k } }; b[k] = 0; }
a[30] = { x: null };
console.log("before");
for (var i = 0; i < 40; i++) {
  b[i] = a[i].x.y;
}
console.log("after");
|}
  and budget_src =
    {|
var a = [];
for (var k = 0; k < 40; k++) { a[k] = 0; }
console.log("before");
function fill() {
  for (var i = 0; i < 40; i++) {
    var s = 0;
    for (var j = 0; j < 200; j++) { s = s + j * i; }
    a[i] = s;
  }
}
fill();
console.log("after " + a[39]);
|}
  in
  let run ?budget par program =
    let st = Interp.Eval.create ?budget () in
    Interp.Builtins.install st;
    Option.iter
      (fun pe -> PE.install pe st ~report:(Analysis.Driver.analyze program))
      par;
    let err =
      match Interp.Eval.run_program st program with
      | () -> "no error"
      | exception Interp.Value.Js_throw v -> Interp.Value.to_string st v
      | exception Interp.Value.Budget_exhausted -> "budget exhausted"
    in
    (err, observe st)
  in
  let full = snd (run None (Jsir.Parser.parse_program budget_src)) in
  let fraction num den = Int64.div (Int64.mul full.busy num) den in
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (name, src, budget, why) ->
           let program = Jsir.Parser.parse_program src in
           (* the [i] loop, the program's second *)
           let id = 1 in
           Alcotest.(check bool) (name ^ ": the loop is proven") true
             (List.exists
                (fun (r : Analysis.Driver.row) -> r.info.Jsir.Loops.id = id)
                (Analysis.Driver.proven (Analysis.Driver.analyze program)));
           let seq_err, seq = run ?budget None program in
           let pe =
             PE.create ~break_even:0 ~mode:(PE.Parallel pool) ~jobs:2 ()
           in
           let par_err, par = run ?budget (Some pe) program in
           Alcotest.(check bool) (name ^ ": the sequential run fails") true
             (seq_err <> "no error");
           Alcotest.(check string) (name ^ ": same uncaught error") seq_err
             par_err;
           Alcotest.check obs_testable (name ^ ": same console and clock") seq
             par;
           Alcotest.check outcome_testable (name ^ ": falls back, named")
             (expected (Some why)) (outcome pe id))
        [ ("a throw in trip 30", throw_src, None, "js exception inside chunk");
          ( "a budget a chunk exhausts", budget_src, Some (fraction 3L 10L),
            "budget exhausted inside chunk" );
          ( "a budget the chunks' sum exhausts", budget_src,
            Some (fraction 3L 4L), "budget would be exhausted" ) ])

let suite =
  [ Alcotest.test_case "12 workloads: par output ≡ seq at -j 2" `Slow
      test_all_workloads_deterministic;
    Alcotest.test_case "proven nests execute via pool (-j 1/2/4)" `Slow
      test_proven_nests_execute;
    Alcotest.test_case "work gate: fluidSim decisions repeat" `Slow
      test_gate_deterministic;
    Alcotest.test_case "work gate: Raytracing, CamanJS never refused" `Slow
      test_gate_admits_big_nests;
    Alcotest.test_case "work gate: MyScript refused every instance" `Slow
      test_gate_refuses_small_nest;
    Alcotest.test_case "-j 2: 2 chunks per parallel instance" `Slow
      test_one_chunk_per_domain;
    Alcotest.test_case "shared no_vars table is never written" `Slow
      test_no_vars_untouched;
    Alcotest.test_case "CLI par-exec run matches plain run" `Slow
      test_cli_par_exec;
    qtest (generated_reductions_deterministic (Lazy.force shared_pool));
    Alcotest.test_case "chunks in place: concurrent = serial" `Quick
      test_concurrent_chunks_match_serial;
    Alcotest.test_case "a break in a proven loop stays sequential" `Quick
      test_break_stays_sequential;
    Alcotest.test_case "probe: exec apps fork only where it pays" `Slow
      test_probe_gates_exec_apps;
    Alcotest.test_case "probe: hand-off to the forks matches seq" `Quick
      test_probe_hand_off;
    Alcotest.test_case "probe: a throw in the first trip" `Quick
      test_probe_throw;
    Alcotest.test_case "shapes: chunks that add, overwrite, delete poison"
      `Quick test_shape_chunks_merge;
    Alcotest.test_case "shapes: racing domains share one transition" `Quick
      test_transition_race;
    Alcotest.test_case "barrier: master writes poison, named" `Quick
      test_barrier_poisons;
    Alcotest.test_case "barrier: A[0] = i overlaps, rolled back" `Quick
      test_barrier_overlap;
    Alcotest.test_case "barrier: a closure over the copied frame" `Quick
      test_barrier_closure;
    Alcotest.test_case "barrier: fresh objects commit, banded" `Quick
      test_barrier_fresh_objects;
    Alcotest.test_case "barrier: an anti dependence stays sequential" `Quick
      test_barrier_anti_dependence;
    Alcotest.test_case "in place: a frame var's last writer wins" `Quick
      test_frame_last_writer;
    Alcotest.test_case
      "in place: an object rewrite of the entry value falls back" `Quick
      test_frame_object_write_back;
    Alcotest.test_case "chunks: a throw or an exhausted budget falls back"
      `Quick test_chunk_failures ]
