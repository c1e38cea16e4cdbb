(* Parallel execution of statically-proven loop nests.

   The missing piece of the paper's Amdahl argument: PR 3 *proves*
   loops [Parallel]/[Reduction]; this module *runs* them on the
   work-stealing pool. It installs an [on_loop] hook into the
   interpreter; when a [For] loop whose id the analyzer proved safe is
   entered, the iteration space is split into chunks, each chunk runs
   on a share-nothing {!Interp.Fork} of the loop-entry state, and the
   per-fork heap diffs are merged back in chunk order — which
   reproduces the sequential last-writer-wins result for scatter
   writes and the sequential push order for appends. Recognized
   reductions are executed per operator: order-insensitive
   accumulators (min/max/bitwise, and [+] over analysis-proven exact
   integers) seed each fork with the operator identity and combine the
   partials exactly once with the interpreter's own operator semantics
   ([entry ⊕ partials], ascending chunk order); an order-*sensitive*
   float [+] accumulator with a single accumulation site is run through
   a per-iteration journal — the fork resets the accumulator to [-0.0]
   around each iteration, so the value read back afterwards is exactly
   that iteration's contribution ([fl (-0. +. v) = v] bitwise), and
   replaying the journal in global iteration order reproduces the
   sequential fold bit-for-bit. Products and unrecognized operators
   have no deterministic parallel schedule and fall back.

   Anything the merge cannot prove deterministic *poisons* the nest:
   the forks are discarded, the untouched master re-runs the loop
   sequentially, and the fallback is counted. The observable state
   (console, heap, virtual clock busy ticks) is therefore byte-for-byte
   identical to sequential execution by construction. The fallback
   ladder is: static proof -> fork/merge parallel execution; anything
   else, [Needs_runtime_check] nests included, or any poison ->
   sequential.

   Forking is not free: every chunk clones the whole heap and diffs it
   back. Each instance therefore gets one chunk per pool participant,
   and a deterministic work gate keeps small instances off the pool:
   after a nest's first parallel instance, a later one forks only when
   its predicted busy vticks (the nest's vticks per trip so far, times
   this instance's trips) reach [break_even]. A refused instance
   returns to the plain interpreter, untimed. *)

open Interp
open Interp.Value

module J = Ceres_util.Json
module Ast = Jsir.Ast

type kind = Kparallel | Kreduction of Analysis.Verdict.acc list

type mode = Measure | Parallel of Pool.t

type nest_stats = {
  mutable instances : int; (* parallel instances merged *)
  mutable seq_instances : int; (* measured sequential instances *)
  mutable iterations : int;
  mutable chunks : int;
  mutable par_ms : float; (* wall time inside parallel instances *)
  mutable seq_ms : float; (* wall time inside measured sequential runs *)
  mutable fork_ms : float;
  mutable diff_ms : float; (* check + diff, on the chunks' domains *)
  mutable merge_ms : float; (* validate + apply, on the caller *)
  mutable fallbacks : int;
  mutable refused : int; (* instances the work gate ran sequentially *)
  mutable busy_ticks : int64; (* vticks attributed to the nest *)
}

(* ------------------------------------------------------------------ *)
(* Eligibility: affine headers, side-effect-free bound probing        *)
(* ------------------------------------------------------------------ *)

type header = { iv : string; bound : Ast.expr; inclusive : bool; step : float }

let header_of (lv : loop_visit) : header option =
  match lv.lv_cond, lv.lv_update with
  | ( Some { e = Binop ((Lt | Le) as cmp, { e = Ident iv; _ }, bound); _ },
      Some u ) ->
    let step =
      match u.e with
      | Update (Incr, _, Tgt_ident n) when String.equal n iv -> Some 1.
      | Assign (Tgt_ident n, Some Add, { e = Number c; _ })
        when String.equal n iv && c > 0. && Float.is_integer c -> Some c
      | Assign
          ( Tgt_ident n, None,
            { e = Binop (Add, { e = Ident n'; _ }, { e = Number c; _ }); _ } )
        when String.equal n iv && String.equal n' iv && c > 0.
             && Float.is_integer c -> Some c
      | Assign
          ( Tgt_ident n, None,
            { e = Binop (Add, { e = Number c; _ }, { e = Ident n'; _ }); _ } )
        when String.equal n iv && String.equal n' iv && c > 0.
             && Float.is_integer c -> Some c
      | _ -> None
    in
    Option.map (fun step -> { iv; bound; inclusive = cmp = Ast.Le; step }) step
  | _ -> None

(* Side-effect-free evaluation of loop bounds: literals, resolved
   variables, plain property/index reads and numeric arithmetic. [None]
   = not provably pure (could run user code, e.g. [toString]); the
   nest then falls back to sequential execution. *)
let rec pure_eval (st : state) scope (e : Ast.expr) : value option =
  match e.e with
  | Number f -> Some (Num f)
  | Ast.String s -> Some (Str s)
  | Ast.Bool b -> Some (Bool b)
  | Ast.Null -> Some Null
  | Ast.Undefined -> Some Undefined
  | Ident name -> (
    match var_home scope name with
    | Some (s, slot) -> Some (scope_read s slot name)
    | None ->
      if has_prop_obj st.global_obj name then
        Some (get_prop_obj st.global_obj name)
      else None)
  | Member (b, field) -> (
    match pure_eval st scope b with
    | Some (Obj o) -> Some (get_prop_obj o field)
    | _ -> None)
  | Index (b, ix) -> (
    match pure_eval st scope b, pure_eval st scope ix with
    | Some (Obj o), Some (Num f) when Float.is_integer f && f >= 0. ->
      Some (get_prop_obj o (string_of_int (int_of_float f)))
    | _ -> None)
  | Binop (op, a, b) -> (
    match pure_eval st scope a, pure_eval st scope b with
    | Some (Num x), Some (Num y) -> (
      match op with
      | Add -> Some (Num (x +. y))
      | Sub -> Some (Num (x -. y))
      | Mul -> Some (Num (x *. y))
      | Div -> Some (Num (x /. y))
      | Mod -> Some (Num (Float.rem x y))
      | _ -> None)
    | _ -> None)
  | _ -> None

(* A body whose completion could be anything other than "iteration
   finished" (return, labeled break/continue, a break targeting our
   loop) cannot run inside a chunk: such completions must propagate
   through the enclosing [For], so the nest stays sequential. Throws
   are fine — they surface as [Js_throw] and poison dynamically. *)
let stmt_abrupt ~bd (s : Ast.stmt) : bool =
  let rec go ~bd (s : Ast.stmt) =
    match s.s with
    | Return _ | Break (Some _) | Continue (Some _) -> raise_notrace Exit
    | Break None -> if bd = 0 then raise_notrace Exit
    | While _ | Do_while _ | For _ | For_in _ | Switch _ ->
      Ast.iter_stmt ~stmt:(go ~bd:(bd + 1)) ~expr:ignore s
    | Func_decl _ -> ()
    | _ -> Ast.iter_stmt ~stmt:(go ~bd) ~expr:ignore s
  in
  match go ~bd s with () -> false | exception Exit -> true

let trip_count st scope (h : header) : (float * int) option =
  let lo =
    match var_home scope h.iv with
    | Some (s, slot) -> (
      match scope_read s slot h.iv with Num f -> Some f | _ -> None)
    | None -> None
  in
  let bound =
    match pure_eval st scope h.bound with Some (Num f) -> Some f | _ -> None
  in
  match lo, bound with
  | Some lo, Some b when Float.is_integer lo && Float.is_integer b ->
    let span = b -. lo in
    let trips =
      if h.inclusive then
        if span < 0. then 0 else int_of_float (Float.floor (span /. h.step)) + 1
      else if span <= 0. then 0
      else int_of_float (Float.ceil (span /. h.step))
    in
    if trips >= 0 && trips <= 100_000_000 then Some (lo, trips) else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Accumulator execution plans                                        *)
(* ------------------------------------------------------------------ *)

(* How one proven accumulator is executed across chunks. [Afold id]
   seeds each fork with the operator identity [id] and folds the
   per-chunk partials into the entry value with the operator itself —
   valid only when the analysis proved the fold order-insensitive.
   [Ajournal] records the per-iteration contribution and replays the
   journal in global iteration order — valid for any float [+] fold
   with a single accumulation site, no commutativity needed. *)
type acc_plan = Afold of float | Ajournal

type acc_task = {
  a_name : string;
  a_op : Analysis.Verdict.acc_op;
  a_plan : acc_plan;
}

(* Journal memory is 8 bytes per iteration per accumulator; cap it so
   a huge trip count cannot balloon the forks. *)
let journal_cap = 1 lsl 22

(* Count syntactic accumulation sites of [acc] in a loop body. The
   journal path needs *exactly one*, executing at most once per
   iteration: only then does resetting the accumulator to [-0.0]
   before the body capture the iteration's single contribution
   ([fl (-0. +. v) = v] bitwise for every [v], and a skipped site
   journals [-0.0], which replays as a no-op). Sites under a nested
   loop or function body can fire repeatedly and count as two, which
   disqualifies the plan. *)
let accum_sites acc (body : Ast.stmt) : int =
  let n = ref 0 in
  let rec stmt ~deep (s : Ast.stmt) =
    match s.s with
    | For (_, _, c, u, _) ->
      (* the init runs once; cond, update and body repeat *)
      let repeats = Option.to_list c @ Option.to_list u in
      Ast.iter_stmt ~stmt:(stmt ~deep:true)
        ~expr:(fun e -> expr ~deep:(deep || List.memq e repeats) e)
        s
    | For_in _ -> Ast.iter_stmt ~stmt:(stmt ~deep:true) ~expr:(expr ~deep) s
    | While _ | Do_while _ | Func_decl _ ->
      Ast.iter_stmt ~stmt:(stmt ~deep:true) ~expr:(expr ~deep:true) s
    | _ -> Ast.iter_stmt ~stmt:(stmt ~deep) ~expr:(expr ~deep) s
  and expr ~deep (e : Ast.expr) =
    match e.e with
    | Assign (Tgt_ident x, _, _) | Update (_, _, Tgt_ident x)
      when String.equal x acc ->
      n := !n + if deep then 2 else 1;
      Ast.iter_expr ~stmt:(stmt ~deep) ~expr:(expr ~deep) e
    | Function_expr _ ->
      Ast.iter_expr ~stmt:(stmt ~deep:true) ~expr:(expr ~deep) e
    | _ -> Ast.iter_expr ~stmt:(stmt ~deep) ~expr:(expr ~deep) e
  in
  stmt ~deep:false body;
  !n

(* Pick the execution plan for one proven accumulator; [None] = no
   deterministic parallel schedule exists (products, unrecognized
   operators, multi-site order-sensitive sums) and the nest falls
   back to sequential execution. A journal plan is further bounded by
   [journal_cap] trips, checked per instance. *)
let acc_task_of (lv : loop_visit) (a : Analysis.Verdict.acc) :
    acc_task option =
  let mk plan = Some { a_name = a.aname; a_op = a.op; a_plan = plan } in
  match a.Analysis.Verdict.op with
  | Analysis.Verdict.Min -> mk (Afold Float.infinity)
  | Analysis.Verdict.Max -> mk (Afold Float.neg_infinity)
  | Analysis.Verdict.Band -> mk (Afold (-1.)) (* ToInt32 all-ones *)
  | Analysis.Verdict.Bor | Analysis.Verdict.Bxor -> mk (Afold 0.)
  | Analysis.Verdict.Sum when a.Analysis.Verdict.order_insensitive ->
    mk (Afold 0.)
  | Analysis.Verdict.Sum ->
    if accum_sites a.aname lv.lv_body = 1 then mk Ajournal else None
  | Analysis.Verdict.Prod | Analysis.Verdict.Other -> None

(* Fold partials with the interpreter's own operator semantics so the
   combined value is the one sequential execution would compute:
   [Float.min]/[Float.max] are exactly the [Math.min]/[Math.max]
   builtins (NaN-propagating, [-0. < +0.]), and the bitwise ops mirror
   {!Interp.Eval}'s ToInt32 coercion. *)
let combine_of st (op : Analysis.Verdict.acc_op) : float -> float -> float =
  let i32 f a b = Int32.to_float (f (to_int32 st (Num a)) (to_int32 st (Num b))) in
  match op with
  | Analysis.Verdict.Min -> Float.min
  | Analysis.Verdict.Max -> Float.max
  | Analysis.Verdict.Band -> i32 Int32.logand
  | Analysis.Verdict.Bor -> i32 Int32.logor
  | Analysis.Verdict.Bxor -> i32 Int32.logxor
  | Analysis.Verdict.Sum | Analysis.Verdict.Prod | Analysis.Verdict.Other ->
    ( +. )

(* ------------------------------------------------------------------ *)
(* Per-session state: loop shapes, nest counters, the work gate       *)
(* ------------------------------------------------------------------ *)

(* What a planned loop's first entry learns about it, kept for every
   later entry: the affine header and one execution plan per proven
   accumulator ([tasks = None] when some accumulator has no
   deterministic parallel schedule). *)
type shape = { h : header; tasks : acc_task list option }

type t = {
  mode : mode;
  jobs : int;
  plan : (int, kind) Hashtbl.t;
  labels : (int, string) Hashtbl.t;
  shapes : (int, shape option) Hashtbl.t; (* [None] = never eligible *)
  nests : (int, nest_stats) Hashtbl.t;
  mutable oid_floor : int;
  mutable sid_floor : int;
  mutable total_fallbacks : int;
}

let oid_stride = 1 lsl 28
let sid_stride = 1 lsl 24

let create ~mode ~jobs () =
  { mode; jobs = max 1 jobs; plan = Hashtbl.create 16;
    labels = Hashtbl.create 16; shapes = Hashtbl.create 16;
    nests = Hashtbl.create 16; oid_floor = 0; sid_floor = 0;
    total_fallbacks = 0 }

let nest_stats t id =
  match Hashtbl.find_opt t.nests id with
  | Some s -> s
  | None ->
    let s =
      { instances = 0; seq_instances = 0; iterations = 0; chunks = 0;
        par_ms = 0.; seq_ms = 0.; fork_ms = 0.; diff_ms = 0.; merge_ms = 0.;
        fallbacks = 0; refused = 0; busy_ticks = 0L }
    in
    Hashtbl.add t.nests id s;
    s

(* The header and body scans run once per loop id, on its first entry;
   loop ids are only unique within one program, hence one table per
   instance of [t]. *)
let shape t kind (lv : loop_visit) : shape option =
  match Hashtbl.find_opt t.shapes lv.lv_id with
  | Some sh -> sh
  | None ->
    let sh =
      match header_of lv with
      | Some h when not (stmt_abrupt ~bd:1 lv.lv_body) ->
        let vaccs = match kind with Kparallel -> [] | Kreduction accs -> accs in
        let tasks = List.filter_map (acc_task_of lv) vaccs in
        Some
          { h;
            tasks =
              (if List.length tasks = List.length vaccs then Some tasks
               else None) }
      | _ -> None
    in
    Hashtbl.add t.shapes lv.lv_id sh;
    sh

(* An instance splits into at least two chunks of two trips. *)
let min_trips = 4

(* Break-even of the work gate, in busy vticks per instance (DESIGN.md
   §11). A 2-chunk instance of [w] vticks costs about [w * c / 2 + o]
   wall time against [w * c] sequentially, where [c] is the wall cost
   of a vtick and [o] the instance's fixed fork + diff + merge cost;
   it pays once [w > 2 * o / c]. *)
let break_even = 100_000

(* The first instance forks to measure the nest's busy vticks per
   trip; being deterministic, they make the gate decide the same way
   on every run. *)
let admits t id trips =
  match Hashtbl.find_opt t.nests id with
  | Some s when s.iterations > 0 ->
    Int64.to_int s.busy_ticks * trips / s.iterations >= break_even
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Chunk execution                                                    *)
(* ------------------------------------------------------------------ *)

(* A chunk checks and diffs its own fork on the domain that ran it:
   the master stays read-only until every chunk has finished, so the
   diffs can run concurrently. *)
type chunk_result = {
  c_fork : Fork.t;
  c_diff : (Fork.diff, string) result; (* [Error] = the chunk's poison *)
  c_partials : (string * float) list; (* folded acc -> chunk partial *)
  c_journals : (string * float array) list; (* journaled acc -> per-trip *)
  c_fork_ms : float;
  c_diff_ms : float;
}

exception Chunk_poison of string

let write_home scope name v =
  match var_home scope name with
  | Some (s, slot) -> scope_write s slot name v
  | None -> raise (Chunk_poison (name ^ " has no home"))

let read_home scope name =
  match var_home scope name with
  | Some (s, slot) -> scope_read s slot name
  | None -> raise (Chunk_poison (name ^ " has no home"))

let run_chunk master ~scope ~this ~(lv : loop_visit) ~(h : header) ~accs
    ~skip ~next_oid ~next_sid ~start_iv ~trips ~is_last : chunk_result =
  let t0 = Unix.gettimeofday () in
  let fork = Fork.fork master ~scope ~this ~next_oid ~next_sid in
  let fork_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let cst = fork.Fork.clone in
  let cscope = Fork.scope_in fork scope in
  let cthis = Fork.value_in fork this in
  let folds =
    List.filter_map
      (fun a -> match a.a_plan with Afold id0 -> Some (a, id0) | Ajournal -> None)
      accs
  in
  let journals =
    List.filter_map
      (fun a ->
         match a.a_plan with
         | Ajournal -> Some (a.a_name, Array.make trips (-0.))
         | Afold _ -> None)
      accs
  in
  let fail why =
    { c_fork = fork; c_diff = Error why; c_partials = []; c_journals = [];
      c_fork_ms = fork_ms; c_diff_ms = 0. }
  in
  try
    write_home cscope h.iv (Num start_iv);
    List.iter (fun (a, id0) -> write_home cscope a.a_name (Num id0)) folds;
    for it = 1 to trips do
      (* journaled accumulators restart from -0.0 every iteration, so
         the post-body read below is exactly this iteration's
         contribution ([fl (-0. +. v) = v] bitwise) *)
      List.iter (fun (n, _) -> write_home cscope n (Num (-0.))) journals;
      if not (lv.lv_test cst cscope cthis) then
        raise (Chunk_poison "loop bound drifted");
      (match lv.lv_run cst cscope cthis with
       | Cnormal | Ccontinue None -> ()
       | _ -> raise (Chunk_poison "abrupt completion inside chunk"));
      ignore (lv.lv_step cst cscope cthis);
      List.iter
        (fun (n, arr) ->
           match read_home cscope n with
           | Num v -> arr.(it - 1) <- v
           | _ -> raise (Chunk_poison "non-numeric reduction journal"))
        journals
    done;
    if is_last && lv.lv_test cst cscope cthis then
      raise (Chunk_poison "loop bound drifted at exit");
    let partials =
      List.map
        (fun ((a : acc_task), _) ->
           match read_home cscope a.a_name with
           (* an order-insensitive [+] partial must be an exact
              integer, as the static proof promised; other operators
              are order-insensitive over any numbers *)
           | Num p
             when a.a_op <> Analysis.Verdict.Sum || Float.is_integer p ->
             (a.a_name, p)
           | _ -> raise (Chunk_poison "non-integer reduction partial"))
        folds
    in
    let t1 = Unix.gettimeofday () in
    match Fork.check_clean fork with
    | Error why -> fail why
    | Ok () -> (
      let d = Fork.diff ~skip fork in
      match d.Fork.poison with
      | Some why -> fail why
      | None ->
        { c_fork = fork; c_diff = Ok d; c_partials = partials;
          c_journals = journals; c_fork_ms = fork_ms;
          c_diff_ms = (Unix.gettimeofday () -. t1) *. 1000. })
  with
  | Chunk_poison why -> fail why
  | Fork.Par_abort why -> fail why
  | Js_throw _ -> fail "js exception inside chunk"
  | Budget_exhausted -> fail "budget exhausted inside chunk"
  | Stack_overflow -> fail "stack overflow inside chunk"

(* ------------------------------------------------------------------ *)
(* The parallel instance: fork, run, validate, merge-or-poison        *)
(* ------------------------------------------------------------------ *)

let run_parallel t pool st scope this (lv : loop_visit) (h : header) tasks lo
    trips : bool =
  let journaled =
    List.exists (fun a -> match a.a_plan with Ajournal -> true | Afold _ -> false)
      tasks
  in
  (* every accumulator needs a resolvable numeric entry value — an
     exact integer for order-insensitive [+], whose reordered total is
     only sequential-identical over exact integer arithmetic; any
     number for the other plans *)
  let entries =
    if journaled && trips > journal_cap then []
    else
      List.filter_map
        (fun task ->
           if String.equal task.a_name h.iv then None
           else
             match var_home scope task.a_name with
             | Some (s, slot) -> (
               match scope_read s slot task.a_name with
               | Num e
                 when (match task.a_plan with
                       | Afold _ when task.a_op = Analysis.Verdict.Sum ->
                         Float.is_integer e
                       | _ -> true) ->
                 Some (task, { Fork.owner = s; slot; name = task.a_name }, e)
               | _ -> None)
             | None -> None)
        tasks
  in
  if List.length entries <> List.length tasks then false
  else begin
    let wall0 = Unix.gettimeofday () in
    (* one chunk per participant: every chunk pays a whole-heap fork
       and diff, so more chunks than domains buy no balance; two at
       [-j 1], so the fork/merge path still runs *)
    let nchunks = min (max 2 t.jobs) (trips / 2) in
    let base = trips / nchunks and rem = trips mod nchunks in
    let count k = base + if k < rem then 1 else 0 in
    let start_index k = (k * base) + min k rem in
    let base_oid = max st.next_oid t.oid_floor in
    let base_sid = max st.next_sid t.sid_floor in
    let results : chunk_result option array = Array.make nchunks None in
    let skip = List.map (fun (_, home, _) -> home) entries in
    let run k =
      run_chunk st ~scope ~this ~lv ~h ~accs:tasks ~skip
        ~next_oid:(base_oid + ((k + 1) * oid_stride))
        ~next_sid:(base_sid + ((k + 1) * sid_stride))
        ~start_iv:(lo +. (float_of_int (start_index k) *. h.step))
        ~trips:(count k) ~is_last:(k = nchunks - 1)
    in
    (* chunk results land by index; the merge below walks them in
       ascending chunk order, mirroring the sequential fold *)
    Pool.parallel_for pool ~lo:0 ~hi:nchunks ~chunk:1 (fun k ->
        results.(k) <- Some (run k));
    (* the id bands above are burnt either way *)
    t.oid_floor <- base_oid + ((nchunks + 1) * oid_stride);
    t.sid_floor <- base_sid + ((nchunks + 1) * sid_stride);
    st.next_oid <- max st.next_oid t.oid_floor;
    st.next_sid <- max st.next_sid t.sid_floor;
    let merge0 = Unix.gettimeofday () in
    (* phase A: collect the chunks' diffs in chunk order and validate
       everything before touching the master *)
    let poisoned = ref None in
    let taint why = if !poisoned = None then poisoned := Some why in
    let chunks = Array.to_list (Array.map Option.to_list results) in
    let chunks = List.concat chunks in
    if List.length chunks <> nchunks then taint "chunk skipped";
    let diffs =
      List.filter_map
        (fun r ->
           match r.c_diff with
           | Ok d -> Some d
           | Error why ->
             taint why;
             None)
        chunks
    in
    if !poisoned = None && not (Fork.growths_admissible diffs) then
      taint "conflicting array growth";
    let busy_total =
      List.fold_left
        (fun acc r -> Int64.add acc (Fork.busy_delta r.c_fork))
        0L chunks
    in
    if
      !poisoned = None
      && Int64.compare
           (Int64.add (Ceres_util.Vclock.busy st.clock) busy_total)
           (Int64.of_int st.budget)
         > 0
    then taint "budget would be exhausted";
    (* reduction totals, ascending chunk order: folded accumulators
       combine [entry ⊕ partials] with the operator itself;
       journaled accumulators replay every iteration's contribution
       in global order, reproducing the sequential float fold *)
    let totals =
      List.map
        (fun (task, home, entry) ->
           let total =
             match task.a_plan with
             | Afold id0 ->
               let combine = combine_of st task.a_op in
               List.fold_left
                 (fun acc r ->
                    let p =
                      match List.assoc_opt task.a_name r.c_partials with
                      | Some p -> p
                      | None ->
                        taint "missing reduction partial";
                        id0
                    in
                    let acc = combine acc p in
                    if
                      task.a_op = Analysis.Verdict.Sum
                      && (not (Float.is_integer acc)
                          || Float.abs acc > 2. ** 53.)
                    then taint "reduction overflow";
                    acc)
                 entry chunks
             | Ajournal ->
               List.fold_left
                 (fun acc r ->
                    match List.assoc_opt task.a_name r.c_journals with
                    | Some arr -> Array.fold_left ( +. ) acc arr
                    | None ->
                      taint "missing reduction journal";
                      acc)
                 entry chunks
           in
           (home, total))
        entries
    in
    match !poisoned with
    | Some _ ->
      t.total_fallbacks <- t.total_fallbacks + 1;
      (nest_stats t lv.lv_id).fallbacks <-
        (nest_stats t lv.lv_id).fallbacks + 1;
      false
    | None ->
      (* phase B: commit in chunk order *)
      List.iter Fork.apply_diff diffs;
      List.iter
        (fun (home, sum) ->
           scope_write home.Fork.owner home.Fork.slot home.Fork.name
             (Num sum))
        totals;
      Ceres_util.Vclock.advance st.clock (Int64.to_int busy_total);
      let now = Unix.gettimeofday () in
      let s = nest_stats t lv.lv_id in
      s.instances <- s.instances + 1;
      s.iterations <- s.iterations + trips;
      s.chunks <- s.chunks + nchunks;
      s.par_ms <- s.par_ms +. ((now -. wall0) *. 1000.);
      s.fork_ms <-
        s.fork_ms +. List.fold_left (fun a r -> a +. r.c_fork_ms) 0. chunks;
      s.diff_ms <-
        s.diff_ms +. List.fold_left (fun a r -> a +. r.c_diff_ms) 0. chunks;
      s.merge_ms <- s.merge_ms +. ((now -. merge0) *. 1000.);
      s.busy_ticks <- Int64.add s.busy_ticks busy_total;
      true
  end

(* Sequential but *timed* execution of an eligible nest: gives the
   per-nest sequential baseline the speedup table divides by. Only
   loops whose body the abrupt-scan cleared reach this point, so the
   completion is always "iteration finished" or a clean bound exit. *)
let run_measured t st scope this (lv : loop_visit) trips : bool =
  let t0 = Unix.gettimeofday () in
  let b0 = Ceres_util.Vclock.busy st.clock in
  let exception Loop_done in
  (try
     while lv.lv_test st scope this do
       (match lv.lv_run st scope this with
        | Cnormal | Ccontinue None -> ()
        | Cbreak None -> raise Loop_done
        | _ -> failwith "par_exec: abrupt completion in measured loop");
       ignore (lv.lv_step st scope this)
     done
   with Loop_done -> ());
  let s = nest_stats t lv.lv_id in
  s.seq_instances <- s.seq_instances + 1;
  s.iterations <- s.iterations + trips;
  s.seq_ms <- s.seq_ms +. ((Unix.gettimeofday () -. t0) *. 1000.);
  s.busy_ticks <-
    Int64.add s.busy_ticks
      (Int64.sub (Ceres_util.Vclock.busy st.clock) b0);
  true

(* ------------------------------------------------------------------ *)
(* The hook                                                           *)
(* ------------------------------------------------------------------ *)

let hook t st scope this (lv : loop_visit) : bool =
  match Hashtbl.find_opt t.plan lv.lv_id with
  | None -> false
  | Some kind -> (
    match shape t kind lv with
    | None -> false
    | Some { h; tasks } -> (
      match trip_count st scope h with
      | None -> false
      | Some (_, trips) when trips < min_trips -> false
      | Some (lo, trips) -> (
        match t.mode, tasks with
        | Measure, _ -> run_measured t st scope this lv trips
        | Parallel _, None -> false
        | Parallel pool, Some tasks ->
          if admits t lv.lv_id trips then
            run_parallel t pool st scope this lv h tasks lo trips
          else begin
            let s = nest_stats t lv.lv_id in
            s.refused <- s.refused + 1;
            false
          end)))

let install t (st : state) ~(report : Analysis.Driver.report) =
  List.iter
    (fun (row : Analysis.Driver.row) ->
       let id = row.Analysis.Driver.info.Jsir.Loops.id in
       (match row.Analysis.Driver.verdict with
        | Analysis.Verdict.Parallel _ -> Hashtbl.replace t.plan id Kparallel
        | Analysis.Verdict.Reduction { accs; _ } ->
          Hashtbl.replace t.plan id (Kreduction accs)
        | _ -> ());
       Hashtbl.replace t.labels id (Analysis.Driver.row_header row))
    (Analysis.Driver.proven report);
  st.on_loop <- Some (hook t)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                          *)
(* ------------------------------------------------------------------ *)

let nests_run t =
  Hashtbl.fold (fun _ s n -> if s.instances > 0 then n + 1 else n) t.nests 0

let nest_rows t =
  let rows =
    Hashtbl.fold
      (fun id s acc ->
         let label =
           Option.value ~default:(Printf.sprintf "loop %d" id)
             (Hashtbl.find_opt t.labels id)
         in
         (id, label, s) :: acc)
      t.nests []
  in
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) rows

let seq_equivalent_ms ~seq ~par =
  if seq.iterations = 0 then 0.
  else seq.seq_ms *. float_of_int par.iterations /. float_of_int seq.iterations

let json_of_nest (id, label, s) =
  J.Obj
    [ ("id", J.Int id);
      ("label", J.Str label);
      ("instances", J.Int s.instances);
      ("seq_instances", J.Int s.seq_instances);
      ("iterations", J.Int s.iterations);
      ("chunks", J.Int s.chunks);
      ("par_ms", J.Fixed (3, s.par_ms));
      ("seq_ms", J.Fixed (3, s.seq_ms));
      ("fork_ms", J.Fixed (3, s.fork_ms));
      ("diff_ms", J.Fixed (3, s.diff_ms));
      ("merge_ms", J.Fixed (3, s.merge_ms));
      ("fallbacks", J.Int s.fallbacks);
      ("refused", J.Int s.refused);
      ("break_even", J.Int break_even);
      ("busy_ticks", J.Int (Int64.to_int s.busy_ticks)) ]

let stats_json ?pool t =
  let base =
    [ ("jobs", J.Int t.jobs);
      ("nests", J.Int (nests_run t));
      ("fallbacks", J.Int t.total_fallbacks);
      ("loops", J.List (List.map json_of_nest (nest_rows t))) ]
  in
  let fields =
    match pool with
    | None -> base
    | Some p -> base @ [ ("pool", Telemetry.json_of_stats (Pool.stats p)) ]
  in
  J.to_string (J.Obj fields)
