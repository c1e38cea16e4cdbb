(* Ordinal classification of loop nests for the paper's Table 3.

   The paper's columns 5-8 are human judgements made "with the help of
   our dependence analysis tool"; we derive them mechanically from the
   same evidence (per-iteration timing variance, DOM-access
   attribution, warning inventory), and EXPERIMENTS.md compares the
   derived labels against the paper's. The thresholds are documented
   heuristics, not magic: they were fixed once against the N-body
   walkthrough and the 12 workloads and are exercised by unit tests. *)

type divergence = No_divergence | Little | Yes

let divergence_to_string = function
  | No_divergence -> "none"
  | Little -> "little"
  | Yes -> "yes"

type difficulty = Very_easy | Easy | Medium | Hard | Very_hard

let difficulty_to_string = function
  | Very_easy -> "very easy"
  | Easy -> "easy"
  | Medium -> "medium"
  | Hard -> "hard"
  | Very_hard -> "very hard"

let difficulty_rank = function
  | Very_easy -> 0
  | Easy -> 1
  | Medium -> 2
  | Hard -> 3
  | Very_hard -> 4

let worse a b = if difficulty_rank a >= difficulty_rank b then a else b

(* --- control-flow divergence ----------------------------------------

   Evidence: the coefficient of variation of per-iteration running
   time across the whole nest, plus two hard signals the paper calls
   out: recursion inside the loop (variable-depth recursion makes
   iterations uneven) and very low trip counts (the loop cannot feed
   SIMD lanes). *)

let divergence_of ~iter_cv ~recursion ~avg_trips =
  if recursion then Yes
  else if avg_trips < 3. then Yes (* too few trips to amortise lanes *)
  else if iter_cv < 0.05 then No_divergence
  else if iter_cv < 0.6 then Little
  else Yes

(* --- dependence-breaking difficulty ---------------------------------

   Evidence: the warning inventory of the nest.
   - no warnings at all: embarrassingly parallel -> very easy;
   - only output dependences on variables written with plain "="
     (loop-private temporaries leaked by [var] hoisting) or scalar
     accumulators: privatization / reduction -> easy;
   - output dependences on object properties but no flow dependences:
     well-defined write pattern -> easy/medium by volume;
   - flow dependences (reads of values produced by other iterations):
     genuine serial chains -> hard, very hard when they dominate. *)

type warning_summary = {
  var_writes : int; (* plain writes to shared variables (privatizable) *)
  var_accums : int; (* reduction-style variable updates *)
  prop_writes : int; (* writes to properties of shared objects *)
  overwrites : int; (* observed iteration-carried WAW *)
  war_writes : int; (* observed iteration-carried WAR (anti) *)
  flow_reads : int; (* observed iteration-carried RAW *)
  induction_writes : int; (* ignored for difficulty *)
  flow_lines : int; (* distinct source lines with flow reads *)
  overwrite_lines : int;
  accum_families : int; (* distinct reduction variables *)
  write_families : int; (* distinct written locations (vars + props) *)
}

let summarize_warnings (ws : (Runtime.warning * int) list) =
  let var_writes = ref 0
  and var_accums = ref 0
  and prop_writes = ref 0
  and overwrites = ref 0
  and war_writes = ref 0
  and flow_reads = ref 0
  and induction_writes = ref 0
  and flow_lines = Hashtbl.create 8
  and overwrite_lines = Hashtbl.create 8
  and accum_families = Hashtbl.create 8
  and write_families = Hashtbl.create 16 in
  List.iter
    (fun ((w : Runtime.warning), count) ->
       match w.kind with
       | Runtime.Var_write name ->
         (* plain reassignments of [var]-hoisted temporaries: reported
            by the tool, but trivially privatizable, so they do not
            count towards the difficulty families *)
         var_writes := !var_writes + count;
         ignore name
       | Runtime.Var_accum name ->
         var_accums := !var_accums + count;
         Hashtbl.replace accum_families name ();
         Hashtbl.replace write_families ("v:" ^ name) ()
       | Runtime.Induction_write _ ->
         induction_writes := !induction_writes + count
       | Runtime.Prop_write prop ->
         prop_writes := !prop_writes + count;
         Hashtbl.replace write_families ("p:" ^ prop) ()
       | Runtime.Prop_overwrite prop ->
         overwrites := !overwrites + count;
         Hashtbl.replace overwrite_lines w.line ();
         Hashtbl.replace write_families ("w:" ^ prop) ()
       | Runtime.Prop_war prop ->
         (* anti dependences break with double-buffering; they count as
            ordering constraints, not as serial chains *)
         war_writes := !war_writes + count;
         Hashtbl.replace write_families ("r>w:" ^ prop) ()
       | Runtime.Prop_read _ ->
         flow_reads := !flow_reads + count;
         Hashtbl.replace flow_lines w.line ())
    ws;
  { var_writes = !var_writes;
    var_accums = !var_accums;
    prop_writes = !prop_writes;
    overwrites = !overwrites;
    war_writes = !war_writes;
    flow_reads = !flow_reads;
    induction_writes = !induction_writes;
    flow_lines = Hashtbl.length flow_lines;
    overwrite_lines = Hashtbl.length overwrite_lines;
    accum_families = Hashtbl.length accum_families;
    write_families = Hashtbl.length write_families }

let dependence_difficulty (s : warning_summary) =
  if s.flow_reads = 0 then begin
    if s.overwrites = 0 && s.var_accums = 0 then begin
      (* No observed carried dependence at all: scatter writes and
         leaked loop-local temporaries only. *)
      if s.write_families <= 6 then Very_easy
      else if s.write_families <= 14 then Easy
      else Medium
    end
    else if
      (* Reductions and last-value chains, no flow back into the loop. *)
      s.accum_families + s.overwrite_lines <= 4
    then Easy
    else Medium
  end
  else if s.flow_lines <= 1 then
    (* One serial chain, e.g. a relaxation sweep: breakable by
       reordering (red-black) or a reduction rewrite. *)
    Easy
  else if s.flow_lines <= 4 then Medium
  else if s.flow_lines <= 9 then Hard
  else Very_hard

(* --- overall parallelization difficulty ------------------------------

   Combines dependence difficulty with browser-technology blockers: a
   nest that talks to the non-concurrent DOM/Canvas every few
   iterations cannot run its iterations concurrently in any current
   browser (the paper rates such nests "very hard" even when their
   dependences are easy, e.g. Harmony). Light DOM traffic (setup or
   per-instance blits) only degrades the rating. *)

let parallelization_difficulty ~(dep : difficulty) ~(dom_per_iteration : float)
    ~(divergence : divergence) =
  let with_dom =
    if dom_per_iteration >= 0.2 then Very_hard
    else if dom_per_iteration > 0.005 then worse dep Medium
    else dep
  in
  match divergence with
  | Yes -> worse with_dom Medium
  | Little | No_divergence -> with_dom
