(* Per-loop verdict of the static parallelizability analysis.

   The lattice runs Parallel < Reduction < Needs_runtime_check <
   Sequential: each step weakens the static claim. [Parallel] and
   [Reduction] are *proofs* (valid for every execution, so the dynamic
   analyzer may never observe a carried flow triple on such a loop);
   [Needs_runtime_check] means the analysis was inconclusive, so the
   loop runs sequentially; [Sequential] is a demonstrated loop-carried
   dependence or I/O.

   Proof verdicts carry two refinements. [war_roots] lists roots whose
   only cross-iteration conflicts are anti (a later iteration
   overwrites what an earlier one read). Chunks run in place, where
   one could read its neighbour's write, so the parallel executor
   keeps such a nest sequential ("anti dependence on <roots>"); the
   dynamic stage will observe WAR triples on them, so the soundness
   cross-check must know they are declared. Each accumulator carries
   its operation and whether the reduction is provably
   order-insensitive (min/max/bitwise always; + when every operand is
   an exact integer of bounded magnitude), which lets the parallel
   executor combine partials without an order-restoring pass.

   Blocking verdicts carry *facts*: which pass gave up, on what, and
   where. Facts are deduplicated and stably ordered by
   (pass rank, text, line) so report JSON cannot churn when the
   analysis visits loops or expressions in a different order. *)

type acc_op = Sum | Prod | Min | Max | Band | Bor | Bxor | Other

type acc = {
  aname : string;
  op : acc_op;
  order_insensitive : bool;
}

type fact = { pass : string; why : string; line : int }

type t =
  | Parallel of { war_roots : string list }
  | Reduction of { accs : acc list; war_roots : string list }
  | Needs_runtime_check of fact list
  | Sequential of fact list

let parallel = Parallel { war_roots = [] }

let op_name = function
  | Sum -> "sum"
  | Prod -> "product"
  | Min -> "min"
  | Max -> "max"
  | Band -> "bit-and"
  | Bor -> "bit-or"
  | Bxor -> "bit-xor"
  | Other -> "other"

(* The stage order of the analyzer: a fact from an earlier pass ranks
   first — it blocked everything downstream of it. *)
let pass_rank = function
  | "scope" -> 0
  | "effects" -> 1
  | "range" -> 2
  | "subscript" -> 3
  | "commute" -> 4
  | "loopdep" -> 5
  | _ -> 6

let fact_order (a : fact) (b : fact) =
  let c = compare (pass_rank a.pass) (pass_rank b.pass) in
  if c <> 0 then c
  else
    let c = String.compare a.why b.why in
    if c <> 0 then c else compare a.line b.line

let normalize_facts (l : fact list) : fact list =
  List.sort_uniq
    (fun a b ->
       let c = fact_order a b in
       if c <> 0 then c else compare a b)
    l

let kind_name = function
  | Parallel _ -> "parallel"
  | Reduction _ -> "reduction"
  | Needs_runtime_check _ -> "needs-runtime-check"
  | Sequential _ -> "sequential"

let is_proven = function
  | Parallel _ | Reduction _ -> true
  | Needs_runtime_check _ | Sequential _ -> false

let acc_names = function
  | Reduction { accs; _ } -> List.map (fun a -> a.aname) accs
  | _ -> []

let war_roots = function
  | Parallel { war_roots } | Reduction { war_roots; _ } -> war_roots
  | _ -> []

let facts = function
  | Needs_runtime_check fs | Sequential fs -> normalize_facts fs
  | Parallel _ | Reduction _ -> []

let acc_to_string (a : acc) =
  Printf.sprintf "%s:%s%s" a.aname (op_name a.op)
    (if a.order_insensitive then "+oi" else "")

let war_suffix = function
  | [] -> ""
  | roots -> Printf.sprintf " (war: %s)" (String.concat ", " roots)

let facts_to_string fs =
  String.concat "; "
    (List.map
       (fun (f : fact) ->
          Printf.sprintf "%s [%s] (line %d)" f.why f.pass f.line)
       (normalize_facts fs))

let to_string = function
  | Parallel { war_roots } -> "parallel" ^ war_suffix war_roots
  | Reduction { accs; war_roots } ->
    Printf.sprintf "reduction(%s)%s"
      (String.concat ", " (List.map acc_to_string accs))
      (war_suffix war_roots)
  | Needs_runtime_check fs ->
    Printf.sprintf "needs-runtime-check: %s" (facts_to_string fs)
  | Sequential fs -> Printf.sprintf "sequential: %s" (facts_to_string fs)
