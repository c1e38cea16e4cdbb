(* Static programming-style census (paper Sec. 2.3 / 5.5).

   The survey found developers *prefer* high-level array operators,
   yet the paper's case study observes that "the case study
   applications contain very few loops that use functional operators"
   and "all loops that are compute-intensive are written in an
   imperative style". This walker measures that: it counts syntactic
   loops against calls to the builtin higher-order array operators in
   a program's source. *)

open Jsir.Ast

let functional_operators =
  [ "map"; "forEach"; "filter"; "reduce"; "some"; "every"; "sort" ]

type census = {
  loops : int; (* syntactic loops (for/while/do/for-in) *)
  operator_calls : int; (* call sites of the builtin HOFs *)
  per_operator : (string * int) list; (* descending *)
  function_count : int; (* function declarations + expressions *)
}

let census (p : program) : census =
  let loops = ref 0
  and functions = ref 0
  and ops : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let bump name =
    Hashtbl.replace ops name
      (1 + Option.value ~default:0 (Hashtbl.find_opt ops name))
  in
  let rec stmt (s : stmt) =
    (match s.s with
     | While _ | Do_while _ | For _ | For_in _ -> incr loops
     | Func_decl _ -> incr functions
     | _ -> ());
    iter_stmt ~stmt ~expr s
  and expr (e : expr) =
    (match e.e with
     | Function_expr _ -> incr functions
     | Call ({ e = Member (_, name); _ }, _)
       when List.mem name functional_operators ->
       bump name
     | _ -> ());
    iter_expr ~stmt ~expr e
  in
  List.iter stmt p.stmts;
  let per_operator =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) ops []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  { loops = !loops;
    operator_calls = List.fold_left (fun a (_, n) -> a + n) 0 per_operator;
    per_operator;
    function_count = !functions }
