(* Reference workload for perfbench's speed scaling.

   A child process that answers each line on stdin with the wall
   milliseconds of one fixed slice of work: a small tree-walking
   interpreter with hash-table scopes and boxed floats, the kind of work
   js-ceres's evaluator does. It links none of js-ceres, so a change to
   the program under test cannot change the slice's code. The host's
   speed moves it, and so does whatever shares the host's CPUs with it,
   the program's own idle threads included (see reference.ml). Exits at
   EOF. *)

type expr =
  | Num of float
  | Var of string
  | Add of expr * expr
  | Mul of expr * expr
  | Lt of expr * expr

type stmt = Set of string * expr | While of expr * stmt list | Push of expr

let rec eval env = function
  | Num f -> f
  | Var v -> Option.value ~default:0. (Hashtbl.find_opt env v)
  | Add (a, b) -> eval env a +. eval env b
  | Mul (a, b) -> eval env a *. eval env b
  | Lt (a, b) -> if eval env a < eval env b then 1. else 0.

let rec exec env out = function
  | Set (v, e) -> Hashtbl.replace env v (eval env e)
  | While (c, body) ->
    while eval env c <> 0. do
      List.iter (exec env out) body
    done
  | Push e ->
    out := eval env e :: !out;
    if List.length !out > 200 then out := []

let program =
  [ Set ("i", Num 0.);
    Set ("acc", Num 0.);
    While
      ( Lt (Var "i", Num 25000.),
        [ Set ("acc", Add (Var "acc", Mul (Var "i", Num 0.5)));
          Push (Var "acc");
          Set ("i", Add (Var "i", Num 1.)) ] ) ]

let slice () =
  let t0 = Unix.gettimeofday () in
  List.iter (exec (Hashtbl.create 16) (ref [])) program;
  (Unix.gettimeofday () -. t0) *. 1000.

let () =
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.6f\n%!" (slice ())
    done
  with End_of_file -> ()
