(* Shared helpers for the test suites. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Build a fresh interpreter with builtins (and optionally a DOM). *)
let fresh_state ?(dom = false) () =
  let st = Interp.Eval.create () in
  Interp.Builtins.install st;
  let doc = if dom then Some (Dom.Document.install st) else None in
  (st, doc)

(* Run a MiniJS source string; return the state. *)
let run ?(dom = false) src =
  let st, doc = fresh_state ~dom () in
  Interp.Eval.run_program st (Jsir.Parser.parse_program src);
  (st, doc)

(* Run and return console output (oldest first). *)
let run_console ?dom src =
  let st, _ = run ?dom src in
  List.rev st.Interp.Value.console

(* Evaluate a single expression in a fresh state. *)
let eval_expr src =
  let st, _ = fresh_state () in
  Interp.Eval.eval_in_global st (Jsir.Parser.parse_expression src)

(* Evaluate an expression after running a prelude. *)
let eval_in ?dom prelude src =
  let st, _ = run ?dom prelude in
  Interp.Eval.eval_in_global st (Jsir.Parser.parse_expression src)

let value_testable : Interp.Value.value Alcotest.testable =
  let pp ppf (v : Interp.Value.value) =
    match v with
    | Num f -> Format.fprintf ppf "Num %g" f
    | Str s -> Format.fprintf ppf "Str %S" s
    | Bool b -> Format.fprintf ppf "Bool %b" b
    | Undefined -> Format.fprintf ppf "Undefined"
    | Null -> Format.fprintf ppf "Null"
    | Obj o -> Format.fprintf ppf "Obj #%d" o.oid
  in
  let eq (a : Interp.Value.value) (b : Interp.Value.value) =
    match (a, b) with
    | Num x, Num y -> x = y || (Float.is_nan x && Float.is_nan y)
    | _ -> Interp.Value.strict_eq a b
  in
  Alcotest.testable pp eq

let num f : Interp.Value.value = Num f
let str s : Interp.Value.value = Str s
let boolean b : Interp.Value.value = Bool b

(* Run a source under full dependence analysis; returns (infos, rt). *)
let analyze ?(setup = "") src =
  let st, _ = fresh_state ~dom:true () in
  if setup <> "" then
    Interp.Eval.run_program st (Jsir.Parser.parse_program setup);
  let program = Jsir.Parser.parse_program src in
  let infos = Jsir.Loops.index program in
  let rt = Ceres.Install.dependence st infos in
  Interp.Eval.run_program st
    (Ceres.Instrument.program Ceres.Instrument.Dependence program);
  (infos, rt)

let warning_strings (infos, rt) =
  Ceres.Runtime.warnings rt
  |> List.map (fun w -> Ceres.Report.warning_to_string infos w)

let has_warning (infos, rt) ~sub =
  List.exists (fun s -> contains ~sub s) (warning_strings (infos, rt))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A committed golden, [rel] under [test/golden/]. The cwd is [test/]
   under [dune runtest] and the root under [dune exec test/test_main.exe]. *)
let golden rel =
  let p = Filename.concat "golden" rel in
  read_file (if Sys.file_exists p then p else Filename.concat "test" p)

(* The built CLI, present under [dune runtest] (a declared dependency). *)
let jsceres = "../bin/jsceres.exe"
