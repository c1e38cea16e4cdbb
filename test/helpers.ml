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

(* A file under [golden/]: a committed input, or the output of a rule
   in [golden/dune] (the CLI run [dune runtest] diffs against its
   golden). Both are declared dependencies under [dune runtest];
   elsewhere the calling test skips. *)
let golden name =
  let p = Filename.concat "golden" name in
  if not (Sys.file_exists p) then Alcotest.skip ();
  read_file p

(* The built CLI, present under [dune runtest] (a declared dependency). *)
let jsceres = "../bin/jsceres.exe"

(* Run the CLI on [args]: exit code, stdout and stderr. Skips the
   calling test when the CLI is not built. *)
let cli args =
  if not (Sys.file_exists jsceres) then Alcotest.skip ();
  let out = Filename.temp_file "jsceres" ".out"
  and err = Filename.temp_file "jsceres" ".err" in
  let q = Filename.quote in
  let cmd = String.concat " " (List.map q (jsceres :: args)) in
  let rc = Sys.command (Printf.sprintf "%s >%s 2>%s" cmd (q out) (q err)) in
  let res = (rc, read_file out, read_file err) in
  Sys.remove out;
  Sys.remove err;
  res

let json s =
  match Ceres_util.Json.of_string s with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "bad JSON (%s): %s" e s

(* The JSON after [prefix] on the line of [text] that starts with it. *)
let json_line ~prefix text =
  let lines = String.split_on_char '\n' text and n = String.length prefix in
  match List.find_opt (String.starts_with ~prefix) lines with
  | Some l -> json (String.sub l n (String.length l - n))
  | None -> Alcotest.failf "no %S line in: %s" prefix text

(* The integer at [path] in [doc]; fails the calling test when absent. *)
let int_at path doc =
  let step d k = Option.bind d (Ceres_util.Json.member k) in
  let found = List.fold_left step (Some doc) path in
  match Option.bind found Ceres_util.Json.int_opt with
  | Some n -> n
  | None -> Alcotest.failf "no integer at %s" (String.concat "." path)
