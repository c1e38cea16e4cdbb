(* A CamanJS-style image pipeline, analysed and then actually run in
   parallel.

   The MiniJS program paints a synthetic photo on a canvas and applies
   a filter chain. We (1) verify with JS-CERES that the filter loop has
   no loop-carried dependences, and (2) run the same program again with
   its statically proven loops forked over a 2-domain pool
   ({!Js_parallel.Par_exec}, default work gate) and compare its console
   with a plain run. The example exits 1 when the consoles differ or a
   parallel instance falls back to sequential execution.

   Run with: dune exec examples/image_pipeline.exe *)

let app = {|
var W = 48, H = 48;
var canvas = document.createElement("canvas");
canvas.width = W; canvas.height = H;
document.body.appendChild(canvas);
var ctx = canvas.getContext("2d");
ctx.fillStyle = "#225588";
ctx.fillRect(0, 0, W, H);
ctx.fillStyle = "#dd9933";
ctx.fillRect(6, 6, 24, 24);

var img = ctx.getImageData(0, 0, W, H);
var data = img.data;
var i;
for (i = 0; i < W * H; i++) {
  var o = i * 4;
  var r = data[o] * 1.1 + 10;
  var g = data[o + 1] * 1.1 + 10;
  var b = data[o + 2] * 0.95;
  data[o] = r > 255 ? 255 : r;
  data[o + 1] = g > 255 ? 255 : g;
  data[o + 2] = b;
}
ctx.putImageData(img, 0, 0);
var checksum = 0;
for (i = 0; i < W * H * 4; i++) { checksum += data[i]; }
console.log("filtered checksum:", checksum);
|}

let fresh_state () =
  let st = Interp.Eval.create () in
  Interp.Builtins.install st;
  ignore (Dom.Document.install st);
  st

(* One session of [app], its proven nests run through [par] when
   given (the pattern of [Workloads.Harness.run_plain]); returns the
   console, oldest first. *)
let session ?par () =
  let st = fresh_state () in
  let program = Jsir.Parser.parse_program app in
  Option.iter
    (fun pe ->
       Js_parallel.Par_exec.install pe st
         ~report:(Analysis.Driver.analyze program))
    par;
  Interp.Eval.run_program st program;
  List.rev st.Interp.Value.console

let () =
  (* 1. analyse the app *)
  print_endline "--- dependence analysis of the filter app ---";
  let st = fresh_state () in
  st.Interp.Value.echo_console <- true;
  let program = Jsir.Parser.parse_program app in
  let infos = Jsir.Loops.index program in
  let rt = Ceres.Install.dependence st infos in
  Interp.Eval.run_program st
    (Ceres.Instrument.program Ceres.Instrument.Dependence program);
  print_string (Ceres.Report.dependence_report rt infos);

  (* 2. the same JS, its proven loops forked over the pool *)
  print_endline "\n--- the app on Par_exec (-j 2) vs a plain run ---";
  let plain = session () in
  let pe, par =
    Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
        let pe =
          Js_parallel.Par_exec.create ~mode:(Parallel pool) ~jobs:2 ()
        in
        (pe, session ~par:pe ()))
  in
  List.iter print_endline par;
  print_endline (Js_parallel.Par_exec.stats_json pe);
  let fallbacks = ref 0 in
  List.iter
    (fun (id, label, (s : Js_parallel.Par_exec.nest_stats)) ->
       fallbacks := !fallbacks + s.fallbacks;
       if s.refused > 0 then
         Printf.printf "loop %d (%s): the work gate ran %d instance(s) \
                        sequentially\n"
           id label s.refused)
    (Js_parallel.Par_exec.nest_rows pe);
  let same = par = plain in
  Printf.printf "nests forked: %d, fallbacks: %d, console %s the plain run\n"
    (Js_parallel.Par_exec.nests_run pe) !fallbacks
    (if same then "matches" else "DIFFERS from");
  if not same then List.iter (Printf.printf "plain: %s\n") plain;
  if (not same) || !fallbacks > 0 then exit 1
