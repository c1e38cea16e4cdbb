(* A CamanJS-style image pipeline, analysed and then actually run in
   parallel.

   The MiniJS program paints a synthetic photo on a canvas and applies
   a filter chain. We (1) verify with JS-CERES that the filter loop has
   no loop-carried dependences, and (2) run the equivalent native
   kernel under the domain pool and compare checksums.

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

let () =
  (* 1. analyse the app *)
  print_endline "--- dependence analysis of the filter app ---";
  let st = Interp.Eval.create () in
  Interp.Builtins.install st;
  ignore (Dom.Document.install st);
  st.Interp.Value.echo_console <- true;
  let program = Jsir.Parser.parse_program app in
  let infos = Jsir.Loops.index program in
  let rt = Ceres.Install.dependence st infos in
  Interp.Eval.run_program st
    (Ceres.Instrument.program Ceres.Instrument.Dependence program);
  print_string (Ceres.Report.dependence_report rt infos);

  (* 2. native kernel under the pool *)
  print_endline "\n--- native kernel, sequential vs pool ---";
  let k = Option.get (Workloads.Kernels.find "caman-filter") in
  let seq = k.run 128 in
  let par =
    Js_parallel.Pool.with_pool ~domains:2 (fun p -> k.run ~pool:p 128)
  in
  Printf.printf "sequential checksum %.1f, parallel checksum %.1f -> %s\n" seq
    par
    (if Float.abs (seq -. par) < 1e-6 then "equal" else "MISMATCH")
