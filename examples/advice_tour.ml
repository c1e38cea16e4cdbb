(* Advice tour: from dependence warnings to a parallelization plan.

   The paper's Sec. 5.3 asks tools to (a) report why a loop cannot run
   in parallel and (b) automate part of the fix. This example analyses
   a small statistics kernel with several classic obstacles at once —
   leaked temporaries, a scalar accumulation, a running maximum, an
   anti-dependent shift and per-iteration DOM output — and prints the
   ranked advice JS-CERES derives.

   Run with: dune exec examples/advice_tour.exe *)

let app = {|
var el = document.createElement("pre");
document.body.appendChild(el);

var samples = [];
(function() {
  var i;
  for (i = 0; i < 64; i++) { samples.push((i * 37 + 11) % 101); }
})();

var sum = 0;
var peak = {value: 0};
for (var i = 0; i < 63; i++) {
  var x = samples[i];                  // leaked temporary (var-scoped)
  var scaled = x * 1.5;                // another one
  sum += scaled;                       // scalar reduction
  peak.value = peak.value < x ? x : peak.value; // object accumulation
  samples[i] = samples[i + 1];         // anti-dependent in-place shift
  el.textContent = "sum so far " + sum; // DOM output inside the loop
}
console.log("sum", sum, "peak", peak.value);
|}

let () =
  let st = Interp.Eval.create () in
  Interp.Builtins.install st;
  ignore (Dom.Document.install st);
  st.Interp.Value.echo_console <- true;
  let program = Jsir.Parser.parse_program app in
  let infos = Jsir.Loops.index program in
  let rt = Ceres.Install.dependence st infos in
  Interp.Eval.run_program st
    (Ceres.Instrument.program Ceres.Instrument.Dependence program);

  print_endline "\n--- warnings (Sec 3.3) ---";
  print_string (Ceres.Report.dependence_report rt infos);

  (* the hot loop is the second top-level loop (id 1) *)
  let root = 1 in
  let dom =
    Array.to_list infos
    |> List.fold_left
         (fun acc (i : Jsir.Loops.info) ->
            acc + Ceres.Runtime.dom_accesses_in rt i.id)
         0
  in
  print_endline "\n--- derived plan (Sec 5.3) ---";
  print_string
    (Ceres.Advice.render ~label:"the statistics loop"
       (Ceres.Advice.for_nest rt ~root ~dom_accesses:dom))
