(* DOM and Canvas simulator tests. *)

let check_with st msg expected src =
  Alcotest.check Helpers.value_testable msg expected
    (Interp.Eval.eval_in_global st (Jsir.Parser.parse_expression src))

let test_tree_operations () =
  let st, doc = Helpers.run ~dom:true
      "var d = document.createElement(\"div\");\n\
       d.id = \"root\";\n\
       document.body.appendChild(d);\n\
       var child = document.createElement(\"span\");\n\
       d.appendChild(child);"
  in
  ignore doc;
  check_with st "getElementById finds nested" (Helpers.str "DIV")
    {|document.getElementById("root").tagName|};
  check_with st "childNodes length" (Helpers.num 1.)
    {|document.getElementById("root").childNodes.length|};
  check_with st "parentNode link" (Helpers.boolean true)
    {|document.getElementById("root").childNodes[0].parentNode === document.getElementById("root")|};
  check_with st "missing id is null" (Helpers.boolean true)
    {|document.getElementById("nope") === null|}

let test_remove_child () =
  let st, _ = Helpers.run ~dom:true
      "var a = document.createElement(\"div\"); a.id = \"a\";\n\
       var b = document.createElement(\"div\"); b.id = \"b\";\n\
       document.body.appendChild(a);\n\
       document.body.appendChild(b);\n\
       document.body.removeChild(a);"
  in
  check_with st "a gone" (Helpers.boolean true)
    {|document.getElementById("a") === null|};
  check_with st "b remains" (Helpers.boolean false)
    {|document.getElementById("b") === null|}

let test_attributes () =
  let st, _ = Helpers.run ~dom:true
      "var el = document.createElement(\"p\");\n\
       el.setAttribute(\"data-x\", \"42\");"
  in
  check_with st "getAttribute" (Helpers.str "42") {|el.getAttribute("data-x")|};
  check_with st "missing attribute is null" (Helpers.boolean true)
    {|el.getAttribute("nope") === null|}

let test_event_dispatch () =
  let st, doc = Helpers.run ~dom:true
      "var el = document.createElement(\"button\");\n\
       el.id = \"btn\";\n\
       document.body.appendChild(el);\n\
       var hits = [];\n\
       el.addEventListener(\"click\", function(ev) { hits.push(ev.clientX); });\n\
       el.addEventListener(\"click\", function(ev) { hits.push(-1); });"
  in
  let doc = Option.get doc in
  let el =
    Option.get (Dom.Document.find_by_id st doc.body "btn")
  in
  let fired = Dom.Document.dispatch doc el "click" ~x:7. ~y:8. in
  Alcotest.(check int) "both listeners fired" 2 fired;
  check_with st "event payload seen" (Helpers.str "7,-1") {|hits.join(",")|};
  (* removeEventListener drops all listeners of that type *)
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "el.removeEventListener(\"click\", function() {});");
  let fired = Dom.Document.dispatch doc el "click" ~x:0. ~y:0. in
  Alcotest.(check int) "listeners removed" 0 fired

let test_canvas_pixels () =
  let st, doc = Helpers.run ~dom:true
      "var c = document.createElement(\"canvas\");\n\
       c.width = 8; c.height = 8; c.id = \"cv\";\n\
       document.body.appendChild(c);\n\
       var ctx = c.getContext(\"2d\");\n\
       ctx.fillStyle = \"#ff0080\";\n\
       ctx.fillRect(1, 1, 3, 3);"
  in
  let doc = Option.get doc in
  let el = Option.get (Dom.Document.find_by_id st doc.body "cv") in
  let canvas = Option.get (Dom.Document.canvas_of_element doc el) in
  Alcotest.(check bool) "pixel inside rect" true
    (Dom.Canvas.get_pixel canvas 2 2 = (255, 0, 128, 255));
  Alcotest.(check bool) "pixel outside rect untouched" true
    (Dom.Canvas.get_pixel canvas 6 6 = (0, 0, 0, 0));
  Alcotest.(check bool) "draw calls counted" true
    (Dom.Canvas.call_count canvas >= 1)

let test_image_data_roundtrip () =
  let st, _ = Helpers.run ~dom:true
      "var c = document.createElement(\"canvas\");\n\
       c.width = 4; c.height = 4;\n\
       var ctx = c.getContext(\"2d\");\n\
       ctx.fillStyle = \"rgb(10,20,30)\";\n\
       ctx.fillRect(0, 0, 4, 4);\n\
       var img = ctx.getImageData(0, 0, 4, 4);\n\
       img.data[0] = 99;\n\
       ctx.putImageData(img, 0, 0);\n\
       var back = ctx.getImageData(0, 0, 1, 1);"
  in
  check_with st "modified red channel round-trips" (Helpers.num 99.)
    "back.data[0]";
  check_with st "untouched green channel" (Helpers.num 20.) "back.data[1]";
  check_with st "alpha opaque" (Helpers.num 255.) "back.data[3]"

let test_color_parsing () =
  Alcotest.(check bool) "#rgb" true (Dom.Canvas.parse_color "#f00" = (255, 0, 0, 255));
  Alcotest.(check bool) "#rrggbb" true
    (Dom.Canvas.parse_color "#0080ff" = (0, 128, 255, 255));
  Alcotest.(check bool) "rgb()" true
    (Dom.Canvas.parse_color "rgb(1, 2, 3)" = (1, 2, 3, 255));
  Alcotest.(check bool) "rgba()" true
    (Dom.Canvas.parse_color "rgba(1,2,3,0.5)" = (1, 2, 3, 127));
  Alcotest.(check bool) "garbage falls back to black" true
    (Dom.Canvas.parse_color "cornflowerblue" = (0, 0, 0, 255))

let test_access_counters () =
  let _st, doc = Helpers.run ~dom:true
      "var el = document.createElement(\"div\");\n\
       document.body.appendChild(el);\n\
       var c = document.createElement(\"canvas\");\n\
       var ctx = c.getContext(\"2d\");\n\
       ctx.fillRect(0, 0, 1, 1);"
  in
  let doc = Option.get doc in
  let dom, canvas = Dom.Document.stats doc in
  Alcotest.(check bool) "dom ops counted" true (dom >= 2);
  Alcotest.(check bool) "canvas ops counted" true (canvas >= 1)

let test_element_property_write_is_dom_access () =
  let st, _ = Helpers.fresh_state ~dom:true () in
  let hits = ref 0 in
  let prev = st.Interp.Value.on_host_access in
  st.Interp.Value.on_host_access <-
    (fun cat op ->
       prev cat op;
       if cat = "dom" then incr hits);
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "var el = document.createElement(\"div\");\n\
        el.innerHTML = \"<b>x</b>\";\n\
        el.textContent = \"y\";");
  Alcotest.(check bool) "innerHTML/textContent writes reported" true
    (!hits >= 2)

let test_timer_driven_animation () =
  let st, doc = Helpers.run ~dom:true
      "var c = document.createElement(\"canvas\");\n\
       c.width = 4; c.height = 4; c.id = \"cv\";\n\
       document.body.appendChild(c);\n\
       var ctx = c.getContext(\"2d\");\n\
       var frames = 0;\n\
       function tick() {\n\
      \  frames++;\n\
      \  ctx.fillRect(frames % 4, 0, 1, 1);\n\
      \  if (frames < 10) { requestAnimationFrame(tick); }\n\
       }\n\
       requestAnimationFrame(tick);"
  in
  ignore doc;
  ignore (Interp.Events.run_until st ~until_ms:2_000.);
  check_with st "ten frames ran" (Helpers.num 10.) "frames"

(* ------------------------------------------------------------------ *)
(* Canvas kernel parity: each kernel against a per-pixel reference     *)

(* A reference RGBA buffer, written one bounds-checked pixel at a time. *)
type ref_canvas = { rw : int; rh : int; rpx : Bytes.t }

let ref_set c x y (r, g, b, a) =
  if x >= 0 && x < c.rw && y >= 0 && y < c.rh then begin
    let off = ((y * c.rw) + x) * 4 in
    List.iteri
      (fun i v -> Bytes.set c.rpx (off + i) (Char.chr (v land 255)))
      [ r; g; b; a ]
  end

let ref_rect c ~x ~y ~w ~h color =
  let x0 = max 0 (int_of_float x) and y0 = max 0 (int_of_float y) in
  let x1 = min c.rw (int_of_float (x +. w)) in
  let y1 = min c.rh (int_of_float (y +. h)) in
  for py = y0 to y1 - 1 do
    for px = x0 to x1 - 1 do ref_set c px py color done
  done

let ref_line c (x0, y0) (x1, y1) color =
  let x0 = int_of_float x0 and y0 = int_of_float y0 in
  let x1 = int_of_float x1 and y1 = int_of_float y1 in
  let dx = abs (x1 - x0) and dy = -abs (y1 - y0) in
  let sx = if x0 < x1 then 1 else -1 and sy = if y0 < y1 then 1 else -1 in
  let rec go x y err =
    ref_set c x y color;
    if x <> x1 || y <> y1 then begin
      let e2 = 2 * err in
      let x, err = if e2 >= dy then (x + sx, err + dy) else (x, err) in
      let y, err = if e2 <= dx then (y + sy, err + dx) else (y, err) in
      go x y err
    end
  in
  go x0 y0 (dx + dy)

(* A [w] x [h] canvas and its reference; the JS globals [X Y W H] feed
   the calls, so every call evaluates the same expression. *)
let kernel_fixture w h =
  let st, doc =
    Helpers.run ~dom:true
      (Printf.sprintf
         "var c = document.createElement(\"canvas\");\n\
          c.width = %d; c.height = %d; c.id = \"cv\";\n\
          document.body.appendChild(c);\n\
          var ctx = c.getContext(\"2d\");\n\
          var X = 0, Y = 0, W = 0, H = 0;" w h)
  in
  let doc = Option.get doc in
  let el = Option.get (Dom.Document.find_by_id st doc.body "cv") in
  ( st,
    Option.get (Dom.Document.canvas_of_element doc el),
    { rw = w; rh = h; rpx = Bytes.make (w * h * 4) '\000' } )

let js st src =
  ignore (Interp.Eval.eval_in_global st (Jsir.Parser.parse_expression src))

let busy st = Int64.to_int (Ceres_util.Vclock.busy st.Interp.Value.clock)

(* Busy vticks of one evaluation of [src]. *)
let ticks_of st src =
  let before = busy st in
  js st src;
  busy st - before

let same_pixels what canvas r =
  for y = 0 to r.rh - 1 do
    for x = 0 to r.rw - 1 do
      let off = ((y * r.rw) + x) * 4 in
      let byte i = Char.code (Bytes.get r.rpx (off + i)) in
      let expected = (byte 0, byte 1, byte 2, byte 3) in
      if Dom.Canvas.get_pixel canvas x y <> expected then
        Alcotest.failf "%s: pixel (%d, %d) differs from the reference" what x
          y
    done
  done

let test_canvas_rect_parity () =
  let st, canvas, r = kernel_fixture 7 5 in
  let rects =
    [ (1., 1., 3., 2.); (-2., 1., 4., 2.); (5., 1., 4., 2.); (1., -3., 2., 5.);
      (2., 3., 2., 9.); (4., 3., -2., -2.); (2., 2., 0., 3.); (3., 1., 2., 0.);
      (0.5, 1.7, 2.6, 2.2); (-1.5, -0.5, 3., 1.9); (0., 0., 7., 5.);
      (-1., -1., 20., 20.); (10., 10., 2., 2.); (-5., -5., 2., 2.);
      (6., 4., 1., 1.); (0., 4., 7., 1.) ]
  in
  (* the busy vticks of a call on an empty rectangle: its charge is 1 *)
  let base = ticks_of st "ctx.fillRect(X, Y, W, H)" in
  List.iteri
    (fun i (x, y, w, h) ->
       List.iter
         (fun (op, style, color) ->
            js st (Printf.sprintf "ctx.fillStyle = %S" style);
            List.iter
              (fun (g, v) -> js st (Printf.sprintf "%s = %.17g" g v))
              [ ("X", x); ("Y", y); ("W", w); ("H", h) ];
            let calls = Dom.Canvas.call_count canvas in
            let what = Printf.sprintf "%s #%d (%g, %g, %g, %g)" op i x y w h in
            let ticks = ticks_of st (Printf.sprintf "ctx.%s(X, Y, W, H)" op) in
            ref_rect r ~x ~y ~w ~h color;
            same_pixels what canvas r;
            Alcotest.(check int) (what ^ ": busy vticks")
              (base - 1 + max 1 (int_of_float (Float.abs (w *. h)) / 4))
              ticks;
            Alcotest.(check int) (what ^ ": call count") (calls + 1)
              (Dom.Canvas.call_count canvas))
         [ ("fillRect", "rgb(300, 20, 7)", (300, 20, 7, 255));
           ("clearRect", "#000000", (0, 0, 0, 0));
           ("fillRect", "rgba(9, 8, 7, 0.5)", (9, 8, 7, 127)) ])
    rects

let test_canvas_arc_parity () =
  let st, canvas, r = kernel_fixture 24 20 in
  let eager cx cy rad a0 a1 =
    List.init 17 (fun i ->
        let a = a0 +. ((a1 -. a0) *. float_of_int i /. 16.) in
        (cx +. (rad *. cos a), cy +. (rad *. sin a)))
  in
  let stroke_base =
    js st "ctx.beginPath()";
    ticks_of st "ctx.stroke()"
  in
  let check what path_js points =
    js st "ctx.beginPath()";
    List.iter (js st) path_js;
    let ticks = ticks_of st "ctx.stroke()" in
    let rec draw = function
      | a :: (b :: _ as rest) -> ref_line r a b (0, 0, 0, 255); draw rest
      | _ -> ()
    in
    draw points;
    same_pixels what canvas r;
    Alcotest.(check int) (what ^ ": stroke charge")
      (stroke_base - 1 + (8 * List.length points))
      ticks
  in
  let arc = eager 11. 9. 7.5 0.3 5.9 in
  check "arc alone" [ "ctx.arc(11, 9, 7.5, 0.3, 5.9)" ] arc;
  check "arc, closePath"
    [ "ctx.arc(11, 9, 7.5, 0.3, 5.9)"; "ctx.closePath()" ]
    (arc @ [ List.hd arc ]);
  let small = eager 20. 3. 6. 1. (-2.) in
  check "moveTo, arc past the edge, lineTo, closePath"
    [ "ctx.moveTo(1, 2)"; "ctx.arc(20, 3, 6, 1, -2)"; "ctx.lineTo(2, 18)";
      "ctx.closePath()" ]
    (((1., 2.) :: small) @ [ (2., 18.); (1., 2.) ]);
  check "two arcs"
    [ "ctx.arc(11, 9, 7.5, 0.3, 5.9)"; "ctx.arc(20, 3, 6, 1, -2)" ]
    (arc @ small);
  check "closePath on one point" [ "ctx.moveTo(3, 3)"; "ctx.closePath()" ]
    [ (3., 3.) ]

let test_canvas_image_data_parity () =
  let st, canvas, r = kernel_fixture 7 5 in
  ref_rect r ~x:0. ~y:0. ~w:7. ~h:5. (1, 2, 3, 4);
  js st "ctx.fillStyle = \"rgba(1, 2, 3, 0.0157)\"";
  js st "ctx.fillRect(0, 0, 7, 5)";
  Interp.Eval.run_program st
    (Jsir.Parser.parse_program
       "var calls = 0;\n\
        var img = ctx.createImageData(4, 3);\n\
        for (var i = 0; i < 48; i++) { img.data[i] = (i * 37) % 300; }\n\
        img.data[2] = -3.5;\n\
        img.data[5] = \"77\";\n\
        img.data[27] = { toString: function () { calls++; return \"12\"; } };");
  (* element [i] as the reference reads it *)
  let elem i =
    match i with
    | 2 -> -3 | 5 -> 77 | 27 -> 12 | i -> i * 37 mod 300
  in
  let put x y =
    for row = 0 to 2 do
      for col = 0 to 3 do
        let off = ((row * 4) + col) * 4 in
        ref_set r (x + col) (y + row)
          (elem off, elem (off + 1), elem (off + 2), elem (off + 3))
      done
    done
  in
  (* element 27 is a channel of the image's pixel (2, 1): off the canvas
     when put at (5, -1), on it when put at (-2, 2); its [toString] runs
     either way *)
  js st "ctx.putImageData(img, 5, -1)";
  put 5 (-1);
  same_pixels "putImageData past the right and top edges" canvas r;
  js st "ctx.putImageData(img, -2, 2)";
  put (-2) 2;
  same_pixels "putImageData past the left and bottom edges" canvas r;
  check_with st "toString ran once per put" (Helpers.num 2.) "calls";
  (* getImageData past the edges: off-canvas channels read 0, and no two
     channels share a box *)
  List.iter
    (fun (x, y, w, h) ->
       Interp.Eval.run_program st
         (Jsir.Parser.parse_program
            (Printf.sprintf "var back = ctx.getImageData(%d, %d, %d, %d);" x
               y w h));
       for row = 0 to h - 1 do
         for col = 0 to w - 1 do
           let px, py = (x + col, y + row) in
           let on = px >= 0 && px < 7 && py >= 0 && py < 5 in
           for k = 0 to 3 do
             let expected =
               if on then Char.code (Bytes.get r.rpx ((((py * 7) + px) * 4) + k))
               else 0
             in
             check_with st
               (Printf.sprintf "getImageData at (%d, %d): channel %d of (%d, %d)"
                  x y k px py)
               (Helpers.num (float_of_int expected))
               (Printf.sprintf "back.data[%d]" ((((row * w) + col) * 4) + k))
           done
         done
       done;
       match
         Interp.Eval.eval_in_global st
           (Jsir.Parser.parse_expression "back.data")
       with
       | Obj { arr = Some a; _ } ->
         for i = 0 to a.len - 1 do
           for j = i + 1 to a.len - 1 do
             if a.elems.(i) == a.elems.(j) then
               Alcotest.failf "channels %d and %d share a box" i j
           done
         done
       | _ -> Alcotest.fail "getImageData returned no data array")
    [ (-1, 3, 3, 4); (5, -1, 3, 2); (0, 0, 7, 5) ]

let suite =
  [ ("tree operations", `Quick, test_tree_operations);
    ("removeChild", `Quick, test_remove_child);
    ("attributes", `Quick, test_attributes);
    ("event dispatch", `Quick, test_event_dispatch);
    ("canvas pixels", `Quick, test_canvas_pixels);
    ("image data round-trip", `Quick, test_image_data_roundtrip);
    ("color parsing", `Quick, test_color_parsing);
    ("access counters", `Quick, test_access_counters);
    ("element property writes", `Quick, test_element_property_write_is_dom_access);
    ("timer-driven animation", `Quick, test_timer_driven_animation);
    ("canvas rect kernel parity", `Quick, test_canvas_rect_parity);
    ("canvas arc parity", `Quick, test_canvas_arc_parity);
    ("canvas image data parity", `Quick, test_canvas_image_data_parity) ]
