(* Canvas 2D context simulator.

   The paper's workloads are dominated by Canvas traffic (Harmony draws
   strokes, CamanJS and Normal Mapping read/write ImageData, fluidSim
   blits a density field). The simulator keeps a real RGBA pixel
   buffer and a draw-call count per canvas, and reports every
   operation through [state.on_host_access "canvas" op] so JS-CERES can
   attribute Canvas use to the loop nest that performed it — the
   paper's Table 3 "DOM access" column counts Canvas as DOM-family
   state, since neither has a concurrent implementation in browsers. *)

open Interp.Value

(* A path step. An arc stays one step until [stroke] or [closePath]
   reads the path: [fill] only counts the call, so its points are never
   needed there. *)
type step =
  | Point of (float * float)
  | Arc of { cx : float; cy : float; r : float; a0 : float; a1 : float }

type t = {
  width : int;
  height : int;
  pixels : Bytes.t; (* RGBA, row-major *)
  mutable fill_style : int * int * int * int;
  mutable stroke_style : int * int * int * int;
  mutable line_width : float;
  mutable path : step list; (* current path, reversed *)
  mutable call_count : int;
}

let create ~width ~height =
  { width;
    height;
    pixels = Bytes.make (width * height * 4) '\000';
    fill_style = (0, 0, 0, 255);
    stroke_style = (0, 0, 0, 255);
    line_width = 1.;
    path = [];
    call_count = 0 }

let record t = t.call_count <- t.call_count + 1
let call_count t = t.call_count

let parse_hex_pair s i =
  int_of_string ("0x" ^ String.sub s i 2)

(* Parse "#rrggbb", "#rgb", "rgb(r,g,b)" and "rgba(r,g,b,a)". Unknown
   strings fall back to opaque black, as browsers do for most CSS
   keyword colours we don't model. *)
let parse_color s =
  let s = String.trim (String.lowercase_ascii s) in
  try
    if String.length s = 7 && s.[0] = '#' then
      (parse_hex_pair s 1, parse_hex_pair s 3, parse_hex_pair s 5, 255)
    else if String.length s = 4 && s.[0] = '#' then
      let c i = int_of_string (Printf.sprintf "0x%c%c" s.[i] s.[i]) in
      (c 1, c 2, c 3, 255)
    else if String.length s > 4 && String.sub s 0 4 = "rgb(" then begin
      let inner = String.sub s 4 (String.length s - 5) in
      match String.split_on_char ',' inner with
      | [ r; g; b ] ->
        ( int_of_string (String.trim r),
          int_of_string (String.trim g),
          int_of_string (String.trim b),
          255 )
      | _ -> (0, 0, 0, 255)
    end
    else if String.length s > 5 && String.sub s 0 5 = "rgba(" then begin
      let inner = String.sub s 5 (String.length s - 6) in
      match String.split_on_char ',' inner with
      | [ r; g; b; a ] ->
        ( int_of_string (String.trim r),
          int_of_string (String.trim g),
          int_of_string (String.trim b),
          int_of_float (float_of_string (String.trim a) *. 255.) )
      | _ -> (0, 0, 0, 255)
    end
    else (0, 0, 0, 255)
  with _ -> (0, 0, 0, 255)

let set_pixel t x y (r, g, b, a) =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then begin
    let off = ((y * t.width) + x) * 4 in
    Bytes.set t.pixels off (Char.chr (r land 255));
    Bytes.set t.pixels (off + 1) (Char.chr (g land 255));
    Bytes.set t.pixels (off + 2) (Char.chr (b land 255));
    Bytes.set t.pixels (off + 3) (Char.chr (a land 255))
  end

let get_pixel t x y =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then begin
    let off = ((y * t.width) + x) * 4 in
    ( Char.code (Bytes.get t.pixels off),
      Char.code (Bytes.get t.pixels (off + 1)),
      Char.code (Bytes.get t.pixels (off + 2)),
      Char.code (Bytes.get t.pixels (off + 3)) )
  end
  else (0, 0, 0, 0)

(* Fill the rectangle, clipped once, with one RGBA pattern: the first
   pixel is doubled across its row, and that row is copied to the
   rows below. *)
let fill_block t ~x ~y ~w ~h (r, g, b, a) =
  let x0 = max 0 (int_of_float x) and y0 = max 0 (int_of_float y) in
  let x1 = min t.width (int_of_float (x +. w)) in
  let y1 = min t.height (int_of_float (y +. h)) in
  if x1 > x0 && y1 > y0 then begin
    let px = t.pixels and row = (x1 - x0) * 4 in
    let first = ((y0 * t.width) + x0) * 4 in
    Bytes.set px first (Char.chr (r land 255));
    Bytes.set px (first + 1) (Char.chr (g land 255));
    Bytes.set px (first + 2) (Char.chr (b land 255));
    Bytes.set px (first + 3) (Char.chr (a land 255));
    let filled = ref 4 in
    while !filled < row do
      let n = min !filled (row - !filled) in
      Bytes.blit px first px (first + !filled) n;
      filled := !filled + n
    done;
    for py = y0 + 1 to y1 - 1 do
      Bytes.blit px first px (((py * t.width) + x0) * 4) row
    done
  end

let fill_rect t ~x ~y ~w ~h =
  record t;
  fill_block t ~x ~y ~w ~h t.fill_style

let clear_rect t ~x ~y ~w ~h =
  record t;
  fill_block t ~x ~y ~w ~h (0, 0, 0, 0)

(* Point [i] of an arc's 16-segment approximation. *)
let arc_point ~cx ~cy ~r ~a0 ~a1 i =
  let a = a0 +. ((a1 -. a0) *. float_of_int i /. 16.) in
  (cx +. (r *. cos a), cy +. (r *. sin a))

(* The path's points, first to last. *)
let points t =
  List.fold_left
    (fun acc -> function
       | Point p -> p :: acc
       | Arc { cx; cy; r; a0; a1 } ->
         List.init 17 (arc_point ~cx ~cy ~r ~a0 ~a1) @ acc)
    [] t.path

(* Bresenham raster of the current path on [stroke]. *)
let draw_line t (x0, y0) (x1, y1) color =
  let x0 = int_of_float x0 and y0 = int_of_float y0 in
  let x1 = int_of_float x1 and y1 = int_of_float y1 in
  let dx = abs (x1 - x0) and dy = -abs (y1 - y0) in
  let sx = if x0 < x1 then 1 else -1 in
  let sy = if y0 < y1 then 1 else -1 in
  let err = ref (dx + dy) in
  let x = ref x0 and y = ref y0 in
  let continue = ref true in
  while !continue do
    set_pixel t !x !y color;
    if !x = x1 && !y = y1 then continue := false
    else begin
      let e2 = 2 * !err in
      if e2 >= dy then begin
        err := !err + dy;
        x := !x + sx
      end;
      if e2 <= dx then begin
        err := !err + dx;
        y := !y + sy
      end
    end
  done

let stroke t pts =
  record t;
  let rec segments = function
    | a :: (b :: _ as rest) ->
      draw_line t a b t.stroke_style;
      segments rest
    | _ -> ()
  in
  segments pts

(* ------------------------------------------------------------------ *)
(* JS-facing context object                                            *)

(* Contexts are looked up through a per-document registry so that
   independent interpreter states never alias. *)
type registry = (int, t) Hashtbl.t

let make_registry () : registry = Hashtbl.create 16

let context_of_reg reg st ctx_val =
  match ctx_val with
  | Obj o ->
    (match Hashtbl.find_opt reg o.oid with
     | Some t -> t
     | None -> type_error st "not a canvas context")
  | _ -> type_error st "not a canvas context"

let touch st op = st.on_host_access "canvas" op

(* Native rendering work is not free: charge the virtual clock in
   proportion to the touched area so canvas-heavy phases show up as
   CPU-active time, as they do in a browser. *)
let charge st cost = Ceres_util.Vclock.advance st.clock (max 1 cost)

let nth_num st args n =
  match List.nth_opt args n with
  | Some v -> to_number st v
  | None -> 0.

(* Build the JS object for a 2D context backed by [t]. *)
let make_context_obj st (reg : registry) t =
  let ctx = make_obj st in
  ctx.host_tag <- Some "canvas-context";
  Hashtbl.replace reg ctx.oid t;
  (* A method called on its own context needs no registry probe. *)
  let context_of st v =
    match v with Obj o when o == ctx -> t | _ -> context_of_reg reg st v
  in
  let def name fn = raw_set_prop ctx name (Obj (make_host_fn st name fn)) in
  def "fillRect" (fun st this args ->
      touch st "fillRect";
      let t = context_of st this in
      (match get_prop_obj (match this with Obj o -> o | _ -> assert false)
               "fillStyle"
       with
       | Str s -> t.fill_style <- parse_color s
       | _ -> ());
      let w = nth_num st args 2 and h = nth_num st args 3 in
      charge st (int_of_float (Float.abs (w *. h)) / 4);
      fill_rect t ~x:(nth_num st args 0) ~y:(nth_num st args 1) ~w ~h;
      Undefined);
  def "clearRect" (fun st this args ->
      touch st "clearRect";
      let t = context_of st this in
      let w = nth_num st args 2 and h = nth_num st args 3 in
      charge st (int_of_float (Float.abs (w *. h)) / 4);
      clear_rect t ~x:(nth_num st args 0) ~y:(nth_num st args 1) ~w ~h;
      Undefined);
  def "beginPath" (fun st this _ ->
      touch st "beginPath";
      let t = context_of st this in
      t.path <- [];
      Undefined);
  def "moveTo" (fun st this args ->
      touch st "moveTo";
      let t = context_of st this in
      t.path <- [ Point (nth_num st args 0, nth_num st args 1) ];
      Undefined);
  def "lineTo" (fun st this args ->
      touch st "lineTo";
      let t = context_of st this in
      t.path <- Point (nth_num st args 0, nth_num st args 1) :: t.path;
      Undefined);
  def "arc" (fun st this args ->
      touch st "arc";
      let t = context_of st this in
      (* Approximate the arc with 16 path segments. *)
      let cx = nth_num st args 0 and cy = nth_num st args 1 in
      let r = nth_num st args 2 in
      let a0 = nth_num st args 3 and a1 = nth_num st args 4 in
      t.path <- Arc { cx; cy; r; a0; a1 } :: t.path;
      record t;
      Undefined);
  def "closePath" (fun st this _ ->
      touch st "closePath";
      let t = context_of st this in
      (match points t with
       | first :: _ :: _ -> t.path <- Point first :: t.path
       | _ -> ());
      Undefined);
  def "stroke" (fun st this _ ->
      touch st "stroke";
      let t = context_of st this in
      (match get_prop_obj (match this with Obj o -> o | _ -> assert false)
               "strokeStyle"
       with
       | Str s -> t.stroke_style <- parse_color s
       | _ -> ());
      let pts = points t in
      charge st (8 * List.length pts);
      stroke t pts;
      Undefined);
  def "fill" (fun st this _ ->
      touch st "fill";
      let t = context_of st this in
      record t;
      Undefined);
  def "save" (fun st this _ ->
      touch st "save";
      ignore (context_of st this);
      Undefined);
  def "restore" (fun st this _ ->
      touch st "restore";
      ignore (context_of st this);
      Undefined);
  def "getImageData" (fun st this args ->
      touch st "getImageData";
      let t = context_of st this in
      let x = int_of_float (nth_num st args 0) in
      let y = int_of_float (nth_num st args 1) in
      let w = int_of_float (nth_num st args 2) in
      let h = int_of_float (nth_num st args 3) in
      charge st (w * h);
      record t;
      (* One fresh [Num] per channel, never a shared box: a parallel
         chunk's frame write-back tells a write from no write by box
         identity. Channels outside the canvas read 0. *)
      let data = Array.make (w * h * 4) (Num 0.) in
      for row = 0 to h - 1 do
        let py = y + row in
        (* the row's channels [lo, hi) that lie on the canvas *)
        let lo, hi =
          if py < 0 || py >= t.height then (0, 0)
          else (4 * max 0 (-x), 4 * min w (t.width - x))
        in
        let src = ((py * t.width) + x) * 4 and dst = row * w * 4 in
        for k = 0 to (w * 4) - 1 do
          let c =
            if k >= lo && k < hi then Char.code (Bytes.get t.pixels (src + k))
            else 0
          in
          data.(dst + k) <- Num (float_of_int c)
        done
      done;
      let img = make_obj st in
      raw_set_prop img "width" (Num (float_of_int w));
      raw_set_prop img "height" (Num (float_of_int h));
      raw_set_prop img "data" (Obj (make_array st data));
      Obj img);
  def "createImageData" (fun st this args ->
      touch st "createImageData";
      ignore (context_of st this);
      let w = int_of_float (nth_num st args 0) in
      let h = int_of_float (nth_num st args 1) in
      charge st (w * h / 2);
      let img = make_obj st in
      raw_set_prop img "width" (Num (float_of_int w));
      raw_set_prop img "height" (Num (float_of_int h));
      raw_set_prop img "data"
        (Obj (make_array st (Array.make (w * h * 4) (Num 0.))));
      Obj img);
  def "putImageData" (fun st this args ->
      touch st "putImageData";
      let t = context_of st this in
      (match List.nth_opt args 0 with
       | Some (Obj img) ->
         let x = int_of_float (nth_num st args 1) in
         let y = int_of_float (nth_num st args 2) in
         let w = int_of_float (to_number st (get_prop_obj img "width")) in
         let h = int_of_float (to_number st (get_prop_obj img "height")) in
         charge st (w * h);
         record t;
         (match get_prop_obj img "data" with
          | Obj { arr = Some a; _ } ->
            let byte i =
              if i < a.len then
                int_of_float (to_number st a.elems.(i))
              else 0
            in
            let convert off px py =
              set_pixel t px py
                (byte off, byte (off + 1), byte (off + 2), byte (off + 3))
            in
            let chan dst f =
              Bytes.set t.pixels dst (Char.chr (int_of_float f land 255))
            in
            for row = 0 to h - 1 do
              let py = y + row in
              let on_row = py >= 0 && py < t.height in
              for col = 0 to w - 1 do
                let off = ((row * w) + col) * 4 and px = x + col in
                (* A pixel of four numbers goes straight into the buffer,
                   or nowhere off the canvas; any other pixel is
                   converted through [to_number], in the same order. *)
                if off + 3 < a.len then
                  match
                    (a.elems.(off), a.elems.(off + 1), a.elems.(off + 2),
                     a.elems.(off + 3))
                  with
                  | Num r, Num g, Num b, Num al ->
                    if on_row && px >= 0 && px < t.width then begin
                      let dst = ((py * t.width) + px) * 4 in
                      chan dst r;
                      chan (dst + 1) g;
                      chan (dst + 2) b;
                      chan (dst + 3) al
                    end
                  | _ -> convert off px py
                else convert off px py
              done
            done
          | _ -> ())
       | _ -> ());
      Undefined);
  raw_set_prop ctx "fillStyle" (Str "#000000");
  raw_set_prop ctx "strokeStyle" (Str "#000000");
  raw_set_prop ctx "lineWidth" (Num 1.);
  raw_set_prop ctx "globalAlpha" (Num 1.);
  ctx
