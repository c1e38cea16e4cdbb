(** Canvas 2D context simulator.

    Keeps a real RGBA pixel buffer and a draw-call count per canvas,
    and reports every JS-facing operation through
    [state.on_host_access "canvas" op] so JS-CERES can attribute Canvas
    traffic to the open loop nest — the paper's Table 3 treats Canvas
    like the DOM, since neither has a concurrent browser
    implementation. Host operations also charge the virtual clock in
    proportion to the touched area, so canvas-heavy phases show up as
    CPU-active time. *)

type t
(** One canvas's backing store. *)

type registry = (int, t) Hashtbl.t
(** Context-object oid -> backing store; one per document so
    independent interpreter states never alias. *)

val create : width:int -> height:int -> t
val make_registry : unit -> registry

val make_context_obj :
  Interp.Value.state -> registry -> t -> Interp.Value.obj
(** The JS-facing 2D context: fillRect/clearRect/path
    ops/getImageData/putImageData/createImageData, with
    fillStyle/strokeStyle properties. *)

val get_pixel : t -> int -> int -> int * int * int * int
(** RGBA at (x, y); (0,0,0,0) outside the canvas. *)

val parse_color : string -> int * int * int * int
(** ["#rgb"], ["#rrggbb"], ["rgb(...)"], ["rgba(...)"]; anything else
    falls back to opaque black. *)

val call_count : t -> int
(** Drawing calls made on the canvas so far. *)
