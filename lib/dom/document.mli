(** DOM simulator: a document tree exposed to MiniJS.

    Deliberately *non-concurrent*, as in every browser the paper
    discusses: each operation funnels through
    [state.on_host_access "dom" op] (so JS-CERES attributes it to the
    open loops) and bumps per-document counters the harness reads.
    Writes to element properties (innerHTML, textContent, style
    members) count as DOM traffic too.

    Elements are ordinary interpreter objects (tagged
    [host_tag = "element"]) with host-function methods on a shared
    prototype: appendChild/removeChild, set/getAttribute,
    add/removeEventListener, and getContext for canvases. *)

type t = {
  st : Interp.Value.state;
  document_obj : Interp.Value.obj;
  mutable body : Interp.Value.obj;
  element_proto : Interp.Value.obj;
  canvas_reg : Canvas.registry;
  mutable dom_accesses : int;
  mutable canvas_accesses : int;
  mutable listeners : (int * string * Interp.Value.value) list;
  mutable next_node_id : int;
}

val install : Interp.Value.state -> t
(** Create [document] (with a body) and [window] in the state's
    globals; returns the handle the harness uses for dispatch and
    statistics. *)

val find_by_id :
  Interp.Value.state -> Interp.Value.obj -> string -> Interp.Value.obj option
(** Depth-first search under the given root by the [id] property. *)

val dispatch :
  t -> Interp.Value.obj -> string -> x:float -> y:float -> int
(** Synchronously fire all listeners of (element, event type) with a
    mouse-like event payload; returns how many listeners ran. *)

val stats : t -> int * int
(** (DOM accesses, canvas accesses) so far. *)

val canvas_of_element : t -> Interp.Value.obj -> Canvas.t option
(** The pixel store behind a canvas element, for tests. *)
