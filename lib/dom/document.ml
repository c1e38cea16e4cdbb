(* DOM simulator: a document tree exposed to MiniJS.

   Browsers implement the DOM as a single-threaded, non-concurrent
   structure; the paper repeatedly flags "loop accesses the DOM" as a
   parallelization blocker (Table 3, column 6). Accordingly every
   operation here (1) funnels through [state.on_host_access "dom" op]
   so JS-CERES can attribute it to the open loop nest, and (2) bumps a
   per-document access counter used by the harness. *)

open Interp.Value

type t = {
  st : state;
  document_obj : obj;
  mutable body : obj;
  element_proto : obj;
  canvas_reg : Canvas.registry;
  mutable dom_accesses : int;
  mutable canvas_accesses : int;
  mutable listeners : (int * string * value) list;
      (* element oid, event type, callback; reversed *)
  mutable next_node_id : int;
}

(* Reported through the calling state: a chunk's poisons the chunk. *)
let touch t st op =
  st.on_host_access "dom" op;
  t.dom_accesses <- t.dom_accesses + 1

let children_of st el =
  match get_prop_obj el "childNodes" with
  | Obj ({ arr = Some _; _ } as arr) -> arr
  | _ ->
    let arr = make_array st [||] in
    raw_set_prop el "childNodes" (Obj arr);
    arr

let append_child st parent child =
  let kids = children_of st parent in
  (match kids.arr with
   | Some a ->
     ensure_capacity a a.len;
     a.elems.(a.len) <- Obj child;
     a.len <- a.len + 1
   | None -> ());
  raw_set_prop child "parentNode" (Obj parent)

let remove_child st parent child =
  let kids = children_of st parent in
  match kids.arr with
  | Some a ->
    let keep = ref [] in
    for i = a.len - 1 downto 0 do
      match a.elems.(i) with
      | Obj o when o.oid = child.oid -> ()
      | v -> keep := v :: !keep
    done;
    let kept = Array.of_list !keep in
    Array.blit kept 0 a.elems 0 (Array.length kept);
    array_set_length a (Array.length kept);
    raw_set_prop child "parentNode" Null
  | None -> ()

(* Depth-first search by the [id] property/attribute. *)
let rec find_by_id st el id =
  let matches =
    match get_prop_obj el "id" with
    | Str s -> String.equal s id
    | _ -> false
  in
  if matches then Some el
  else begin
    let kids = children_of st el in
    match kids.arr with
    | Some a ->
      let rec scan i =
        if i >= a.len then None
        else
          match a.elems.(i) with
          | Obj child ->
            (match find_by_id st child id with
             | Some _ as found -> found
             | None -> scan (i + 1))
          | _ -> scan (i + 1)
      in
      scan 0
    | None -> None
  end

let make_element t tag =
  let st = t.st in
  let el = make_obj ~proto:(Some t.element_proto) st in
  el.host_tag <- Some "element";
  t.next_node_id <- t.next_node_id + 1;
  raw_set_prop el "tagName" (Str (String.uppercase_ascii tag));
  raw_set_prop el "nodeId" (Num (float_of_int t.next_node_id));
  raw_set_prop el "style" (Obj (make_obj st));
  raw_set_prop el "childNodes" (Obj (make_array st [||]));
  raw_set_prop el "parentNode" Null;
  raw_set_prop el "textContent" (Str "");
  raw_set_prop el "innerHTML" (Str "");
  if String.lowercase_ascii tag = "canvas" then begin
    raw_set_prop el "width" (Num 300.);
    raw_set_prop el "height" (Num 150.)
  end;
  el

let install st : t =
  let element_proto = make_obj st in
  let canvas_reg = Canvas.make_registry () in
  let document_obj = make_obj st in
  let t =
    { st;
      document_obj;
      body = document_obj (* replaced just below, before any use *);
      element_proto;
      canvas_reg;
      dom_accesses = 0;
      canvas_accesses = 0;
      listeners = [];
      next_node_id = 0 }
  in
  let def_el name fn =
    raw_set_prop element_proto name (Obj (make_host_fn st name fn))
  in
  def_el "appendChild" (fun st this args ->
      touch t st "appendChild";
      match this, args with
      | Obj parent, Obj child :: _ ->
        append_child st parent child;
        Obj child
      | _ -> type_error st "appendChild expects an element");
  def_el "removeChild" (fun st this args ->
      touch t st "removeChild";
      match this, args with
      | Obj parent, Obj child :: _ ->
        remove_child st parent child;
        Obj child
      | _ -> type_error st "removeChild expects an element");
  def_el "setAttribute" (fun st this args ->
      touch t st "setAttribute";
      match this with
      | Obj el ->
        let name = to_string st (Interp.Builtins.arg 0 args) in
        let v = Interp.Builtins.arg 1 args in
        raw_set_prop el name (Str (to_string st v));
        Undefined
      | _ -> Undefined);
  def_el "getAttribute" (fun st this args ->
      touch t st "getAttribute";
      match this with
      | Obj el ->
        let name = to_string st (Interp.Builtins.arg 0 args) in
        (match raw_get_own el name with Some v -> v | None -> Null)
      | _ -> Null);
  def_el "addEventListener" (fun st this args ->
      touch t st "addEventListener";
      match this with
      | Obj el ->
        let ty = to_string st (Interp.Builtins.arg 0 args) in
        let cb = Interp.Builtins.arg 1 args in
        t.listeners <- (el.oid, ty, cb) :: t.listeners;
        Undefined
      | _ -> Undefined);
  def_el "removeEventListener" (fun st this args ->
      touch t st "removeEventListener";
      match this with
      | Obj el ->
        let ty = to_string st (Interp.Builtins.arg 0 args) in
        t.listeners <-
          List.filter
            (fun (oid, lty, _) -> not (oid = el.oid && String.equal lty ty))
            t.listeners;
        Undefined
      | _ -> Undefined);
  def_el "getContext" (fun st this _ ->
      st.on_host_access "canvas" "getContext";
      t.canvas_accesses <- t.canvas_accesses + 1;
      match this with
      | Obj el ->
        (match raw_get_own el "__context" with
         | Some ctx -> ctx
         | None ->
           let width =
             int_of_float (to_number st (get_prop_obj el "width"))
           in
           let height =
             int_of_float (to_number st (get_prop_obj el "height"))
           in
           let canvas = Canvas.create ~width ~height in
           let ctx = Canvas.make_context_obj st t.canvas_reg canvas in
           raw_set_prop ctx "canvas" (Obj el);
           raw_set_prop el "__context" (Obj ctx);
           Obj ctx)
      | _ -> type_error st "getContext on a non-element");
  (* document object *)
  let body = make_element t "body" in
  t.body <- body;
  raw_set_prop document_obj "body" (Obj body);
  let def_doc name fn =
    raw_set_prop document_obj name (Obj (make_host_fn st name fn))
  in
  def_doc "createElement" (fun st _ args ->
      touch t st "createElement";
      let tag = to_string st (Interp.Builtins.arg 0 args) in
      Obj (make_element t tag));
  def_doc "getElementById" (fun st _ args ->
      touch t st "getElementById";
      let id = to_string st (Interp.Builtins.arg 0 args) in
      match find_by_id st t.body id with
      | Some el -> Obj el
      | None -> Null);
  def_doc "createTextNode" (fun st _ args ->
      touch t st "createTextNode";
      let text = to_string st (Interp.Builtins.arg 0 args) in
      let el = make_element t "#text" in
      raw_set_prop el "textContent" (Str text);
      Obj el);
  raw_set_prop st.global_obj "document" (Obj document_obj);
  (* window aliases itself, as in browsers *)
  raw_set_prop st.global_obj "window" (Obj st.global_obj);
  t

(* ------------------------------------------------------------------ *)
(* Event dispatch (used by the harness to script user interaction)      *)

let make_event t ~ty ~x ~y =
  let st = t.st in
  let ev = make_obj st in
  raw_set_prop ev "type" (Str ty);
  raw_set_prop ev "clientX" (Num x);
  raw_set_prop ev "clientY" (Num y);
  raw_set_prop ev "pageX" (Num x);
  raw_set_prop ev "pageY" (Num y);
  raw_set_prop ev "preventDefault"
    (Obj (make_host_fn st "preventDefault" (fun _ _ _ -> Undefined)));
  ev

(* Synchronously dispatch to all listeners of (element, type). *)
let dispatch t el ty ~x ~y =
  let ev = make_event t ~ty ~x ~y in
  raw_set_prop ev "target" (Obj el);
  let fired = ref 0 in
  List.iter
    (fun (oid, lty, cb) ->
       if oid = el.oid && String.equal lty ty then begin
         incr fired;
         ignore (t.st.apply t.st cb (Obj el) [ Obj ev ])
       end)
    (List.rev t.listeners);
  !fired

(* Schedule a dispatch on the event loop at an absolute virtual time. *)
let stats t = (t.dom_accesses, t.canvas_accesses)

let canvas_of_element t el =
  match raw_get_own el "__context" with
  | Some (Obj ctx) -> Hashtbl.find_opt t.canvas_reg ctx.oid
  | _ -> None
