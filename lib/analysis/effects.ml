(* Effect summaries (stage 2 of the static analyzer).

   A bottom-up may-effect summary per function, closed under a
   fixpoint over the (name-resolved) call graph: scalar global/capture
   reads and writes, heap reads and writes attributed to memory roots
   (or to parameter positions, translated at each call site), I/O
   (DOM, canvas, console, timers — everything the paper's dynamic
   stage counts as a host access), and an honest [calls_unknown] bit
   when a callee cannot be resolved. Intrinsics and the DOM/canvas
   builtins carry hand-written summaries; user functions reached
   through variables, parameters (via discovered call sites),
   properties and prototypes are joined over all candidates. *)

open Jsir
module SS = Scope.SS
module RS = Scope.RS

module IS = Set.Make (Int)

type region =
  | Fresh (* allocated within the current activation *)
  | Root of Scope.root
  | Param of int (* reachable from the enclosing function's parameter *)
  | RThis
  | RUnknown

let region_join a b =
  match (a, b) with
  (* Fresh aliases nothing, so it is the identity of the may-alias
     join: a value that is either fresh or from [r] can only ever
     touch [r]. *)
  | Fresh, r | r, Fresh -> r
  | RThis, RThis -> RThis
  | Param i, Param j when i = j -> Param i
  | Root r1, Root r2 when Scope.root_compare r1 r2 = 0 -> Root r1
  | _ -> RUnknown

type summary = {
  greads : RS.t; (* scalar global/captured roots read *)
  gwrites : RS.t; (* scalar global/captured roots written *)
  hread_roots : RS.t;
  hread_params : IS.t;
  hread_unknown : bool;
  hwrite_roots : RS.t;
  hwrite_params : IS.t;
  hwrite_unknown : bool;
  this_reads : bool;
  this_writes : bool;
  io : bool;
  calls_unknown : bool;
  returns_shared : bool; (* may return a non-fresh, non-param value *)
  returns_params : IS.t; (* parameter positions possibly returned *)
}

let bottom =
  { greads = RS.empty;
    gwrites = RS.empty;
    hread_roots = RS.empty;
    hread_params = IS.empty;
    hread_unknown = false;
    hwrite_roots = RS.empty;
    hwrite_params = IS.empty;
    hwrite_unknown = false;
    this_reads = false;
    this_writes = false;
    io = false;
    calls_unknown = false;
    returns_shared = false;
    returns_params = IS.empty }

let join a b =
  { greads = RS.union a.greads b.greads;
    gwrites = RS.union a.gwrites b.gwrites;
    hread_roots = RS.union a.hread_roots b.hread_roots;
    hread_params = IS.union a.hread_params b.hread_params;
    hread_unknown = a.hread_unknown || b.hread_unknown;
    hwrite_roots = RS.union a.hwrite_roots b.hwrite_roots;
    hwrite_params = IS.union a.hwrite_params b.hwrite_params;
    hwrite_unknown = a.hwrite_unknown || b.hwrite_unknown;
    this_reads = a.this_reads || b.this_reads;
    this_writes = a.this_writes || b.this_writes;
    io = a.io || b.io;
    calls_unknown = a.calls_unknown || b.calls_unknown;
    returns_shared = a.returns_shared || b.returns_shared;
    returns_params = IS.union a.returns_params b.returns_params }

let equal_summary (a : summary) (b : summary) = compare a b = 0

type t = { scope : Scope.t; summaries : summary array }

(* ------------------------------------------------------------------ *)
(* Builtin tables. *)

let pure_namespace = function "Math" | "JSON" -> true | _ -> false
let io_namespace = function
  | "console" | "document" | "window" | "Date" | "performance" -> true
  | _ -> false

let pure_global_fn = function
  | "parseInt" | "parseFloat" | "isNaN" | "isFinite" | "String" | "Number"
  | "Boolean" | "Array" ->
    true
  | _ -> false

let array_mutator = function
  | "push" | "pop" | "shift" | "unshift" | "splice" | "reverse" | "sort" ->
    true
  | _ -> false

let receiver_reader = function
  | "slice" | "concat" | "join" | "indexOf" | "lastIndexOf" | "charAt"
  | "charCodeAt" | "substring" | "substr" | "toLowerCase" | "toUpperCase"
  | "toFixed" | "toString" | "split" | "replace" | "hasOwnProperty" ->
    true
  | _ -> false

let receiver_iterator = function
  | "map" | "forEach" | "filter" | "reduce" | "reduceRight" | "some"
  | "every" ->
    true
  | _ -> false

(* DOM / canvas / timer methods the interpreter's host layer serves;
   mirrors what {!Dom} charges as a host access. *)
let io_method = function
  | "getElementById" | "createElement" | "appendChild" | "removeChild"
  | "addEventListener" | "removeEventListener" | "setAttribute"
  | "getAttribute" | "getContext" | "fillRect" | "clearRect" | "strokeRect"
  | "fillText" | "strokeText" | "beginPath" | "closePath" | "moveTo"
  | "lineTo" | "stroke" | "fill" | "arc" | "rect" | "drawImage"
  | "putImageData" | "getImageData" | "createImageData" | "save" | "restore"
  | "translate" | "rotate" | "transform" | "setTransform"
  | "requestAnimationFrame" | "setTimeout" | "setInterval" | "clearTimeout"
  | "clearInterval" | "focus" | "blur" | "preventDefault" | "stopPropagation"
  | "log" | "warn" | "error" | "now" | "querySelector" | "querySelectorAll" ->
    true
  | _ -> false

(* Builtins whose result is a freshly allocated object. *)
let fresh_call_method m = Scope.fresh_method m

(* ------------------------------------------------------------------ *)

(* Is an unshadowed global namespace identifier? *)
let namespace_of scope fid (e : Ast.expr) =
  match e.e with
  | Ast.Ident x -> (
      match Scope.classify scope fid x with
      | Scope.Global when pure_namespace x || io_namespace x -> Some x
      | _ -> None)
  | _ -> None

(* Syntactically scalar-valued expressions: may not carry an object
   reference, hence are always safe to return or store. *)
let rec scalar_shaped (e : Ast.expr) =
  match e.e with
  | Ast.Number _ | Ast.String _ | Ast.Bool _ | Ast.Null | Ast.Undefined ->
    true
  | Ast.Binop (_, _, _) | Ast.Unop (_, _) | Ast.Update (_, _, _) -> true
  | Ast.Cond (_, t, f) -> scalar_shaped t && scalar_shaped f
  | Ast.Logical (_, l, r) -> scalar_shaped l && scalar_shaped r
  | Ast.Seq (_, r) -> scalar_shaped r
  | _ -> false

(* Region of an expression within function [fid].

   [param_as_root]: at a call boundary a parameter access is
   translated through the argument ([Param i]); inside the owning
   function's own loops the parameter *is* the root [Rlocal (fid, p)].
   Loop analysis passes [true]. [local_env] lets the loop analysis
   overlay per-iteration knowledge (fresh allocations). *)
let rec region_of_gen (t : t) ?(param_as_root = false)
    ?(local_env = fun (_ : string) -> None) ?(seen = []) fid (e : Ast.expr) :
  region =
  let region_of = region_of_gen t ~param_as_root ~local_env ~seen in
  match e.e with
  | Ast.Array_lit _ | Ast.Object_lit _ | Ast.Function_expr _ | Ast.New _ ->
    Fresh
  | Ast.Number _ | Ast.String _ | Ast.Bool _ | Ast.Null | Ast.Undefined ->
    Fresh (* scalars alias nothing *)
  | Ast.This -> RThis
  | Ast.Ident x -> (
      match local_env x with
      | Some r -> r
      | None -> (
          match Scope.resolve t.scope fid x with
          | Scope.Rglobal n -> Root (Scope.Rglobal n)
          | Scope.Rlocal (owner, n) when owner <> fid ->
            Root (Scope.Rlocal (owner, n))
          | Scope.Rlocal (owner, n) ->
            let fr = Scope.func t.scope owner in
            let rec idx i = function
              | [] -> None
              | p :: rest ->
                if String.equal p n then Some i else idx (i + 1) rest
            in
            (match idx 0 fr.params with
             | Some k ->
               if param_as_root then Root (Scope.Rlocal (owner, n))
               else Param k
             | None -> local_region t ~param_as_root ~seen owner n)))
  | Ast.Member (b, _) | Ast.Index (b, _) -> (
      (* Reachable-from collapse: a value loaded from region R stays
         attributed to R. *)
      match region_of fid b with
      | Fresh -> Fresh
      | r -> r)
  | Ast.Call ({ e = Ast.Member (_, m); _ }, _) when fresh_call_method m ->
    Fresh
  | Ast.Call (callee, args) -> (
      match callee_fids t fid callee with
      | Some fids when fids <> [] ->
        List.fold_left
          (fun acc f ->
             let s = t.summaries.(f) in
             if s.returns_shared then RUnknown
             else
               IS.fold
                 (fun k acc ->
                    region_join acc
                      (match List.nth_opt args k with
                       | Some a -> region_of fid a
                       | None -> Fresh (* missing arg: undefined *)))
                 s.returns_params acc)
          Fresh fids
      | _ -> RUnknown)
  | Ast.Cond (_, th, el) ->
    region_join (region_of fid th) (region_of fid el)
  | Ast.Seq (_, r) -> region_of fid r
  | Ast.Assign (_, _, rhs) -> region_of fid rhs
  | Ast.Binop _ | Ast.Unop _ | Ast.Logical _ | Ast.Update _ -> Fresh
  | Ast.Intrinsic _ -> RUnknown

(* Region of a local variable from its reaching definitions. The
   per-iteration overlay deliberately does not apply inside def RHSs:
   they may come from other contexts. [seen] breaks definition cycles
   ([var a = b; var b = a]). *)
and local_region t ~param_as_root ~seen owner name : region =
  if List.mem (owner, name) seen then RUnknown
  else
    let seen = (owner, name) :: seen in
    let defs = Scope.defs_of t.scope (Scope.Rlocal (owner, name)) in
    List.fold_left
      (fun acc d ->
         match d with
         | Scope.Dunknown -> RUnknown
         | Scope.Dexpr (dfid, e, _) ->
           if scalar_shaped e then acc
           else
             region_join acc
               (region_of_gen t ~param_as_root
                  ~local_env:(fun _ -> None)
                  ~seen dfid e))
      Fresh defs

(* Resolve a callee expression to user-function candidates. [None]
   means "not a user function" (builtin or unknown — caller decides). *)
and callee_fids t fid (callee : Ast.expr) : Scope.fid list option =
  match callee.e with
  | Ast.Ident f -> (
      match Scope.funcs_of_root t.scope (Scope.resolve t.scope fid f) with
      | [] -> None
      | fids -> Some fids)
  | Ast.Function_expr fn -> (
      match fid_of_func t fn with Some f -> Some [ f ] | None -> None)
  | Ast.Member (_, m) -> (
      match Scope.prop_funcs t.scope m with [] -> None | fids -> Some fids)
  | _ -> None

(* Recover the Scope-assigned id of a syntactic function (physical
   match on the body). *)
and fid_of_func t (f : Ast.func) : Scope.fid option =
  let recs = Scope.functions t.scope in
  let matches (fr : Scope.func_rec) =
    fr.body == f.body && fr.params = f.params
  in
  match List.filter matches recs with [ fr ] -> Some fr.fid | _ -> None

(* ------------------------------------------------------------------ *)
(* Call-site effect: the callee's summary translated into the caller's
   frame through the argument and receiver regions. *)

let heap_read_region s (r : region) =
  match r with
  | Fresh -> s
  | Root root -> { s with hread_roots = RS.add root s.hread_roots }
  | Param k -> { s with hread_params = IS.add k s.hread_params }
  | RThis -> { s with this_reads = true }
  | RUnknown -> { s with hread_unknown = true }

let heap_write_region s (r : region) =
  match r with
  | Fresh -> s
  | Root root -> { s with hwrite_roots = RS.add root s.hwrite_roots }
  | Param k -> { s with hwrite_params = IS.add k s.hwrite_params }
  | RThis -> { s with this_writes = true }
  | RUnknown -> { s with hwrite_unknown = true }

let apply t ~(callees : Scope.fid list) ~(arg_region : int -> region)
    ~(receiver : region option) ~(is_new : bool) : summary =
  List.fold_left
    (fun acc f ->
       let s = t.summaries.(f) in
       let eff =
         { bottom with
           greads = s.greads;
           gwrites = s.gwrites;
           hread_roots = s.hread_roots;
           hwrite_roots = s.hwrite_roots;
           hread_unknown = s.hread_unknown;
           hwrite_unknown = s.hwrite_unknown;
           io = s.io;
           calls_unknown = s.calls_unknown
           (* return-value aliasing is NOT an effect of the call: it
              only matters where the caller itself returns or stores
              the value, which [region_of] tracks through the [Call]
              expression. *) }
       in
       let eff =
         IS.fold
           (fun k acc -> heap_read_region acc (arg_region k))
           s.hread_params eff
       in
       let eff =
         IS.fold
           (fun k acc -> heap_write_region acc (arg_region k))
           s.hwrite_params eff
       in
       let eff =
         if is_new then eff (* [new]: the receiver is fresh *)
         else
           match receiver with
           | Some r ->
             let eff = if s.this_reads then heap_read_region eff r else eff in
             if s.this_writes then heap_write_region eff r else eff
           | None ->
             (* plain call: [this] is the global object *)
             let eff =
               if s.this_reads then { eff with hread_unknown = true }
               else eff
             in
             if s.this_writes then { eff with hwrite_unknown = true }
             else eff
       in
       join acc eff)
    bottom callees

(* How a call site behaves; shared by the summary fixpoint and the
   loop-dependence walk. *)
type call_kind =
  | Cpure
  | Cio
  | Cmutate_receiver of string * Ast.expr (* push/splice/... on receiver *)
  | Cread_receiver of Ast.expr
  | Citerate of Ast.expr (* map/forEach/...: receiver read + callbacks *)
  | Cuser of Scope.fid list
  | Cunknown

let classify_call t fid (callee : Ast.expr) : call_kind =
  match callee.e with
  | Ast.Ident f -> (
      match Scope.funcs_of_root t.scope (Scope.resolve t.scope fid f) with
      | _ :: _ as fids -> Cuser fids
      | [] ->
        if pure_global_fn f && Scope.classify t.scope fid f = Scope.Global
        then Cpure
        else Cunknown)
  | Ast.Function_expr fn -> (
      match fid_of_func t fn with Some f -> Cuser [ f ] | None -> Cunknown)
  | Ast.Member (base, m) -> (
      match namespace_of t.scope fid base with
      | Some ("Math" | "JSON") -> Cpure
      | Some _ -> Cio
      | None ->
        if array_mutator m then Cmutate_receiver (m, base)
        else if receiver_iterator m then Citerate base
        else if receiver_reader m then Cread_receiver base
        else if io_method m then Cio
        else (
          match Scope.prop_funcs t.scope m with
          | _ :: _ as fids -> Cuser fids
          | [] -> Cunknown))
  | _ -> Cunknown

(* Resolve the callback arguments of an iterating/sorting builtin to
   user functions. [None] when some argument may be a function we
   cannot resolve (stay conservative); scalar literals are fine. *)
let callback_fids t fid (args : Ast.expr list) : Scope.fid list option =
  let ok = ref true in
  let fids =
    List.concat_map
      (fun (a : Ast.expr) ->
         match a.e with
         | Ast.Function_expr f -> (
             match fid_of_func t f with
             | Some f -> [ f ]
             | None ->
               ok := false;
               [])
         | Ast.Ident x -> (
             match
               Scope.funcs_of_root t.scope (Scope.resolve t.scope fid x)
             with
             | [] ->
               ok := false;
               []
             | fids -> fids)
         | Ast.Number _ | Ast.String _ | Ast.Bool _ | Ast.Null
         | Ast.Undefined ->
           []
         | _ ->
           ok := false;
           [])
      args
  in
  if !ok then Some fids else None

(* ------------------------------------------------------------------ *)
(* The per-function summary walk. *)

let summarize_function (t : t) (fr : Scope.func_rec) : summary =
  let fid = fr.fid in
  let acc = ref bottom in
  let add f = acc := f !acc in
  let region_of e = region_of_gen t fid e in
  let scalar_read name =
    match Scope.classify t.scope fid name with
    | Scope.Local -> ()
    | Scope.Captured owner ->
      add (fun s -> { s with greads = RS.add (Scope.Rlocal (owner, name)) s.greads })
    | Scope.Global ->
      if not (pure_namespace name || io_namespace name) then
        add (fun s -> { s with greads = RS.add (Scope.Rglobal name) s.greads })
  in
  let scalar_write name =
    match Scope.classify t.scope fid name with
    | Scope.Local -> ()
    | Scope.Captured owner ->
      add (fun s ->
          { s with gwrites = RS.add (Scope.Rlocal (owner, name)) s.gwrites })
    | Scope.Global ->
      add (fun s -> { s with gwrites = RS.add (Scope.Rglobal name) s.gwrites })
  in
  let heap_read r = add (fun s -> heap_read_region s r) in
  let heap_write r = add (fun s -> heap_write_region s r) in
  let merge eff = add (fun s -> join s eff) in
  let rec stmt (st : Ast.stmt) =
    match st.s with
    | Ast.Return (Some e) ->
      expr e;
      if not (scalar_shaped e) then (
        match region_of e with
        | Fresh -> ()
        | Param k ->
          add (fun s -> { s with returns_params = IS.add k s.returns_params })
        | _ -> add (fun s -> { s with returns_shared = true }))
    | Ast.For_in (_, binder, o, _) ->
      (match binder with
       | Ast.Binder_ident n -> scalar_write n
       | Ast.Binder_var _ -> ());
      heap_read (region_of o);
      Ast.iter_stmt ~stmt ~expr st
    | Ast.Func_decl _ -> () (* creating a closure has no effect *)
    | _ -> Ast.iter_stmt ~stmt ~expr st
  and expr (e : Ast.expr) =
    match e.e with
    | Ast.Ident x -> scalar_read x
    | Ast.Function_expr _ -> ()
    | Ast.Member (b, _) -> (
        expr b;
        match namespace_of t.scope fid b with
        | Some ("Math" | "JSON") -> ()
        | Some _ -> add (fun s -> { s with io = true })
        | None -> heap_read (region_of b))
    | Ast.Index (b, _) ->
      Ast.iter_expr ~stmt ~expr e;
      heap_read (region_of b)
    | Ast.Call (callee, args) -> call ~is_new:false callee args
    | Ast.New (callee, args) -> call ~is_new:true callee args
    | Ast.Unop (Ast.Delete, { e = Ast.Ident x; _ }) -> scalar_write x
    | Ast.Unop (Ast.Delete, { e = Ast.Member (b, _) | Ast.Index (b, _); _ }) ->
      expr b;
      heap_write (region_of b)
    | Ast.Assign (tgt, op, _) ->
      write ~read:(op <> None) tgt;
      Ast.iter_expr ~stmt ~expr e
    | Ast.Update (_, _, tgt) ->
      write ~read:true tgt;
      Ast.iter_expr ~stmt ~expr e
    | _ -> Ast.iter_expr ~stmt ~expr e
  and write ~read = function
    | Ast.Tgt_ident n ->
      if read then scalar_read n;
      scalar_write n
    | Ast.Tgt_member (b, _) | Ast.Tgt_index (b, _) ->
      if read then heap_read (region_of b);
      heap_write (region_of b)
  and call ~is_new callee args =
    (match callee.e with
     | Ast.Ident _ | Ast.Function_expr _ -> ()
     | Ast.Member (b, _) -> (
         match namespace_of t.scope fid b with
         | Some _ -> ()
         | None ->
           expr b;
           heap_read (region_of b))
     | _ -> expr callee);
    List.iter expr args;
    let arg_region k =
      match List.nth_opt args k with
      | Some a -> region_of a
      | None -> RUnknown
    in
    match classify_call t fid callee with
    | Cpure -> ()
    | Cio -> add (fun s -> { s with io = true })
    | Cmutate_receiver (m, recv) -> (
        heap_read (region_of recv);
        heap_write (region_of recv);
        (* sort's comparator runs too; the other mutators take data *)
        if String.equal m "sort" && args <> [] then
          match callback_fids t fid args with
          | Some cbs ->
            merge
              (apply t ~callees:cbs
                 ~arg_region:(fun _ -> region_of recv)
                 ~receiver:(Some (region_of recv)) ~is_new:false)
          | None -> add (fun s -> { s with calls_unknown = true }))
    | Cread_receiver recv -> heap_read (region_of recv)
    | Citerate recv -> (
        heap_read (region_of recv);
        (* callback parameters receive elements of the receiver's
           region (and scalar indices) *)
        match callback_fids t fid args with
        | Some cbs ->
          merge
            (apply t ~callees:cbs
               ~arg_region:(fun _ -> region_of recv)
               ~receiver:(Some (region_of recv)) ~is_new:false)
        | None -> add (fun s -> { s with calls_unknown = true }))
    | Cuser fids ->
      let receiver =
        match callee.e with
        | Ast.Member (b, _) -> Some (region_of b)
        | _ -> None
      in
      merge (apply t ~callees:fids ~arg_region ~receiver ~is_new)
    | Cunknown -> add (fun s -> { s with calls_unknown = true })
  in
  List.iter stmt fr.body;
  !acc

let max_rounds = 24

let infer (scope : Scope.t) : t =
  let n = List.length (Scope.functions scope) in
  let t = { scope; summaries = Array.make n bottom } in
  let rec loop round =
    if round >= max_rounds then ()
    else begin
      let changed = ref false in
      List.iter
        (fun (fr : Scope.func_rec) ->
           let s = summarize_function t fr in
           if not (equal_summary s t.summaries.(fr.fid)) then begin
             t.summaries.(fr.fid) <- s;
             changed := true
           end)
        (Scope.functions scope);
      if !changed then loop (round + 1)
    end
  in
  loop 0;
  t

let summary t fid = t.summaries.(fid)
let scope t = t.scope

let region_of t ?param_as_root ?local_env fid e =
  region_of_gen t ?param_as_root ?local_env fid e
