(* Scope resolution for MiniJS (stage 1 of the static analyzer).

   Pre-ES6 JavaScript has exactly two binding constructs the analysis
   must honour: [var] declarations hoist to the enclosing *function*
   (blocks are transparent — the Sec. 3.3 example of the paper hinges
   on this), and function declarations/parameters bind in their own
   frame. This module indexes every function in the program (the top
   level is function 0), resolves each name occurrence to the frame
   that owns it, and records every definition reaching a binding (the
   effect and alias stages consume these). *)

open Jsir

type fid = int

module SS = Set.Make (String)

type root =
  | Rglobal of string
  | Rlocal of fid * string (* a [var]/param owned by a non-toplevel frame *)

let root_compare = compare
let root_name = function Rglobal n -> n | Rlocal (_, n) -> n

module Root = struct
  type t = root

  let compare = root_compare
end

module RS = Set.Make (Root)
module RM = Map.Make (Root)

type func_rec = {
  fid : fid;
  fname : string option;
  params : string list;
  parent : fid option;
  locals : SS.t; (* params + own name + [hoisted body] *)
  body : Ast.stmt list;
  line : int;
}

(* A definition reaching a binding: the RHS expression (with the frame
   it appears in and, when it is syntactically a function, that
   function's id), or an unknown source (for-in binders, catch params,
   [delete], unresolvable call sites). *)
type def =
  | Dexpr of fid * Ast.expr * fid option
  | Dunknown

type t = {
  funcs : func_rec array;
  defs : (root, def list) Hashtbl.t;
  calls : (root, (fid * (Ast.expr * fid option) list) list) Hashtbl.t;
      (* call sites with an identifier callee, newest first *)
  prop_funcs : (string, fid list) Hashtbl.t;
      (* functions assigned to a property of that name anywhere *)
  resolved : root Ceres_util.Strtbl.t array;
      (* per function: name -> root, filled on first query *)
  mutable sites_memo : (root, string list option) Hashtbl.t;
  swap_defs : (Ast.pos, root * root) Hashtbl.t;
      (* position of a stored def RHS -> the (canonical) root pair it
         is a swap move of *)
  swap_pairs : (root * root, unit) Hashtbl.t;
      (* canonical pairs joined by a recognized swap idiom *)
}

(* Swap-def tags are keyed by an expression's source position. *)
let pos_key (e : Ast.expr) = e.at.left

(* The names one function body binds (its [var]s, for/for-in heads,
   function declarations and catch parameters), without descending
   into nested functions: the interpreter's own hoisting rule. *)
let hoisted body =
  SS.of_list
    (Resolve.catch_names_stmts body @ Resolve.hoisted_names [] body)

(* ------------------------------------------------------------------ *)

let resolve_chain chain name : root =
  let rec go = function
    | [] -> Rglobal name
    | (fid, locals) :: rest ->
      if SS.mem name locals then
        if fid = 0 then Rglobal name else Rlocal (fid, name)
      else go rest
  in
  go chain

(* [resolve_chain] over the frames from [fid] up to the root, innermost
   first, walked through the parent links without building the chain. *)
let resolve_in t fid name : root =
  let rec go f =
    let fr = t.funcs.(f) in
    if SS.mem name fr.locals then
      if f = 0 then Rglobal name else Rlocal (f, name)
    else match fr.parent with None -> Rglobal name | Some p -> go p
  in
  go fid

let push tbl key v =
  let old = match Hashtbl.find_opt tbl key with Some l -> l | None -> [] in
  Hashtbl.replace tbl key (v :: old)

let resolve_program (p : Ast.program) : t =
  let funcs = ref [] in
  let next = ref 0 in
  let t_defs = Hashtbl.create 64 in
  let t_calls = Hashtbl.create 64 in
  let t_props = Hashtbl.create 16 in
  let t_swap_redirect : (Ast.pos, Ast.expr) Hashtbl.t = Hashtbl.create 8 in
  let t_swap_defs : (Ast.pos, root * root) Hashtbl.t = Hashtbl.create 8 in
  let t_swap_pairs : (root * root, unit) Hashtbl.t = Hashtbl.create 8 in
  (* chain: innermost first, list of (fid, locals) *)
  let add_def chain name d = push t_defs (resolve_chain chain name) d in
  (* Walk returns the fid when the expression is syntactically a
     function, so definitions and call arguments can be linked to it. *)
  let rec walk_func ~fname ~parent (f : Ast.func) chain : fid =
    let fid = !next in
    incr next;
    let locals =
      SS.union (SS.of_list f.params)
        (SS.union (hoisted f.body)
           (match fname with Some n -> SS.singleton n | None -> SS.empty))
    in
    (* A named function expression binds its own name inside itself;
       keeping the name out of [locals] for declarations is harmless
       because the declaring frame already owns it. *)
    let rec_ =
      { fid;
        fname;
        params = f.params;
        parent;
        locals;
        body = f.body;
        line = f.fspan.left.line }
    in
    funcs := rec_ :: !funcs;
    let chain' = (fid, locals) :: chain in
    (* The self-name binds to the function itself inside its own body
       (named function expressions and declarations alike) — without
       this def, recursive calls resolve to a def-less binding and
       every self-recursive function is demoted to [calls_unknown]. *)
    (match fname with
     | Some n ->
       add_def chain' n (Dexpr (fid, Ast.mk (Ast.Function_expr f), Some fid))
     | None -> ());
    walk_stmts chain' f.body;
    fid
  and cur chain = fst (List.hd chain)
  and walk_stmts chain (l : Ast.stmt list) =
    (* Consecutive swap idiom [t = a; a = b; b = t]: at [b = t] the
       temp provably holds [a]'s pre-swap value (nothing redefines it
       in between), so the stored def for [b] is redirected to [a] for
       the alias oracle, and both moves are tagged as swap moves of
       the pair (a, b) — [swap_distinct] builds on these tags. *)
    (match l with
     | { s = Ast.Expr_stmt
           { e = Ast.Assign (Ast.Tgt_ident tn, None,
                             ({ e = Ast.Ident an; _ } as ea)); _ }; _ }
       :: { s = Ast.Expr_stmt
              { e = Ast.Assign (Ast.Tgt_ident an', None,
                                ({ e = Ast.Ident bn; _ } as eb)); _ }; _ }
       :: { s = Ast.Expr_stmt
              { e = Ast.Assign (Ast.Tgt_ident bn', None,
                                ({ e = Ast.Ident tn'; _ } as et)); _ }; _ }
       :: _
       when String.equal an an' && String.equal bn bn'
            && String.equal tn tn'
            && (not (String.equal tn an))
            && (not (String.equal tn bn))
            && not (String.equal an bn) ->
       let ra = resolve_chain chain an and rb = resolve_chain chain bn in
       let pair = if root_compare ra rb <= 0 then (ra, rb) else (rb, ra) in
       Hashtbl.replace t_swap_redirect (pos_key et) ea;
       Hashtbl.replace t_swap_defs (pos_key ea) pair;
       Hashtbl.replace t_swap_defs (pos_key eb) pair;
       Hashtbl.replace t_swap_pairs pair ()
     | _ -> ());
    match l with
    | [] -> ()
    | s :: rest ->
      walk_stmt chain s;
      walk_stmts chain rest
  and walk_stmt chain (st : Ast.stmt) =
    match st.s with
    | Ast.Var_decl ds -> var_decls chain ds
    | Ast.For (_, Some (Ast.Init_var ds), c, u, b) ->
      var_decls chain ds;
      Option.iter (walk_sub chain) c;
      Option.iter (walk_sub chain) u;
      walk_stmt chain b
    | Ast.For_in (_, (Ast.Binder_var n | Ast.Binder_ident n), _, _) ->
      add_def chain n Dunknown;
      children chain st
    | Ast.Try (b, catch, fin) ->
      walk_stmts chain b;
      Option.iter
        (fun (p, cb) ->
           add_def chain p Dunknown;
           walk_stmts chain cb)
        catch;
      Option.iter (walk_stmts chain) fin
    | Ast.Block b -> walk_stmts chain b
    | Ast.Func_decl f ->
      let fid = walk_func ~fname:f.fname ~parent:(Some (cur chain)) f chain in
      (match f.fname with
       | Some n ->
         add_def chain n
           (Dexpr (cur chain, Ast.mk (Ast.Function_expr f), Some fid))
       | None -> ())
    | Ast.Switch (scr, cases) ->
      walk_sub chain scr;
      List.iter
        (fun (g, body) ->
           Option.iter (walk_sub chain) g;
           walk_stmts chain body)
        cases
    | _ -> children chain st
  and children chain st =
    Ast.iter_stmt ~stmt:(walk_stmt chain) ~expr:(walk_sub chain) st
  and var_decls chain ds =
    List.iter
      (fun (n, init) ->
         match init with
         | Some e ->
           let vf = walk_expr chain e in
           add_def chain n (Dexpr (cur chain, e, vf))
         | None -> ())
      ds
  and walk_sub chain e = ignore (walk_expr chain e)
  and walk_expr chain (e : Ast.expr) : fid option =
    match e.e with
    | Ast.Function_expr f ->
      Some (walk_func ~fname:f.fname ~parent:(Some (cur chain)) f chain)
    | Ast.Ident _ -> None
    | Ast.Object_lit props ->
      List.iter
        (fun (p, v) ->
           match walk_expr chain v with
           | Some vf -> push t_props p vf
           | None -> ())
        props;
      None
    | Ast.Call (callee, args) | Ast.New (callee, args) ->
      let arg_fids = List.map (fun a -> (a, walk_expr chain a)) args in
      (match callee.e with
       | Ast.Ident f ->
         push t_calls (resolve_chain chain f) (cur chain, arg_fids)
       | _ -> walk_sub chain callee);
      None
    | Ast.Unop (Ast.Delete, { e = Ast.Ident x; _ }) ->
      add_def chain x Dunknown;
      None
    | Ast.Assign (Ast.Tgt_ident n, _, rhs) ->
      let vf = walk_expr chain rhs in
      (* The closing move of a recognized swap idiom stores the
         value the temp copied out of the pair's other binding. *)
      let de, dvf =
        match Hashtbl.find_opt t_swap_redirect (pos_key rhs) with
        | Some src -> (src, None)
        | None -> (rhs, vf)
      in
      add_def chain n (Dexpr (cur chain, de, dvf));
      None
    | Ast.Assign (Ast.Tgt_member (o, p), _, rhs) ->
      walk_sub chain o;
      (match walk_expr chain rhs with
       | Some vf -> push t_props p vf
       | None -> ());
      None
    | Ast.Update (_, _, Ast.Tgt_ident n) ->
      add_def chain n Dunknown;
      None
    | _ ->
      Ast.iter_expr ~stmt:(walk_stmt chain) ~expr:(walk_sub chain) e;
      None
  in
  let top_locals = hoisted p.stmts in
  let top =
    { fid = 0;
      fname = None;
      params = [];
      parent = None;
      locals = top_locals;
      body = p.stmts;
      line = 0 }
  in
  next := 1;
  funcs := [ top ];
  let chain = [ (0, top_locals) ] in
  walk_stmts chain p.stmts;
  let arr = Array.make !next top in
  List.iter (fun (f : func_rec) -> arr.(f.fid) <- f) !funcs;
  { funcs = arr;
    defs = t_defs;
    calls = t_calls;
    prop_funcs = t_props;
    resolved = Array.init !next (fun _ -> Ceres_util.Strtbl.create 16);
    sites_memo = Hashtbl.create 32;
    swap_defs = t_swap_defs;
    swap_pairs = t_swap_pairs }

(* ------------------------------------------------------------------ *)

let functions t = Array.to_list t.funcs
let func t fid = t.funcs.(fid)
let resolve t fid name =
  let memo = t.resolved.(fid) in
  match Ceres_util.Strtbl.find memo name with
  | r -> r
  | exception Not_found ->
    let r = resolve_in t fid name in
    Ceres_util.Strtbl.add memo name r;
    r

type binding = Local | Captured of fid | Global

let classify t fid name =
  match resolve t fid name with
  | Rglobal _ -> Global
  | Rlocal (owner, _) -> if owner = fid then Local else Captured owner

(* ------------------------------------------------------------------ *)
(* Definitions, call-site parameter binding, function candidates. *)

let is_param t = function
  | Rlocal (fid, n) -> List.mem n t.funcs.(fid).params
  | Rglobal _ -> false

let rec param_index n = function
  | [] -> None
  | p :: rest -> if String.equal p n then Some 0
    else Option.map succ (param_index n rest)

(* Which functions can a root be bound to? Direct function defs only
   (declarations, function-expression initialisers and assignments). *)
let funcs_of_defs defs =
  List.filter_map (function Dexpr (_, _, Some f) -> Some f | _ -> None) defs
  |> List.sort_uniq compare

let direct_defs t root =
  match Hashtbl.find_opt t.defs root with Some l -> List.rev l | None -> []

(* Roots that a given function is bound to (for call-site discovery). *)
let roots_of_func t fid : root list =
  Hashtbl.fold
    (fun root defs acc ->
       if List.exists (function Dexpr (_, _, Some f) -> f = fid | _ -> false)
            defs
       then root :: acc
       else acc)
    t.defs []

let call_sites t root =
  match Hashtbl.find_opt t.calls root with Some l -> List.rev l | None -> []

(* All definitions reaching a binding. For parameters these are the
   matching arguments of every discovered call site of every function
   the parameter's frame may be bound to; an uncallable or
   partially-applied site contributes [Dunknown]. *)
let defs_of t root : def list =
  if not (is_param t root) then
    match direct_defs t root with [] -> [ Dunknown ] | l -> l
  else
    match root with
    | Rglobal _ -> [ Dunknown ]
    | Rlocal (fid, n) -> (
        match param_index n t.funcs.(fid).params with
        | None -> [ Dunknown ]
        | Some k ->
          let sites =
            roots_of_func t fid
            |> List.concat_map (fun r -> call_sites t r)
          in
          if sites = [] then [ Dunknown ]
          else
            List.map
              (fun (caller, args) ->
                 match List.nth_opt args k with
                 | Some (e, vf) -> Dexpr (caller, e, vf)
                 | None -> Dunknown)
              sites)

let funcs_of_root t root = funcs_of_defs (defs_of t root)

let prop_funcs t name =
  match Hashtbl.find_opt t.prop_funcs name with
  | Some l -> List.sort_uniq compare l
  | None -> []

(* ------------------------------------------------------------------ *)
(* Allocation-site sets: the alias oracle.

   A root is *alias-isolated* when every definition that can reach it
   is a fresh allocation (literal, [new], a copying builtin like
   [slice]/[getImageData], or the [.data] buffer of such a fresh host
   object). Each allocation occurrence gets a stable site key derived
   from its source position; two isolated roots may alias iff their
   site sets intersect (e.g. two reads of the same [img.data]).
   Anything assigned from another variable, a parameter with unknown
   call sites, or an arbitrary expression is not isolated and is
   assumed to alias everything. *)

let fresh_method = function
  | "slice" | "concat" | "splice" | "split" | "map" | "filter"
  | "getImageData" | "createImageData" ->
    true
  | _ -> false

let site_key (e : Ast.expr) suffix =
  Printf.sprintf "%d:%d%s" e.at.left.line e.at.left.col suffix

(* Shared expression walk of the site evaluator, parameterized over
   what an identifier resolves to (the fixpoint uses its iteration
   env; the standalone expression query uses the memoized oracle).
   Scalar-shaped expressions contribute *no* sites: a primitive —
   [null], a number, a comparison — can never alias a heap root. *)
let rec eval_sites_expr ~on_ident fid (e : Ast.expr) : string list option =
  let union a b =
    match (a, b) with
    | Some s1, Some s2 -> Some (List.sort_uniq String.compare (s1 @ s2))
    | _ -> None
  in
  match e.e with
  | Ast.Array_lit _ | Ast.Object_lit _ | Ast.New _ | Ast.Function_expr _ ->
    Some [ site_key e "" ]
  | Ast.Call ({ e = Ast.Member (_, m); _ }, _) when fresh_method m ->
    Some [ site_key e "" ]
  | Ast.Member (b, p) -> (
      (* e.g. [img.data]: same buffer for every read of the same
         [img], so derive the site from the base's sites. *)
      match eval_sites_expr ~on_ident fid b with
      | Some sites -> Some (List.map (fun s -> s ^ "." ^ p) sites)
      | None -> None)
  | Ast.Ident x -> on_ident fid x
  | Ast.Number _ | Ast.String _ | Ast.Bool _ | Ast.Null | Ast.Undefined
  | Ast.Binop _ | Ast.Unop _ | Ast.Update _ ->
    Some []
  | Ast.Logical (_, l, r) ->
    union (eval_sites_expr ~on_ident fid l) (eval_sites_expr ~on_ident fid r)
  | Ast.Cond (_, th, el) ->
    union (eval_sites_expr ~on_ident fid th)
      (eval_sites_expr ~on_ident fid el)
  | Ast.Seq (_, r) | Ast.Assign (_, _, r) -> eval_sites_expr ~on_ident fid r
  | _ -> None

(* Kleene iteration from [Some []] over the root dependency closure:
   copy cycles (the swap idiom [tmp = u; u = u0; u0 = tmp]) converge
   to the union of the allocation defs around the cycle instead of
   collapsing to "unknown". *)
let alloc_sites t root : string list option =
  match Hashtbl.find_opt t.sites_memo root with
  | Some r -> r
  | None ->
    let env : (root, string list option) Hashtbl.t = Hashtbl.create 16 in
    let changed = ref false in
    let rec eval_root r =
      match Hashtbl.find_opt t.sites_memo r with
      | Some res -> res
      | None -> (
          match Hashtbl.find_opt env r with
          | Some a -> a
          | None ->
            Hashtbl.replace env r (Some []);
            let res = eval_defs r in
            if Hashtbl.find env r <> res then begin
              Hashtbl.replace env r res;
              changed := true
            end;
            res)
    and eval_defs r =
      defs_of t r
      |> List.fold_left
           (fun acc d ->
              match (acc, d) with
              | None, _ -> None
              | _, Dunknown -> None
              | Some sites, Dexpr (fid, e, _) -> (
                  match eval_expr fid e with
                  | Some s -> Some (List.rev_append s sites)
                  | None -> None))
           (Some [])
      |> Option.map (List.sort_uniq String.compare)
    and eval_expr fid e =
      eval_sites_expr ~on_ident:(fun fid x -> eval_root (resolve t fid x))
        fid e
    in
    ignore (eval_root root);
    let rec iterate () =
      changed := false;
      let roots = Hashtbl.fold (fun r _ acc -> r :: acc) env [] in
      List.iter
        (fun r ->
           let res = eval_defs r in
           if Hashtbl.find env r <> res then begin
             Hashtbl.replace env r res;
             changed := true
           end)
        roots;
      if !changed then iterate ()
    in
    iterate ();
    Hashtbl.iter (fun r res -> Hashtbl.replace t.sites_memo r res) env;
    Hashtbl.find t.sites_memo root

let expr_sites t fid e =
  eval_sites_expr ~on_ident:(fun fid x -> alloc_sites t (resolve t fid x))
    fid e

(* A pair joined by the swap idiom never aliases when each root has
   exactly one allocation def (with distinct sites) and every other
   def of either root is a swap move of this very pair: the two
   bindings then always hold the two distinct allocations, permuted
   (the only program points where they coincide are inside the
   three-statement idiom itself, where no call or loop intervenes). *)
let swap_distinct t r1 r2 =
  let pair = if root_compare r1 r2 <= 0 then (r1, r2) else (r2, r1) in
  Hashtbl.mem t.swap_pairs pair
  && (not (is_param t r1))
  && (not (is_param t r2))
  &&
  let alloc_site_of r =
    let allocs, rest =
      List.partition_map
        (fun d ->
           match d with
           | Dexpr
               ( _,
                 ({ e = Ast.Array_lit _ | Ast.Object_lit _ | Ast.New _; _ }
                  as e),
                 _ ) ->
             Either.Left (site_key e "")
           | Dexpr
               ( _,
                 ({ e = Ast.Call ({ e = Ast.Member (_, m); _ }, _); _ } as e),
                 _ )
             when fresh_method m ->
             Either.Left (site_key e "")
           | d -> Either.Right d)
        (defs_of t r)
    in
    let swap_move = function
      | Dexpr (_, e, _) -> (
          match Hashtbl.find_opt t.swap_defs (pos_key e) with
          | Some p -> p = pair
          | None -> false)
      | Dunknown -> false
    in
    match allocs with
    | [ s ] when List.for_all swap_move rest -> Some s
    | _ -> None
  in
  match (alloc_site_of r1, alloc_site_of r2) with
  | Some s1, Some s2 -> not (String.equal s1 s2)
  | _ -> false

let rec may_alias_k t depth r1 r2 =
  if root_compare r1 r2 = 0 then true
  else if swap_distinct t r1 r2 then false
  else
    let sites_disjoint =
      match (alloc_sites t r1, alloc_sites t r2) with
      | Some s1, Some s2 -> not (List.exists (fun s -> List.mem s s2) s1)
      | _ -> false
    in
    if sites_disjoint then false
    else if depth <= 0 then true
    else param_pair_alias t depth r1 r2

(* Both parameters of the same function: a loop verdict inside the
   callee must hold at every discovered call site, so the pair may
   alias only if the actual arguments may alias at one of them. *)
and param_pair_alias t depth r1 r2 =
  match (r1, r2) with
  | Rlocal (f1, n1), Rlocal (f2, n2)
    when f1 = f2 && is_param t r1 && is_param t r2 -> (
      let fr = t.funcs.(f1) in
      match (param_index n1 fr.params, param_index n2 fr.params) with
      | Some k1, Some k2 ->
        let sites =
          roots_of_func t f1 |> List.concat_map (fun r -> call_sites t r)
        in
        sites = []
        || List.exists
             (fun (caller, args) ->
                match (List.nth_opt args k1, List.nth_opt args k2) with
                | Some (e1, _), Some (e2, _) ->
                  arg_may_alias t depth caller e1 e2
                | _ -> true)
             sites
      | _ -> true)
  | _ -> true

and arg_may_alias t depth caller (e1 : Ast.expr) (e2 : Ast.expr) =
  match (e1.e, e2.e) with
  | Ast.Ident x1, Ast.Ident x2 ->
    may_alias_k t (depth - 1) (resolve t caller x1) (resolve t caller x2)
  | _ -> (
      match (expr_sites t caller e1, expr_sites t caller e2) with
      | Some s1, Some s2 -> List.exists (fun s -> List.mem s s2) s1
      | _ -> true)

let may_alias t r1 r2 = may_alias_k t 3 r1 r2
