(* Loop-carried dependence analysis (stage 3).

   One pass per loop: a flow-sensitive walk of a single iteration
   tracking definitely-assigned scalars, per-iteration allocation
   regions, and a substitution environment for single-assignment
   affine locals; every heap access is attributed to a memory root and
   its subscript normalised ({!Subscript}); calls are folded in
   through the {!Effects} summaries — or, for resolvable single-callee
   calls, inlined: affine index helpers become linear forms inside
   subscripts, and straight-line callee bodies contribute their heap
   accesses with argument-substituted subscripts instead of a
   conservative summary blur. The end-of-walk resolution classifies
   written scalars (privatizable / typed reduction accumulator /
   carried), proves per-root footprint disjointness (including the
   anti-dependence-only case, safe under snapshot-fork execution), and
   assembles the verdict; negative verdicts carry pass-attributed
   blocking {!Verdict.fact}s — the why-not chain.

   Soundness contract (checked by the cross-validation harness): on a
   loop reported [Parallel] the dynamic analyzer may never observe an
   iteration-carried conflict triple beyond WAR triples on declared
   [war_roots]; on [Reduction] the only further carried conflicts are
   accumulating updates of the declared accumulators. *)

open Jsir
module SS = Scope.SS
module SM = Map.Make (String)
module RM = Scope.RM

type result = {
  loop_id : Ast.loop_id;
  kind : Ast.loop_kind;
  line : int;
  verdict : Verdict.t;
  notes : string list; (* sorted, deduped facts worth reporting *)
}

(* ------------------------------------------------------------------ *)
(* Per-loop mutable collection state (order-insensitive facts). *)

type sub_kind = Slin of Lin.t | Sprop of string | Sunknown

type haccess = { is_write : bool; hsub : sub_kind; hline : int }

type scalar_facts = {
  mutable carried_reads : int list; (* lines read while not yet defined *)
  mutable plain_write : bool; (* a non-accumulating write site *)
  mutable accum_carried : bool; (* accumulating update of a stale value *)
  mutable accum_dirty : int option; (* accum RHS reads loop-varying state *)
  mutable wrote : bool;
  mutable acc_op : Verdict.acc_op option; (* joined over accumulation sites *)
  mutable contribs : Ast.expr list; (* accumulation contributions *)
}

type collect = {
  fx : Effects.t;
  fid : Scope.fid;
  written_names : SS.t; (* scalar names with a write site in the body *)
  ivar : string option;
  scalars : (string, scalar_facts) Hashtbl.t;
  heap : (Scope.root, haccess list ref) Hashtbl.t;
  mutable unknown_read : bool; (* a read through unresolved memory *)
  mutable deps : Verdict.fact list;
  mutable rtc : Verdict.fact list;
  mutable callee_greads : Scope.RS.t;
  mutable induction_mutated : bool;
}

let facts_of c n =
  match Hashtbl.find_opt c.scalars n with
  | Some f -> f
  | None ->
    let f =
      { carried_reads = [];
        plain_write = false;
        accum_carried = false;
        accum_dirty = None;
        wrote = false;
        acc_op = None;
        contribs = [] }
    in
    Hashtbl.add c.scalars n f;
    f

let add_dep c ~pass why line =
  c.deps <- { Verdict.pass; why; line } :: c.deps

let add_rtc c ~pass why line =
  c.rtc <- { Verdict.pass; why; line } :: c.rtc

let record_heap c root (a : haccess) =
  let l =
    match Hashtbl.find_opt c.heap root with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add c.heap root l;
      l
  in
  l := a :: !l

(* Immutable flow state of the iteration walk. *)
type istate = {
  defined : SS.t;
  accum_defined : SS.t;
  (* defined this iteration, but by a carried accumulation — the
     value still incorporates earlier iterations, so reading it is a
     carried read even though the name is "defined" *)
  regions : Effects.region SM.t; (* per-iteration region overlay *)
  substm : Lin.t SM.t; (* single-assignment affine locals *)
}

let line_of (e : Ast.expr) = e.at.left.line

let join_states (a : istate) (b : istate) =
  { defined = SS.inter a.defined b.defined;
    accum_defined = SS.union a.accum_defined b.accum_defined;
    regions =
      SM.merge
        (fun _ x y ->
           match (x, y) with
           | Some rx, Some ry -> Some (Effects.region_join rx ry)
           | _ -> None)
        a.regions b.regions;
    substm =
      SM.merge
        (fun _ x y ->
           match (x, y) with
           | Some lx, Some ly when Lin.equal lx ly -> Some lx
           | _ -> None)
        a.substm b.substm }

(* ------------------------------------------------------------------ *)

let arith_op = function
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor
  | Ast.Bxor | Ast.Lshift | Ast.Rshift | Ast.Urshift ->
    true
  | _ -> false

let op_of_binop = function
  | Ast.Add | Ast.Sub -> Verdict.Sum
  | Ast.Mul | Ast.Div -> Verdict.Prod
  | Ast.Band -> Verdict.Band
  | Ast.Bor -> Verdict.Bor
  | Ast.Bxor -> Verdict.Bxor
  | _ -> Verdict.Other

(* Free identifier reads of an expression (not entering functions). *)
let idents_read (e : Ast.expr) : SS.t =
  let acc = ref SS.empty in
  let rec go (e : Ast.expr) =
    match e.e with
    | Ast.Ident x | Ast.Update (_, _, Ast.Tgt_ident x) -> acc := SS.add x !acc
    | Ast.Function_expr _ -> ()
    | _ -> Ast.iter_expr ~stmt:ignore ~expr:go e
  in
  go e;
  !acc

(* Does the accumulation RHS read loop-varying scalars besides the
   accumulator itself? *)
let accum_rhs_dirty c ~acc (rhs : Ast.expr) =
  let forbidden = SS.add acc c.written_names in
  let reads = idents_read rhs in
  not (SS.is_empty (SS.inter reads forbidden))

(* [n = n op e] / [n = e +|* n] / [n = Math.min|max(n, e)] — the
   accumulator update patterns, with their operator and contribution. *)
let accum_rhs_pattern scope fid n (rhs : Ast.expr) :
    (Verdict.acc_op * Ast.expr) option =
  match rhs.e with
  | Ast.Binop (op, { e = Ast.Ident x; _ }, e)
    when arith_op op && String.equal x n ->
    Some (op_of_binop op, e)
  | Ast.Binop (((Ast.Add | Ast.Mul) as op), e, { e = Ast.Ident x; _ })
    when String.equal x n ->
    Some (op_of_binop op, e)
  | Ast.Call
      ( { e = Ast.Member ({ e = Ast.Ident m; _ }, mm); _ },
        [ a; b ] )
    when String.equal m "Math"
         && (match Scope.classify scope fid m with
             | Scope.Global -> true
             | _ -> false)
         && (String.equal mm "min" || String.equal mm "max") -> (
      let op = if String.equal mm "min" then Verdict.Min else Verdict.Max in
      match (a.e, b.e) with
      | Ast.Ident x, _ when String.equal x n -> Some (op, b)
      | _, Ast.Ident x when String.equal x n -> Some (op, a)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Interprocedural subscript inlining.

   Two cooperating mechanisms, both restricted to single-callee
   receiver-less calls:

   [affine_template]: a callee that is exactly [return <affine>] with
   a pure summary becomes a linear-form template. Its parameters are
   renamed to reserved atoms [%p<fid>_<k>] so caller atoms can never
   collide with them (an [IX(i, j)] helper whose own parameters are
   also named [i]/[j] would otherwise silently conflate frames), and
   its free atoms must resolve globally in the callee frame and to
   the very same binding at each use frame.

   [callee_accesses]: a straight-line callee body (no loops, no
   exceptional control flow, no [this]) contributes its heap accesses
   to the caller's footprint with subscripts composed through the
   argument linear forms and regions of the call site. Callee-local
   values the composition cannot express are poisoned with the
   reserved [%opaque] atom — a subscript mentioning it degrades to an
   unresolved access rather than leaking a callee-frame name into the
   caller's invariance reasoning. *)

let opaque = "%opaque"
let reserved v = String.length v > 0 && v.[0] = '%'
let pname cfid k = Printf.sprintf "%%p%d_%d" cfid k

type template = {
  t_arity : int;
  t_lin : Lin.t; (* over reserved param atoms and free globals *)
  t_frees : string list; (* free atoms; all global in the callee frame *)
}

let pure_value_summary (sm : Effects.summary) =
  (not sm.io) && (not sm.calls_unknown)
  && Scope.RS.is_empty sm.gwrites
  && Scope.RS.is_empty sm.hwrite_roots
  && Effects.IS.is_empty sm.hwrite_params
  && (not sm.hwrite_unknown)
  && (not sm.this_writes)
  && (not sm.this_reads)

let rec affine_template fx (cache : (Scope.fid, template option) Hashtbl.t)
    (cfid : Scope.fid) : template option =
  match Hashtbl.find_opt cache cfid with
  | Some t -> t
  | None ->
    (* the [None] placeholder doubles as a recursion guard *)
    Hashtbl.add cache cfid None;
    let scope = Effects.scope fx in
    let res =
      let fr : Scope.func_rec = Scope.func scope cfid in
      match fr.body with
      | [ { s = Ast.Return (Some ret); _ } ]
        when pure_value_summary (Effects.summary fx cfid) -> (
          let idx = List.mapi (fun k p -> (p, pname cfid k)) fr.params in
          let subst n =
            match List.assoc_opt n idx with
            | Some a -> Some (Lin.var a)
            | None -> None
          in
          match
            Subscript.lin_of ~call:(template_call fx cache cfid subst) ~subst
              ret
          with
          | None -> None
          | Some l ->
            let frees =
              List.filter (fun v -> not (reserved v)) (Lin.vars l)
            in
            if
              List.for_all
                (fun g ->
                   match Scope.resolve scope cfid g with
                   | Scope.Rglobal _ -> true
                   | Scope.Rlocal _ -> false)
                frees
            then
              Some
                { t_arity = List.length fr.params; t_lin = l; t_frees = frees }
            else None)
      | _ -> None
    in
    Hashtbl.replace cache cfid res;
    res

and template_call fx cache (fid : Scope.fid) ?(free_ok = fun _ -> true) subst
    (f : Ast.expr) (args : Ast.expr list) : Lin.t option =
  match f.e with
  | Ast.Ident _ -> (
      match Effects.classify_call fx fid f with
      | Effects.Cuser [ cfid ] -> (
          match affine_template fx cache cfid with
          | Some t when List.length args = t.t_arity ->
            let scope = Effects.scope fx in
            if
              List.for_all
                (fun g ->
                   free_ok g
                   && Scope.root_compare (Scope.resolve scope cfid g)
                        (Scope.resolve scope fid g)
                      = 0)
                t.t_frees
            then instantiate fx cache fid ~free_ok subst cfid t args
            else None
          | _ -> None)
      | _ -> None)
  | _ -> None

and instantiate fx cache fid ~free_ok subst cfid (t : template)
    (args : Ast.expr list) : Lin.t option =
  let own = Printf.sprintf "%%p%d_" cfid in
  let is_own v =
    String.length v >= String.length own
    && String.equal (String.sub v 0 (String.length own)) own
  in
  let rec go k lin = function
    | [] -> if List.exists is_own (Lin.vars lin) then None else Some lin
    | a :: rest -> (
        match
          Subscript.lin_of
            ~call:(template_call fx cache fid ~free_ok subst)
            ~subst a
        with
        | None -> None
        | Some al -> (
            match Lin.split (pname cfid k) lin with
            | None -> None
            | Some (coeff, rem) -> (
                match Lin.mul coeff al with
                | None -> None
                | Some prod -> go (k + 1) (Lin.add rem prod) rest)))
  in
  go 0 t.t_lin args

exception Refuse

(* Heap accesses of a straight-line callee body, composed through the
   call-site argument linear forms [arg_lin] and regions [arg_reg];
   [None] when the body (or its summary) is beyond this treatment and
   the caller must fold the conservative summary instead. *)
let rec callee_accesses fx tcache ~(caller_fid : Scope.fid) ~depth
    (cfid : Scope.fid) ~(arg_lin : int -> Lin.t option)
    ~(arg_reg : int -> Effects.region) :
    (Effects.region * sub_kind * bool * int) list option =
  if depth <= 0 then None
  else
    let scope = Effects.scope fx in
    let sm : Effects.summary = Effects.summary fx cfid in
    if
      sm.io || sm.calls_unknown || sm.this_reads || sm.this_writes
      || not (Scope.RS.is_empty sm.gwrites)
    then None
    else begin
      let fr : Scope.func_rec = Scope.func scope cfid in
      let out = ref [] in
      let lenv = ref SM.empty in
      let renv = ref SM.empty in
      List.iteri
        (fun k p ->
           lenv :=
             SM.add p
               (match arg_lin k with Some l -> l | None -> Lin.var opaque)
               !lenv;
           renv := SM.add p (arg_reg k) !renv)
        fr.params;
      let subst n =
        match SM.find_opt n !lenv with
        | Some l -> Some l
        | None ->
          if SS.mem n fr.locals then Some (Lin.var opaque)
          else if
            (* a free name is kept as an atom only when it denotes the
               same binding in the callee and the analyzed frame *)
            Scope.root_compare (Scope.resolve scope cfid n)
              (Scope.resolve scope caller_fid n)
            = 0
          then None
          else Some (Lin.var opaque)
      in
      let free_ok g =
        Scope.root_compare (Scope.resolve scope cfid g)
          (Scope.resolve scope caller_fid g)
        = 0
      in
      let lin_here e =
        Subscript.lin_of
          ~call:(template_call fx tcache cfid ~free_ok subst)
          ~subst e
      in
      let region e =
        Effects.region_of fx ~param_as_root:false
          ~local_env:(fun n ->
              match SM.find_opt n !renv with
              | Some r -> Some r
              | None ->
                if SS.mem n fr.locals then Some Effects.RUnknown else None)
          cfid e
      in
      let sub_of e =
        match lin_here e with
        | Some l when List.for_all (fun v -> not (reserved v)) (Lin.vars l)
          ->
          Slin l
        | _ -> Sunknown
      in
      let cond_depth = ref 0 in
      let record reg sub ~w ln = out := (reg, sub, w, ln) :: !out in
      let poison n =
        lenv := SM.add n (Lin.var opaque) !lenv;
        renv := SM.add n Effects.RUnknown !renv
      in
      let bind n rhs =
        if !cond_depth > 0 then poison n
        else begin
          (match lin_here rhs with
           | Some l -> lenv := SM.add n l !lenv
           | None -> lenv := SM.add n (Lin.var opaque) !lenv);
          renv := SM.add n (region rhs) !renv
        end
      in
      let rec expr (e : Ast.expr) : unit =
        let ln = line_of e in
        match e.e with
        | Ast.Number _ | Ast.String _ | Ast.Bool _ | Ast.Null
        | Ast.Undefined | Ast.Ident _ ->
          ()
        | Ast.This | Ast.Function_expr _ | Ast.Intrinsic _ -> raise Refuse
        | Ast.Array_lit es -> List.iter expr es
        | Ast.Object_lit ps -> List.iter (fun (_, v) -> expr v) ps
        | Ast.Member (b, p) -> (
            match b.e with
            | Ast.Ident ns
              when (match Scope.classify scope cfid ns with
                  | Scope.Global -> true
                  | _ -> false)
                   && (String.equal ns "Math" || String.equal ns "JSON") ->
              ()
            | _ ->
              expr b;
              record (region b) (Sprop p) ~w:false ln)
        | Ast.Index (b, i) ->
          expr b;
          expr i;
          record (region b) (sub_of i) ~w:false ln
        | Ast.Call (f, cargs) -> call f cargs
        | Ast.New _ | Ast.Unop (Ast.Delete, _) -> raise Refuse
        | Ast.Unop (_, o) -> expr o
        | Ast.Binop (_, l, r) | Ast.Seq (l, r) ->
          expr l;
          expr r
        | Ast.Logical (_, l, r) ->
          expr l;
          incr cond_depth;
          expr r;
          decr cond_depth
        | Ast.Cond (g, a, b) ->
          expr g;
          incr cond_depth;
          expr a;
          expr b;
          decr cond_depth
        | Ast.Assign (Ast.Tgt_ident n, op, rhs) ->
          expr rhs;
          if op <> None then poison n else bind n rhs
        | Ast.Assign (Ast.Tgt_member (b, p), op, rhs) ->
          expr b;
          expr rhs;
          if op <> None then record (region b) (Sprop p) ~w:false ln;
          record (region b) (Sprop p) ~w:true ln
        | Ast.Assign (Ast.Tgt_index (b, i), op, rhs) ->
          expr b;
          expr i;
          expr rhs;
          let s = sub_of i in
          if op <> None then record (region b) s ~w:false ln;
          record (region b) s ~w:true ln
        | Ast.Update (_, _, Ast.Tgt_ident n) -> poison n
        | Ast.Update (_, _, Ast.Tgt_member (b, p)) ->
          expr b;
          record (region b) (Sprop p) ~w:false ln;
          record (region b) (Sprop p) ~w:true ln
        | Ast.Update (_, _, Ast.Tgt_index (b, i)) ->
          expr b;
          expr i;
          let s = sub_of i in
          record (region b) s ~w:false ln;
          record (region b) s ~w:true ln
      and call f cargs =
        match Effects.classify_call fx cfid f with
        | Effects.Cpure -> List.iter expr cargs
        | Effects.Cuser [ g ]
          when (match f.e with Ast.Ident _ -> true | _ -> false) -> (
            List.iter expr cargs;
            let al k =
              match List.nth_opt cargs k with
              | Some a -> lin_here a
              | None -> None
            in
            let ar k =
              match List.nth_opt cargs k with
              | Some a -> region a
              | None -> Effects.RUnknown
            in
            match
              callee_accesses fx tcache ~caller_fid ~depth:(depth - 1) g
                ~arg_lin:al ~arg_reg:ar
            with
            | Some accs -> List.iter (fun x -> out := x :: !out) accs
            | None -> raise Refuse)
        | _ -> raise Refuse
      in
      let rec stmt (s : Ast.stmt) : unit =
        match s.s with
        | Ast.Expr_stmt e -> expr e
        | Ast.Return e -> Option.iter expr e
        | Ast.Var_decl ds ->
          List.iter
            (fun (n, init) ->
               match init with
               | None -> poison n
               | Some rhs ->
                 expr rhs;
                 bind n rhs)
            ds
        | Ast.If (g, th, el) ->
          expr g;
          incr cond_depth;
          stmt th;
          Option.iter stmt el;
          decr cond_depth
        | Ast.Block b -> List.iter stmt b
        | Ast.Empty -> ()
        | _ -> raise Refuse
      in
      match List.iter stmt fr.body with
      | () -> Some !out
      | exception Refuse -> None
    end

(* ------------------------------------------------------------------ *)
(* Pre-pass: syntactic write-site counts and inner-loop extents.
   Stays out of nested function bodies. *)

let prepass ~const_env (body : Ast.stmt list) =
  let writes = Hashtbl.create 16 in
  let bump n =
    Hashtbl.replace writes n
      (1 + Option.value ~default:0 (Hashtbl.find_opt writes n))
  in
  let inner : (string * (Lin.t * Lin.t)) list ref = ref [] in
  let bad = ref SS.empty in
  let note_inner (ind : Subscript.induction) =
    match Subscript.extent_of ind with
    | None -> bad := SS.add ind.ivar !bad
    | Some ext -> (
        match List.assoc_opt ind.ivar !inner with
        | None -> inner := (ind.ivar, ext) :: !inner
        | Some (lo, hi) ->
          let lo', hi' = ext in
          if not (Lin.equal lo lo' && Lin.equal hi hi') then
            bad := SS.add ind.ivar !bad)
  in
  let bump_inits ds =
    List.iter (fun (n, i) -> if Option.is_some i then bump n) ds
  in
  let rec stmt (st : Ast.stmt) =
    (match st.s with
     | Ast.Var_decl ds -> bump_inits ds
     | Ast.For (_, init, cnd, u, _) ->
       (match init with Some (Ast.Init_var ds) -> bump_inits ds | _ -> ());
       Option.iter note_inner
         (Subscript.induction_of_for ~const_env init cnd u
            ~line:st.sat.left.line)
     | Ast.For_in (_, (Ast.Binder_var n | Ast.Binder_ident n), _, _) -> bump n
     | _ -> ());
    match st.s with
    | Ast.Func_decl _ -> ()
    | _ -> Ast.iter_stmt ~stmt ~expr st
  and expr (e : Ast.expr) =
    match e.e with
    | Ast.Assign (Ast.Tgt_ident n, _, _) | Ast.Update (_, _, Ast.Tgt_ident n) ->
      bump n;
      Ast.iter_expr ~stmt ~expr e
    | Ast.Unop (Ast.Delete, { e = Ast.Ident n; _ }) -> bump n
    | Ast.Function_expr _ -> ()
    | _ -> Ast.iter_expr ~stmt ~expr e
  in
  List.iter stmt body;
  let names =
    Hashtbl.fold (fun n _ acc -> SS.add n acc) writes SS.empty
  in
  let single n =
    match Hashtbl.find_opt writes n with Some 1 -> true | _ -> false
  in
  let extents =
    List.filter (fun (v, _) -> not (SS.mem v !bad)) !inner
  in
  (names, single, extents)

(* ------------------------------------------------------------------ *)
(* The iteration walk. *)

let analyze_loop (fx : Effects.t) ~(rng : Range.t)
    ~(tcache : (Scope.fid, template option) Hashtbl.t) ~(fid : Scope.fid)
    ~(kind : Ast.loop_kind) ~(loop_id : Ast.loop_id) ~(line : int)
    ~(header : [ `For of Subscript.induction option
               | `For_in of string
               | `Cond ]) ~(cond : Ast.expr option)
    ~(update : Ast.expr option) ~(body : Ast.stmt list) : result =
  let scope = Effects.scope fx in
  let written_names, single_write, extents =
    prepass ~const_env:(Range.const_global rng) body
  in
  let ivar =
    match header with
    | `For (Some ind) -> Some ind.Subscript.ivar
    | `For_in b -> Some b
    | _ -> None
  in
  let c =
    { fx;
      fid;
      written_names;
      ivar;
      scalars = Hashtbl.create 16;
      heap = Hashtbl.create 16;
      unknown_read = false;
      deps = [];
      rtc = [];
      callee_greads = Scope.RS.empty;
      induction_mutated = false }
  in
  let region_of (st : istate) e =
    Effects.region_of fx ~param_as_root:true
      ~local_env:(fun n -> SM.find_opt n st.regions)
      fid e
  in
  let subst_of (st : istate) n = SM.find_opt n st.substm in
  let call_hook (st : istate) f args =
    template_call fx tcache fid (subst_of st) f args
  in
  let lin_in (st : istate) e =
    Subscript.lin_of ~call:(call_hook st) ~subst:(subst_of st) e
  in
  (* -- scalar events -------------------------------------------------- *)
  let scalar_read (st : istate) n ln =
    match ivar with
    | Some v when String.equal v n -> ()
    | _ ->
      if
        SS.mem n c.written_names
        && (SS.mem n st.accum_defined || not (SS.mem n st.defined))
      then begin
        let f = facts_of c n in
        f.carried_reads <- ln :: f.carried_reads
      end
  in
  let scalar_write (st : istate) n
      ~(accum : (Verdict.acc_op * Ast.expr) option) ~dirty ln =
    (match ivar with
     | Some v when String.equal v n -> c.induction_mutated <- true
     | _ -> (
         let f = facts_of c n in
         f.wrote <- true;
         match accum with
         | Some (op, contrib) ->
           f.acc_op <-
             (match f.acc_op with
              | None -> Some op
              | Some op0 when op0 = op -> Some op0
              | Some _ -> Some Verdict.Other);
           f.contribs <- contrib :: f.contribs;
           if not (SS.mem n st.defined) then begin
             f.accum_carried <- true;
             if dirty && f.accum_dirty = None then f.accum_dirty <- Some ln
           end
         | None -> f.plain_write <- true));
    let is_accum = Option.is_some accum in
    let accum_defined =
      (* A carried accumulation leaves the running (cross-iteration)
         value in the name; a plain write resets it to an
         iteration-local one. An accumulation over an
         already-iteration-local value stays local. *)
      if is_accum && not (SS.mem n st.defined) then
        SS.add n st.accum_defined
      else if not is_accum then SS.remove n st.accum_defined
      else st.accum_defined
    in
    { st with defined = SS.add n st.defined; accum_defined }
  in
  (* -- heap events ---------------------------------------------------- *)
  let heap_access (st : istate) base (sub : sub_kind) ~is_write ln =
    match region_of st base with
    | Effects.Fresh -> ()
    | Effects.Root r -> record_heap c r { is_write; hsub = sub; hline = ln }
    | Effects.Param _ ->
      (* unreachable with param_as_root *)
      if is_write then
        add_rtc c ~pass:"loopdep" "write through unresolved reference" ln
      else c.unknown_read <- true
    | Effects.RThis | Effects.RUnknown ->
      if is_write then
        add_rtc c ~pass:"loopdep" "write through unresolved reference" ln
      else c.unknown_read <- true
  in
  (* -- callee effect folding ------------------------------------------ *)
  let handle_eff (eff : Effects.summary) ln =
    if eff.io then add_dep c ~pass:"effects" "callee performs I/O (DOM/host)" ln;
    if eff.calls_unknown then
      add_rtc c ~pass:"effects" "calls a function the analysis cannot resolve"
        ln;
    Scope.RS.iter
      (fun r ->
         add_dep c ~pass:"effects"
           (Printf.sprintf "callee writes shared scalar %s"
              (Scope.root_name r))
           ln)
      eff.gwrites;
    c.callee_greads <- Scope.RS.union c.callee_greads eff.greads;
    Scope.RS.iter
      (fun r -> record_heap c r { is_write = true; hsub = Sunknown; hline = ln })
      eff.hwrite_roots;
    Scope.RS.iter
      (fun r -> record_heap c r { is_write = false; hsub = Sunknown; hline = ln })
      eff.hread_roots;
    if eff.hwrite_unknown then
      add_rtc c ~pass:"effects"
        "callee writes memory the analysis cannot resolve" ln;
    if eff.hread_unknown then c.unknown_read <- true;
    if eff.this_writes then
      add_rtc c ~pass:"effects" "callee writes through `this`" ln;
    if eff.this_reads then c.unknown_read <- true
  in
  (* -- the walk ------------------------------------------------------- *)
  let rec walk_expr ?(suppress : string option) (st : istate)
      (e : Ast.expr) : istate =
    let ln = line_of e in
    match e.e with
    | Ast.Number _ | Ast.String _ | Ast.Bool _ | Ast.Null | Ast.Undefined ->
      st
    | Ast.This -> st
    | Ast.Ident x ->
      (match suppress with
       | Some s when String.equal s x -> ()
       | _ -> scalar_read st x ln);
      st
    | Ast.Array_lit es -> List.fold_left (fun st e -> walk_expr st e) st es
    | Ast.Object_lit ps ->
      List.fold_left (fun st (_, v) -> walk_expr st v) st ps
    | Ast.Function_expr _ -> st
    | Ast.Member (b, p) -> (
        match b.e with
        | Ast.Ident ns
          when (match Scope.classify scope fid ns with
              | Scope.Global -> true
              | _ -> false)
               && (String.equal ns "Math" || String.equal ns "JSON") ->
          st
        | Ast.Ident ns
          when (match Scope.classify scope fid ns with
              | Scope.Global -> true
              | _ -> false)
               && (String.equal ns "console" || String.equal ns "document"
                   || String.equal ns "window" || String.equal ns "Date"
                   || String.equal ns "performance") ->
          add_dep c ~pass:"effects" "accesses the host/DOM" ln;
          st
        | _ ->
          let st = walk_expr st b in
          heap_access st b (Sprop p) ~is_write:false ln;
          st)
    | Ast.Index (b, i) ->
      let st = walk_expr st b in
      let st = walk_expr st i in
      let sub =
        match lin_in st i with Some l -> Slin l | None -> Sunknown
      in
      heap_access st b sub ~is_write:false ln;
      st
    | Ast.Call (callee, args) -> walk_call st ~is_new:false callee args ln
    | Ast.New (callee, args) -> walk_call st ~is_new:true callee args ln
    | Ast.Unop (Ast.Delete, { e = Ast.Ident x; _ }) ->
      scalar_write st x ~accum:None ~dirty:false ln
    | Ast.Unop (Ast.Delete, ({ e = Ast.Member (b, p); _ })) ->
      let st = walk_expr st b in
      heap_access st b (Sprop p) ~is_write:true ln;
      st
    | Ast.Unop (Ast.Delete, ({ e = Ast.Index (b, i); _ })) ->
      let st = walk_expr st b in
      let st = walk_expr st i in
      let sub =
        match lin_in st i with Some l -> Slin l | None -> Sunknown
      in
      heap_access st b sub ~is_write:true ln;
      st
    | Ast.Unop (_, o) -> walk_expr st o
    | Ast.Binop (_, l, r) ->
      let st = walk_expr ?suppress st l in
      walk_expr ?suppress st r
    | Ast.Logical (_, l, r) ->
      let st = walk_expr st l in
      (* RHS conditionally evaluated: keep events, drop definitions *)
      let _ = walk_expr st r in
      st
    | Ast.Cond (g, th, el) ->
      let st = walk_expr st g in
      let s1 = walk_expr st th in
      let s2 = walk_expr st el in
      join_states s1 s2
    | Ast.Seq (l, r) ->
      let st = walk_expr st l in
      walk_expr st r
    | Ast.Assign (Ast.Tgt_ident n, _, rhs)
      when (match suppress with
          | Some s -> String.equal s n
          | None -> false) ->
      (* the loop header's own induction update *)
      walk_expr ~suppress:n st rhs
    | Ast.Assign (Ast.Tgt_ident n, op, rhs) ->
      let acc, dirty, st =
        match op with
        | Some op2 when arith_op op2 ->
          let st = walk_expr ~suppress:n st rhs in
          (Some (op_of_binop op2, rhs), accum_rhs_dirty c ~acc:n rhs, st)
        | Some _ | None -> (
            match accum_rhs_pattern scope fid n rhs with
            | Some (aop, contrib) when op = None ->
              let st = walk_expr ~suppress:n st contrib in
              (Some (aop, contrib), accum_rhs_dirty c ~acc:n contrib, st)
            | _ ->
              let st = walk_expr st rhs in
              (None, false, st))
      in
      let st = scalar_write st n ~accum:acc ~dirty (line_of e) in
      (* single-assignment affine locals feed the substitution env;
         per-iteration regions track fresh allocations *)
      let st =
        if Option.is_none acc && single_write n then
          match lin_in st rhs with
          | Some l -> { st with substm = SM.add n l st.substm }
          | None -> st
        else st
      in
      { st with regions = SM.add n (region_of st rhs) st.regions }
    | Ast.Assign (Ast.Tgt_member (b, p), op, rhs) ->
      let st = walk_expr st b in
      let st = walk_expr st rhs in
      let ln = line_of e in
      if op <> None then heap_access st b (Sprop p) ~is_write:false ln;
      heap_access st b (Sprop p) ~is_write:true ln;
      st
    | Ast.Assign (Ast.Tgt_index (b, i), op, rhs) ->
      let st = walk_expr st b in
      let st = walk_expr st i in
      let st = walk_expr st rhs in
      let ln = line_of e in
      let sub =
        match lin_in st i with Some l -> Slin l | None -> Sunknown
      in
      if op <> None then heap_access st b sub ~is_write:false ln;
      heap_access st b sub ~is_write:true ln;
      st
    | Ast.Update (_, _, Ast.Tgt_ident n) -> (
        match suppress with
        | Some s when String.equal s n -> st (* header induction update *)
        | _ ->
          scalar_write st n
            ~accum:(Some (Verdict.Sum, Ast.number 1.))
            ~dirty:false ln)
    | Ast.Update (_, _, Ast.Tgt_member (b, p)) ->
      let st = walk_expr st b in
      heap_access st b (Sprop p) ~is_write:false ln;
      heap_access st b (Sprop p) ~is_write:true ln;
      st
    | Ast.Update (_, _, Ast.Tgt_index (b, i)) ->
      let st = walk_expr st b in
      let st = walk_expr st i in
      let sub =
        match lin_in st i with Some l -> Slin l | None -> Sunknown
      in
      heap_access st b sub ~is_write:false ln;
      heap_access st b sub ~is_write:true ln;
      st
    | Ast.Intrinsic _ ->
      let st = ref st in
      Ast.iter_expr ~stmt:ignore ~expr:(fun a -> st := walk_expr !st a) e;
      !st
  and walk_call st ~is_new callee args ln : istate =
    (* receiver/argument subexpressions evaluate first *)
    let st =
      match callee.e with
      | Ast.Ident _ | Ast.Function_expr _ -> st
      | Ast.Member (b, _) -> (
          match b.e with
          | Ast.Ident ns
            when (match Scope.classify scope fid ns with
                | Scope.Global -> true
                | _ -> false)
                 && (String.equal ns "Math" || String.equal ns "JSON"
                     || String.equal ns "console" || String.equal ns "document"
                     || String.equal ns "window" || String.equal ns "Date"
                     || String.equal ns "performance") ->
            st
          | _ -> walk_expr st b)
      | _ -> walk_expr st callee
    in
    let st = List.fold_left (fun st a -> walk_expr st a) st args in
    let arg_region k =
      match List.nth_opt args k with
      | Some a -> region_of st a
      | None -> Effects.RUnknown
    in
    let receiver_region recv = region_of st recv in
    (match Effects.classify_call fx fid callee with
     | Effects.Cpure -> ()
     | Effects.Cio -> add_dep c ~pass:"effects" "accesses the host/DOM" ln
     | Effects.Cmutate_receiver (m, recv) -> (
         match receiver_region recv with
         | Effects.Fresh -> ()
         | Effects.Root r ->
           add_dep c ~pass:"effects"
             (Printf.sprintf "%s.%s() mutates shared storage across iterations"
                (Scope.root_name r) m)
             ln
         | _ ->
           add_rtc c ~pass:"effects" (m ^ "() on an unresolved receiver") ln)
     | Effects.Cread_receiver recv -> (
         match receiver_region recv with
         | Effects.Fresh -> ()
         | Effects.Root r ->
           record_heap c r { is_write = false; hsub = Sunknown; hline = ln }
         | _ -> c.unknown_read <- true)
     | Effects.Citerate recv ->
       (match receiver_region recv with
        | Effects.Fresh -> ()
        | Effects.Root r ->
          record_heap c r { is_write = false; hsub = Sunknown; hline = ln }
        | _ -> c.unknown_read <- true);
       (match Effects.callback_fids fx fid args with
        | Some cbs ->
          if cbs <> [] then
            handle_eff
              (Effects.apply fx ~callees:cbs
                 ~arg_region:(fun _ -> receiver_region recv)
                 ~receiver:(Some (receiver_region recv)) ~is_new:false)
              ln
        | None ->
          add_rtc c ~pass:"effects" "iteration callback cannot be resolved" ln)
     | Effects.Cuser fids -> (
         let receiver =
           match callee.e with
           | Ast.Member (b, _) -> Some (receiver_region b)
           | _ -> None
         in
         let inlined =
           match (fids, receiver, is_new) with
           | [ cfid ], None, false ->
             callee_accesses fx tcache ~caller_fid:fid ~depth:3 cfid
               ~arg_lin:(fun k ->
                   match List.nth_opt args k with
                   | Some a -> lin_in st a
                   | None -> None)
               ~arg_reg:arg_region
           | _ -> None
         in
         match inlined with
         | Some accs ->
           (* scalar reads still flow through the transitive summary *)
           let sm =
             Effects.apply fx ~callees:fids ~arg_region ~receiver ~is_new
           in
           c.callee_greads <- Scope.RS.union c.callee_greads sm.Effects.greads;
           List.iter
             (fun (reg, sub, w, aln) ->
                match reg with
                | Effects.Fresh -> ()
                | Effects.Root r ->
                  record_heap c r { is_write = w; hsub = sub; hline = aln }
                | Effects.Param _ | Effects.RThis | Effects.RUnknown ->
                  if w then
                    add_rtc c ~pass:"effects"
                      "callee writes memory the analysis cannot resolve" aln
                  else c.unknown_read <- true)
             accs
         | None ->
           handle_eff
             (Effects.apply fx ~callees:fids ~arg_region ~receiver ~is_new)
             ln)
     | Effects.Cunknown ->
       add_rtc c ~pass:"effects" "calls a function the analysis cannot resolve"
         ln);
    st
  and walk_stmt (st : istate) (s : Ast.stmt) : istate =
    match s.s with
    | Ast.Expr_stmt e | Ast.Throw e -> walk_expr st e
    | Ast.Return e ->
      Option.fold ~none:st ~some:(fun e -> walk_expr st e) e
    | Ast.Var_decl ds ->
      List.fold_left
        (fun st (n, init) ->
           match init with
           | None -> st
           | Some rhs ->
             let st = walk_expr st rhs in
             let st =
               scalar_write st n ~accum:None ~dirty:false (line_of rhs)
             in
             let st =
               if single_write n then
                 match lin_in st rhs with
                 | Some l -> { st with substm = SM.add n l st.substm }
                 | None -> st
               else st
             in
             { st with regions = SM.add n (region_of st rhs) st.regions })
        st ds
    | Ast.If (g, th, el) ->
      let st = walk_expr st g in
      let s1 = walk_stmt st th in
      let s2 =
        match el with Some el -> walk_stmt st el | None -> st
      in
      join_states s1 s2
    | Ast.While (_, g, b) ->
      let st = walk_expr st g in
      let _ = walk_stmt st b in
      st
    | Ast.Do_while (_, b, g) ->
      (* body runs at least once *)
      let st = walk_stmt st b in
      walk_expr st g
    | Ast.For (_, init, g, u, b) ->
      let st =
        match init with
        | Some (Ast.Init_var ds) ->
          walk_stmt st (Ast.mk_stmt ~at:s.sat (Ast.Var_decl ds))
        | Some (Ast.Init_expr e) -> walk_expr st e
        | None -> st
      in
      let st =
        match g with Some g -> walk_expr st g | None -> st
      in
      let body_st = walk_stmt st b in
      let _ = Option.map (walk_expr body_st) u in
      st
    | Ast.For_in (_, binder, o, b) ->
      (* enumerating keys reads the key *set*, which value writes do
         not disturb; key additions/deletions are caught as element
         writes or mutator calls *)
      let st = walk_expr st o in
      let n =
        match binder with Ast.Binder_var n | Ast.Binder_ident n -> n
      in
      let st' =
        scalar_write st n ~accum:None ~dirty:false s.sat.left.line
      in
      let _ = walk_stmt st' b in
      st
    | Ast.Try (b, cth, fin) ->
      (* exceptional control flow: keep events, trust no definitions *)
      let _ = List.fold_left walk_stmt st b in
      Option.iter
        (fun (exn_name, cb) ->
           let st' =
             { st with defined = SS.add exn_name st.defined }
           in
           ignore (List.fold_left walk_stmt st' cb))
        cth;
      Option.iter (fun fb -> ignore (List.fold_left walk_stmt st fb)) fin;
      st
    | Ast.Block b -> List.fold_left walk_stmt st b
    | Ast.Func_decl _ -> st
    | Ast.Switch (g, cases) ->
      let st = walk_expr st g in
      List.iter
        (fun (guard, body) ->
           let st' =
             match guard with Some g -> walk_expr st g | None -> st
           in
           ignore (List.fold_left walk_stmt st' body))
        cases;
      st
    | Ast.Labeled (_, b) -> walk_stmt st b
    | Ast.Empty | Ast.Break _ | Ast.Continue _ -> st
  in
  (* One iteration: induction defined on entry; the guard is evaluated
     every iteration; [do-while] evaluates the body first. *)
  let st0 =
    { defined =
        (match ivar with Some v -> SS.singleton v | None -> SS.empty);
      accum_defined = SS.empty;
      regions = SM.empty;
      substm = SM.empty }
  in
  let st0 =
    match kind with
    | Ast.Kdo_while -> st0
    | _ -> (
        match cond with
        | Some g -> walk_expr st0 g
        | None -> st0)
  in
  let st_end = List.fold_left walk_stmt st0 body in
  (match kind with
   | Ast.Kdo_while ->
     ignore
       (match cond with Some g -> walk_expr st_end g | None -> st_end)
   | _ -> ());
  (match update with
   | Some u ->
     let sup = match ivar with Some v -> Some v | None -> None in
     ignore (walk_expr ?suppress:sup st_end u)
   | None -> ());
  (* ------------------------------------------------------------------ *)
  (* Resolution. *)
  let notes = ref [] in
  let note n = notes := n :: !notes in
  let accums : (string * scalar_facts) list ref = ref [] in
  let wars = ref SS.empty in
  if c.induction_mutated then
    add_rtc c ~pass:"loopdep" "loop induction variable is mutated in the body"
      line;
  (* scalars *)
  Hashtbl.iter
    (fun n (f : scalar_facts) ->
       if f.wrote then begin
         match f.carried_reads with
         | ln :: _ ->
           add_dep c ~pass:"loopdep"
             (Printf.sprintf "scalar %s carries a value across iterations" n)
             (List.fold_left min ln f.carried_reads)
         | [] ->
           if f.accum_carried then begin
             if f.plain_write then
               add_dep c ~pass:"loopdep"
                 (Printf.sprintf
                    "scalar %s mixes accumulation with plain writes" n)
                 line
             else
               match f.accum_dirty with
               | Some ln ->
                 add_dep c ~pass:"loopdep"
                   (Printf.sprintf
                      "accumulator %s folds in loop-varying values" n)
                   ln
               | None -> accums := (n, f) :: !accums
           end
           else if f.plain_write then note (Printf.sprintf "privatizable:%s" n)
       end)
    c.scalars;
  (* callee scalar reads vs. scalars this loop writes *)
  let written_roots =
    SS.fold
      (fun n acc ->
         match ivar with
         | Some v when String.equal v n -> acc
         | _ -> Scope.RS.add (Scope.resolve scope fid n) acc)
      c.written_names Scope.RS.empty
  in
  Scope.RS.iter
    (fun r ->
       if Scope.RS.mem r written_roots then
         add_dep c ~pass:"effects"
           (Printf.sprintf
              "callee reads scalar %s that the loop writes"
              (Scope.root_name r))
           line)
    c.callee_greads;
  (* heap roots *)
  let heap_roots =
    Hashtbl.fold (fun r l acc -> (r, !l) :: acc) c.heap []
    |> List.sort (fun (a, _) (b, _) -> Scope.root_compare a b)
  in
  let written_heap_roots =
    List.filter
      (fun (_, accs) -> List.exists (fun a -> a.is_write) accs)
      heap_roots
  in
  let any_heap_write = written_heap_roots <> [] in
  (* alias obligations between a written root and any other root *)
  List.iter
    (fun (r, accs) ->
       List.iter
         (fun (q, _) ->
            if Scope.root_compare r q < 0 && Scope.may_alias scope r q then
              add_rtc c ~pass:"scope"
                (Printf.sprintf "%s and %s may alias"
                   (Scope.root_name r) (Scope.root_name q))
                (match accs with a :: _ -> a.hline | [] -> line))
         heap_roots)
    written_heap_roots;
  if c.unknown_read && any_heap_write then
    add_rtc c ~pass:"loopdep"
      "a read through unresolved memory may see loop writes" line;
  (* footprints per written root *)
  (* A residual subscript name is invariant when nothing in this loop
     writes it. (Scalars written by callees already produced a
     [Sequential] dep above, which outranks any footprint proof.) *)
  let invariant v =
    (not (SS.mem v c.written_names))
    && match ivar with Some i -> not (String.equal i v) | None -> true
  in
  List.iter
    (fun (r, accs) ->
       let name = Scope.root_name r in
       let unknowns = List.filter (fun a -> a.hsub = Sunknown) accs in
       let props_written =
         List.filter_map
           (fun a ->
              match a.hsub with
              | Sprop p when a.is_write -> Some (p, a.hline)
              | _ -> None)
           accs
       in
       let elems =
         List.filter_map
           (fun a ->
              match a.hsub with
              | Slin l ->
                Some { Subscript.sub = l; line = a.hline; w = a.is_write }
              | _ -> None)
           accs
       in
       (match unknowns with
        | u :: _ ->
          add_rtc c ~pass:"subscript"
            (Printf.sprintf "access to %s with unresolved subscript" name)
            u.hline
        | [] -> ());
       List.iter
         (fun (p, ln) ->
            add_dep c ~pass:"subscript"
              (Printf.sprintf
                 "property %s.%s is written every iteration" name p)
              ln)
         (List.sort_uniq compare props_written);
       if elems <> [] then begin
         let res =
           match header with
           | `For_in binder ->
             Subscript.check_for_in ~binder ~accesses:elems
           | `For (Some ind) ->
             Subscript.check ~ivar:ind.Subscript.ivar
               ~step:ind.Subscript.step ~inner:extents ~invariant
               ~accesses:elems
           | `For None | `Cond ->
             (* no induction: subscripts must still be invariant, and
                then every iteration hits the same slots *)
             Subscript.check ~ivar:"%none" ~step:1 ~inner:extents
               ~invariant ~accesses:elems
         in
         match res with
         | Subscript.Disjoint ->
           note (Printf.sprintf "disjoint:%s" name)
         | Subscript.Anti_only ->
           wars := SS.add name !wars;
           note (Printf.sprintf "war:%s" name)
         | Subscript.Same_slot ln ->
           add_dep c ~pass:"subscript"
             (Printf.sprintf
                "element of %s is rewritten every iteration" name)
             ln
         | Subscript.Unproven (why, ln) ->
           add_rtc c ~pass:"subscript" (Printf.sprintf "%s: %s" name why) ln
       end)
    written_heap_roots;
  (* verdict *)
  let verdict =
    if c.deps <> [] then Verdict.Sequential (Verdict.normalize_facts c.deps)
    else if c.rtc <> [] then
      Verdict.Needs_runtime_check (Verdict.normalize_facts c.rtc)
    else begin
      let war_roots = SS.elements !wars in
      if !accums <> [] then begin
        let rng_env =
          match header with
          | `For (Some ind) ->
            let ivv = Range.induction_iv rng fid ~env:(fun _ -> None) ind in
            fun n ->
              if String.equal n ind.Subscript.ivar then ivv else None
          | _ -> fun _ -> None
        in
        let accs =
          !accums
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          |> List.map (fun (n, (f : scalar_facts)) ->
              let op = Option.value ~default:Verdict.Other f.acc_op in
              { Verdict.aname = n;
                op;
                order_insensitive =
                  Commute.order_insensitive rng fid ~env:rng_env ~op
                    ~contribs:f.contribs })
        in
        Verdict.Reduction { accs; war_roots }
      end
      else if war_roots = [] then Verdict.parallel
      else Verdict.Parallel { war_roots }
    end
  in
  { loop_id;
    kind;
    line;
    verdict;
    notes = List.sort_uniq String.compare !notes }

(* ------------------------------------------------------------------ *)
(* Program walk: find every loop, with its enclosing function. *)

let analyze_program (fx : Effects.t) (prog : Ast.program) : result list =
  let scope = Effects.scope fx in
  let rng = Range.create scope in
  let tcache : (Scope.fid, template option) Hashtbl.t = Hashtbl.create 16 in
  let out = ref [] in
  let fid_of_body (f : Ast.func) =
    let cands =
      List.filter
        (fun (fr : Scope.func_rec) ->
           fr.body == f.body && fr.params = f.params)
        (Scope.functions scope)
    in
    match cands with [ fr ] -> Some fr.fid | _ -> None
  in
  let analyze ~fid ~kind ~loop_id ~line ~header ~cond ~update ~body =
    out :=
      analyze_loop fx ~rng ~tcache ~fid ~kind ~loop_id ~line ~header ~cond
        ~update ~body
      :: !out
  in
  (* Each loop is analyzed when the walk reaches it, before its header
     and body are walked. *)
  let rec stmt fid (s : Ast.stmt) =
    let analyze = analyze ~fid ~line:s.sat.left.line in
    (match s.s with
     | Ast.While (id, g, b) ->
       analyze ~kind:Ast.Kwhile ~loop_id:id ~header:`Cond ~cond:(Some g)
         ~update:None ~body:[ b ]
     | Ast.Do_while (id, b, g) ->
       analyze ~kind:Ast.Kdo_while ~loop_id:id ~header:`Cond ~cond:(Some g)
         ~update:None ~body:[ b ]
     | Ast.For (id, init, g, u, b) ->
       let ind =
         Subscript.induction_of_for ~const_env:(Range.const_global rng) init g
           u ~line:s.sat.left.line
       in
       analyze ~kind:Ast.Kfor ~loop_id:id ~header:(`For ind) ~cond:g
         ~update:u ~body:[ b ]
     | Ast.For_in (id, (Ast.Binder_var n | Ast.Binder_ident n), _, b) ->
       analyze ~kind:Ast.Kfor_in ~loop_id:id ~header:(`For_in n) ~cond:None
         ~update:None ~body:[ b ]
     | _ -> ());
    match s.s with
    | Ast.Func_decl f -> enter_func fid f
    | _ -> Ast.iter_stmt ~stmt:(stmt fid) ~expr:(expr fid) s
  and expr fid (e : Ast.expr) =
    match e.e with
    | Ast.Function_expr f -> enter_func fid f
    | _ -> Ast.iter_expr ~stmt:(stmt fid) ~expr:(expr fid) e
  and enter_func fid (f : Ast.func) =
    match fid_of_body f with
    | Some inner -> List.iter (stmt inner) f.body
    | None -> List.iter (stmt fid) f.body
  in
  List.iter (stmt 0) prog.stmts;
  List.sort (fun a b -> compare a.loop_id b.loop_id) !out
