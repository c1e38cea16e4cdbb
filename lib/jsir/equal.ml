open Ast

let eq_list eq xs ys =
  List.length xs = List.length ys && List.for_all2 eq xs ys

let rec eq_expr ign (a : expr) (b : expr) =
  match a.e, b.e with
  | Number x, Number y ->
    (Float.is_nan x && Float.is_nan y) || x = y
  | String x, String y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Null, Null | Undefined, Undefined | This, This -> true
  | Ident x, Ident y -> String.equal x y
  | Array_lit xs, Array_lit ys -> eq_list (eq_expr ign) xs ys
  | Object_lit xs, Object_lit ys ->
    eq_list
      (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && eq_expr ign v1 v2)
      xs ys
  | Function_expr f, Function_expr g -> eq_func ign f g
  | Member (o1, f1), Member (o2, f2) ->
    eq_expr ign o1 o2 && String.equal f1 f2
  | Index (o1, i1), Index (o2, i2) -> eq_expr ign o1 o2 && eq_expr ign i1 i2
  | Call (c1, a1), Call (c2, a2) ->
    eq_expr ign c1 c2 && eq_list (eq_expr ign) a1 a2
  | New (c1, a1), New (c2, a2) ->
    eq_expr ign c1 c2 && eq_list (eq_expr ign) a1 a2
  | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && eq_expr ign e1 e2
  | Binop (o1, l1, r1), Binop (o2, l2, r2) ->
    o1 = o2 && eq_expr ign l1 l2 && eq_expr ign r1 r2
  | Logical (o1, l1, r1), Logical (o2, l2, r2) ->
    o1 = o2 && eq_expr ign l1 l2 && eq_expr ign r1 r2
  | Cond (c1, t1, f1), Cond (c2, t2, f2) ->
    eq_expr ign c1 c2 && eq_expr ign t1 t2 && eq_expr ign f1 f2
  | Assign (t1, o1, r1), Assign (t2, o2, r2) ->
    eq_target ign t1 t2 && o1 = o2 && eq_expr ign r1 r2
  | Update (k1, p1, t1), Update (k2, p2, t2) ->
    k1 = k2 && p1 = p2 && eq_target ign t1 t2
  | Seq (l1, r1), Seq (l2, r2) -> eq_expr ign l1 l2 && eq_expr ign r1 r2
  | Intrinsic i1, Intrinsic i2 ->
    let n1, a1 = intrinsic_call i1 and n2, a2 = intrinsic_call i2 in
    String.equal n1 n2 && eq_list (eq_expr ign) a1 a2
  | _ -> false

and eq_target ign a b =
  match a, b with
  | Tgt_ident x, Tgt_ident y -> String.equal x y
  | Tgt_member (o1, f1), Tgt_member (o2, f2) ->
    eq_expr ign o1 o2 && String.equal f1 f2
  | Tgt_index (o1, i1), Tgt_index (o2, i2) ->
    eq_expr ign o1 o2 && eq_expr ign i1 i2
  | _ -> false

and eq_func ign (f : func) (g : func) =
  Option.equal String.equal f.fname g.fname
  && eq_list String.equal f.params g.params
  && eq_list (eq_stmt ign) f.body g.body

and eq_loop_id ign (a : loop_id) (b : loop_id) = ign || a = b

(* Blocks are scope-transparent in MiniJS ([var] is function-scoped),
   so a single-statement block is equivalent to the bare statement and
   the empty block to the empty statement. The printer introduces such
   blocks to protect against the dangling-else ambiguity. *)
and normalize (s : stmt) =
  match s.s with
  | Block [ inner ] -> normalize inner
  | Block [] -> { s with s = Empty }
  | _ -> s

and eq_stmt ign (a : stmt) (b : stmt) =
  let a = normalize a and b = normalize b in
  match a.s, b.s with
  | Empty, Empty -> true
  | Break l1, Break l2 | Continue l1, Continue l2 ->
    Option.equal String.equal l1 l2
  | Labeled (n1, s1), Labeled (n2, s2) ->
    String.equal n1 n2 && eq_stmt ign s1 s2
  | Expr_stmt x, Expr_stmt y -> eq_expr ign x y
  | Var_decl xs, Var_decl ys ->
    eq_list
      (fun (n1, i1) (n2, i2) ->
         String.equal n1 n2 && Option.equal (eq_expr ign) i1 i2)
      xs ys
  | If (c1, t1, e1), If (c2, t2, e2) ->
    eq_expr ign c1 c2 && eq_stmt ign t1 t2 && Option.equal (eq_stmt ign) e1 e2
  | While (id1, c1, b1), While (id2, c2, b2) ->
    eq_loop_id ign id1 id2 && eq_expr ign c1 c2 && eq_stmt ign b1 b2
  | Do_while (id1, b1, c1), Do_while (id2, b2, c2) ->
    eq_loop_id ign id1 id2 && eq_stmt ign b1 b2 && eq_expr ign c1 c2
  | For (id1, i1, c1, u1, b1), For (id2, i2, c2, u2, b2) ->
    eq_loop_id ign id1 id2
    && Option.equal (eq_for_init ign) i1 i2
    && Option.equal (eq_expr ign) c1 c2
    && Option.equal (eq_expr ign) u1 u2
    && eq_stmt ign b1 b2
  | For_in (id1, bd1, o1, b1), For_in (id2, bd2, o2, b2) ->
    eq_loop_id ign id1 id2 && bd1 = bd2 && eq_expr ign o1 o2
    && eq_stmt ign b1 b2
  | Return x, Return y -> Option.equal (eq_expr ign) x y
  | Throw x, Throw y -> eq_expr ign x y
  | Try (b1, c1, f1), Try (b2, c2, f2) ->
    eq_list (eq_stmt ign) b1 b2
    && Option.equal
         (fun (n1, s1) (n2, s2) ->
            String.equal n1 n2 && eq_list (eq_stmt ign) s1 s2)
         c1 c2
    && Option.equal (eq_list (eq_stmt ign)) f1 f2
  | Block x, Block y -> eq_list (eq_stmt ign) x y
  | Func_decl f, Func_decl g -> eq_func ign f g
  | Switch (s1, c1), Switch (s2, c2) ->
    eq_expr ign s1 s2
    && eq_list
         (fun (g1, b1) (g2, b2) ->
            Option.equal (eq_expr ign) g1 g2 && eq_list (eq_stmt ign) b1 b2)
         c1 c2
  | _ -> false

and eq_for_init ign a b =
  match a, b with
  | Init_expr x, Init_expr y -> eq_expr ign x y
  | Init_var xs, Init_var ys ->
    eq_list
      (fun (n1, i1) (n2, i2) ->
         String.equal n1 n2 && Option.equal (eq_expr ign) i1 i2)
      xs ys
  | _ -> false

let expr ?(ignore_loop_ids = false) a b = eq_expr ignore_loop_ids a b
let stmt ?(ignore_loop_ids = false) a b = eq_stmt ignore_loop_ids a b

let program ?(ignore_loop_ids = false) (a : program) (b : program) =
  eq_list (eq_stmt ignore_loop_ids) a.stmts b.stmts
