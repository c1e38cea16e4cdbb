open Ast

type info = {
  id : loop_id;
  kind : loop_kind;
  line : int;
  parent : loop_id option;
  in_function : string option;
  depth : int;
}

type ctx = { parent : loop_id option; fn : string option; depth : int }

let index (p : program) : info array =
  let acc = ref [] in
  let add ctx id kind (span : span) =
    acc :=
      { id; kind; line = span.left.line; parent = ctx.parent;
        in_function = ctx.fn; depth = ctx.depth }
      :: !acc
  in
  let rec walk_stmt ctx (st : stmt) =
    (* Header expressions only matter through the function expressions
       they contain, which reset the nesting anyway, so they share the
       body's context. *)
    let loop id kind =
      add ctx id kind st.sat;
      let inner = { ctx with parent = Some id; depth = ctx.depth + 1 } in
      iter_stmt ~stmt:(walk_stmt inner) ~expr:(walk_expr inner) st
    in
    match st.s with
    | While (id, _, _) -> loop id Kwhile
    | Do_while (id, _, _) -> loop id Kdo_while
    | For (id, _, _, _, _) -> loop id Kfor
    | For_in (id, _, _, _) -> loop id Kfor_in
    | Func_decl f -> walk_func ctx f
    | _ -> iter_stmt ~stmt:(walk_stmt ctx) ~expr:(walk_expr ctx) st
  and walk_func ctx (f : func) =
    (* A function body resets the loop-nesting context: iterations of an
       enclosing loop do not syntactically contain the inner function's
       loops (they contain their *invocations*, which the dynamic
       analysis tracks separately). *)
    let fn = match f.fname with Some _ as n -> n | None -> ctx.fn in
    let inner = { parent = None; fn; depth = 0 } in
    List.iter (walk_stmt inner) f.body
  and walk_expr ctx (e : expr) =
    match e.e with
    | Function_expr f -> walk_func ctx f
    | _ -> iter_expr ~stmt:(walk_stmt ctx) ~expr:(walk_expr ctx) e
  in
  let top = { parent = None; fn = None; depth = 0 } in
  List.iter (walk_stmt top) p.stmts;
  let infos = Array.make p.loop_count None in
  List.iter (fun info -> infos.(info.id) <- Some info) !acc;
  Array.mapi
    (fun id slot ->
       match slot with
       | Some info -> info
       | None ->
         invalid_arg
           (Printf.sprintf "Loops.index: loop id %d missing from AST" id))
    infos

let find infos id =
  if id < 0 || id >= Array.length infos then
    invalid_arg (Printf.sprintf "Loops.find: unknown loop id %d" id);
  infos.(id)

let label info =
  Printf.sprintf "%s(line %d)" (loop_kind_name info.kind) info.line

let roots infos =
  Array.to_list infos
  |> List.filter (fun (info : info) -> info.parent = None)

let in_nest infos ~root id =
  let rec up i =
    if i = root then true
    else
      match (find infos i : info).parent with
      | Some p -> up p
      | None -> false
  in
  up id

let descendants infos id =
  Array.to_list infos
  |> List.filter_map (fun (info : info) ->
      if in_nest infos ~root:id info.id then Some info.id else None)
