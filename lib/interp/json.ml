(* JSON builtin: stringify and parse.

   The survey-era web apps the paper studies lean on JSON for
   cross-script communication (the Sec. 2.4 global-variable answers
   mention handing data "from the server to the client on page load");
   the workloads and tests use it for checksumming structures. The
   implementation follows ECMAScript semantics for the common cases:
   [undefined] and functions are dropped from objects and become [null]
   in arrays, cyclic structures throw a TypeError. *)

open Value

exception Cycle

let rec stringify_value st ~seen (v : value) : string option =
  match v with
  | Undefined -> None
  | Null -> Some "null"
  | Bool b -> Some (if b then "true" else "false")
  | Num f ->
    if Float.is_nan f || Float.abs f = Float.infinity then Some "null"
    else Some (Jsir.Printer.number_to_string f)
  | Str s -> Some (Jsir.Printer.string_to_source s)
  | Obj o when o.call <> None -> None
  | Obj o ->
    if List.memq o.oid seen then raise Cycle;
    let seen = o.oid :: seen in
    (match o.arr with
     | Some a ->
       let parts =
         List.init a.len (fun i ->
             match stringify_value st ~seen a.elems.(i) with
             | Some s -> s
             | None -> "null")
       in
       Some ("[" ^ String.concat "," parts ^ "]")
     | None ->
       let parts =
         own_keys o
         |> List.filter_map (fun key ->
             match stringify_value st ~seen (get_prop_obj o key) with
             | Some s -> Some (Jsir.Printer.string_to_source key ^ ":" ^ s)
             | None -> None)
       in
       Some ("{" ^ String.concat "," parts ^ "}"))

(* [JSON.parse] runs the repo's one JSON parser, [Ceres_util.Json], and
   converts its document. Each object is allocated before its members
   and each array after its elements, so object ids come out as a
   recursive-descent parser allocating on the fly would number them.
   Keys are set in source order: a duplicate key keeps its first
   position and takes its last value. *)
let rec of_json st : Ceres_util.Json.t -> value = function
  | Null -> Null
  | Bool b -> Bool b
  | Int i -> Num (float_of_int i)
  | Float f | Fixed (_, f) -> Num f
  | Str s -> Str s
  | List xs -> Obj (make_array st (Array.of_list (List.map (of_json st) xs)))
  | Obj kvs ->
    let o = make_obj st in
    List.iter (fun (k, v) -> raw_set_prop o k (of_json st v)) kvs;
    Obj o

let install st =
  let json = make_obj st in
  raw_set_prop json "stringify"
    (Obj
       (make_host_fn st "stringify" (fun st _ args ->
            let v = match args with [] -> Undefined | v :: _ -> v in
            match stringify_value st ~seen:[] v with
            | Some s -> Str s
            | None -> Undefined
            | exception Cycle ->
              type_error st "Converting circular structure to JSON")));
  raw_set_prop json "parse"
    (Obj
       (make_host_fn st "parse" (fun st _ args ->
            let text = match args with v :: _ -> to_string st v | [] -> "" in
            match Ceres_util.Json.of_string text with
            | Ok doc -> of_json st doc
            | Error msg -> throw_error st "SyntaxError" ("JSON.parse: " ^ msg))));
  raw_set_prop st.global_obj "JSON" (Obj json)
