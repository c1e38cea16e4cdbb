type pass = Profile | Loops | Deps | Analyze | Crossval | Pipeline | Advise

type config = {
  scale : float option;
  focus : int option;
  max_nests : int option;
  cores : int list option;
}

type t = { pass : pass; workload : string; config : config }

(* [cores] is normalized on construction (positive, sorted,
   deduplicated) so that [to_json]/[of_json] round-trip exactly and
   equal requests cannot differ in cache key. *)
let normalize_cores cs =
  match List.sort_uniq compare (List.filter (fun c -> c >= 1) cs) with
  | [] -> None
  | cs -> Some cs

let make ?scale ?focus ?max_nests ?cores pass workload =
  { pass;
    workload;
    config =
      { scale;
        focus;
        max_nests;
        cores = Option.bind cores normalize_cores } }

let all_passes =
  [ ("profile", Profile); ("loops", Loops); ("deps", Deps);
    ("analyze", Analyze); ("crossval", Crossval); ("pipeline", Pipeline);
    ("advise", Advise) ]

let pass_name p =
  fst (List.find (fun (_, p') -> p' = p) all_passes)

let pass_of_name n = List.assoc_opt (String.lowercase_ascii n) all_passes

(* The fingerprint spells out every config field, absent ones
   included, so adding a field later cannot alias old keys. *)
let config_fingerprint (c : config) =
  let opt f = function None -> "-" | Some v -> f v in
  Printf.sprintf "scale=%s;focus=%s;max_nests=%s;cores=%s"
    (opt (Printf.sprintf "%.17g") c.scale)
    (opt string_of_int c.focus)
    (opt string_of_int c.max_nests)
    (opt
       (fun cs -> String.concat "," (List.map string_of_int cs))
       c.cores)

let key ~digest (t : t) =
  Printf.sprintf "%s:%s:%s" digest (pass_name t.pass)
    (config_fingerprint t.config)

(* ------------------------------------------------------------------ *)

let to_json (t : t) : Ceres_util.Json.t =
  let open Ceres_util.Json in
  let opt k f v rest =
    match v with None -> rest | Some v -> (k, f v) :: rest
  in
  Obj
    (("pass", Str (pass_name t.pass))
     :: ("workload", Str t.workload)
     :: opt "scale" (fun s -> Float s) t.config.scale
          (opt "focus" (fun i -> Int i) t.config.focus
             (opt "max_nests" (fun i -> Int i) t.config.max_nests
                (opt "cores"
                   (fun cs -> List (List.map (fun c -> Int c) cs))
                   t.config.cores []))))

let of_json (doc : Ceres_util.Json.t) : (t, string) result =
  let open Ceres_util.Json in
  match doc with
  | Obj kvs ->
    let known =
      [ "v"; "pass"; "workload"; "scale"; "focus"; "max_nests"; "cores" ]
    in
    (match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
     | Some (k, _) -> Error (Printf.sprintf "unknown member %S" k)
     | None ->
       (* The optional protocol-version member (DESIGN.md §9): absent
          means v1; any other value is rejected. The serve layer
          intercepts the mismatch first to answer with the structured
          [unsupported-version] code. *)
       let version_ok =
         match member "v" doc with
         | None -> Ok ()
         | Some v ->
           (match int_opt v with
            | Some 1 -> Ok ()
            | Some n ->
              Error
                (Printf.sprintf
                   "unsupported protocol version %d (this server speaks \
                    v1)"
                   n)
            | None -> Error "\"v\" must be an integer")
       in
       (match version_ok with
        | Error _ as e -> e
        | Ok () ->
          (match member "pass" doc, member "workload" doc with
           | None, _ -> Error "missing \"pass\""
           | _, None -> Error "missing \"workload\""
           | Some p, Some w ->
             (match string_opt p, string_opt w with
              | None, _ -> Error "\"pass\" must be a string"
              | _, None -> Error "\"workload\" must be a string"
              | Some p, Some w ->
                (match pass_of_name p with
                 | None ->
                   Error
                     (Printf.sprintf "unknown pass %S (expected one of %s)"
                        p
                        (String.concat ", " (List.map fst all_passes)))
                 | Some pass ->
                   let num k conv what =
                     match member k doc with
                     | None -> Ok None
                     | Some v ->
                       (match conv v with
                        | Some x -> Ok (Some x)
                        | None ->
                          Error (Printf.sprintf "%S must be %s" k what))
                   in
                   let ( let* ) = Result.bind in
                   let* scale = num "scale" float_opt "a number" in
                   let* focus = num "focus" int_opt "an integer" in
                   let* max_nests = num "max_nests" int_opt "an integer" in
                   let* cores =
                     match member "cores" doc with
                     | None -> Ok None
                     | Some (List items) ->
                       let ints = List.map int_opt items in
                       if List.exists Option.is_none ints
                       || List.exists
                            (fun c -> Option.get c < 1)
                            (List.filter Option.is_some ints)
                       then
                         Error
                           "\"cores\" must be an array of positive \
                            integers"
                       else
                         Ok (normalize_cores (List.map Option.get ints))
                     | Some _ ->
                       Error
                         "\"cores\" must be an array of positive integers"
                   in
                   Ok { pass; workload = w;
                        config = { scale; focus; max_nests; cores } })))))
  | _ -> Error "request must be a JSON object"
