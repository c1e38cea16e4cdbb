(* Zeroes the five GC counters on the telemetry line of a [jsceres
   serve] transcript: they move with every interpreter change. Every
   other line passes through byte for byte. *)

module Json = Ceres_util.Json

let counters =
  [ "minor_words"; "promoted_words"; "major_words"; "minor_collections";
    "major_collections" ]

let rec zero : Json.t -> Json.t = function
  | Obj kvs ->
    let field (k, v) = (k, if List.mem k counters then Json.Int 0 else zero v) in
    Obj (List.map field kvs)
  | v -> v

let () =
  In_channel.input_lines stdin
  |> List.iter (fun line ->
      print_endline
        (match Json.of_string line with
         | Ok doc when Json.member "telemetry" doc <> None ->
           Json.to_string (zero doc)
         | _ -> line))
