(* Facts about the machine a run measured on. *)

(* Peak resident set of a live process, from Linux's /proc ([VmHWM]);
   0 where /proc is missing. *)
let peak_rss_mb ~pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line -> (
          match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
          | kb -> float_of_int kb /. 1024.
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let block ~commit : Ceres_util.Json.t =
  Obj
    [ ("nproc", Int (Domain.recommended_domain_count ()));
      ( "ocamlrunparam",
        match Sys.getenv_opt "OCAMLRUNPARAM" with
        | Some v -> Str v
        | None -> Null );
      ("ocaml", Str Sys.ocaml_version);
      ("commit", Str commit) ]
