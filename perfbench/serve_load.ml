(* The serve workload: a [jsceres serve --socket] child with default
   admission, driven by a closed loop of two connections from this
   process.

   The request stream is a pure function of (seed, client, index).
   About 9 requests in 10 name one of the [warm_keys] that set-up put in
   the server's cache (the read path); the rest are [analyze] requests
   with a [scale] no other request uses, so they miss, run the parser
   and the static analyzer, and insert (the write path). *)

module Json = Ceres_util.Json
module R = Service.Request

let names = Array.of_list Workloads.Registry.names
let warm_passes = [| R.Profile; R.Analyze |]

let warm_keys =
  Array.concat
    (Array.to_list
       (Array.map (fun p -> Array.map (fun w -> R.make p w) names) warm_passes))

type planned = Hit of int | Miss of R.t

(* Request [i] of client [client]'s stream. *)
let plan ~seed ~client i =
  let rng = Random.State.make [| seed; client; i |] in
  if Random.State.int rng 10 = 0 then
    let w = names.(Random.State.int rng (Array.length names)) in
    (* unique per (client, index) *)
    let n = (client * 1_000_000) + i + 1 in
    Miss (R.make ~scale:(1. +. (float_of_int n *. 1e-7)) R.Analyze w)
  else Hit (Random.State.int rng (Array.length warm_keys))

let request_of = function Hit k -> warm_keys.(k) | Miss r -> r
let line_of req = Json.to_string (R.to_json req)
let response_line resp = Json.to_string (Service.Response.to_json resp)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type conn = { ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close c = try close_out c.oc with Sys_error _ -> ()

let exchange c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

(* ------------------------------------------------------------------ *)
(* The server child                                                    *)

type server = { pid : int; ctl : conn }

let rec wait_connect path deadline =
  match connect path with
  | Some c -> c
  | None ->
    if Unix.gettimeofday () > deadline then failwith "serve: server did not come up";
    Unix.sleepf 0.005;
    wait_connect path deadline

let spawn ~exe ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; socket |] Unix.stdin
      null Unix.stderr
  in
  Unix.close null;
  { pid; ctl = wait_connect socket (Unix.gettimeofday () +. 60.) }

let rec waitpid_deadline pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Unix.gettimeofday () < deadline ->
    Unix.sleepf 0.01;
    waitpid_deadline pid deadline
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_deadline pid deadline

(* Ask for a drain; escalate to SIGKILL if the child lingers. *)
let stop s =
  (try ignore (exchange s.ctl "{\"op\":\"shutdown\"}") with _ -> ());
  close s.ctl;
  if not (waitpid_deadline s.pid (Unix.gettimeofday () +. 10.)) then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid)
  end

let op s name = Json.of_string (exchange s.ctl (Printf.sprintf "{\"op\":%S}" name))

let int_at path doc =
  let rec go doc = function
    | [] -> (match doc with Json.Int n -> n | _ -> failwith "serve: not an int")
    | k :: rest -> (
        match Json.member k doc with
        | Some d -> go d rest
        | None -> failwith ("serve: no member " ^ k))
  in
  match doc with Ok d -> go d path | Error m -> failwith ("serve: " ^ m)

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  admitted : int;
  shed : int;
  timed_out : int;
}

let counters s =
  let d = op s "telemetry" in
  let get path = int_at ("telemetry" :: path) d in
  { hits = get [ "cache"; "hits" ];
    misses = get [ "cache"; "misses" ];
    evictions = get [ "cache"; "evictions" ];
    admitted = get [ "server"; "requests_admitted" ];
    shed = get [ "server"; "requests_shed" ];
    timed_out = get [ "server"; "requests_timed_out" ] }

(* Set-up: start the server and fill its cache with every warm key. *)
let setup ~exe ~socket =
  let s = spawn ~exe ~socket in
  Array.iter (fun r -> ignore (exchange s.ctl (line_of r))) warm_keys;
  s

let peak_rss_mb s = Host.peak_rss_mb ~pid:s.pid

(* ------------------------------------------------------------------ *)
(* Expected bodies, from an in-process service                         *)

type oracle = {
  svc : Service.t; (* warm: every warm key is cached *)
  hits : string array; (* per warm key *)
  misses : (string, string) Hashtbl.t; (* per workload *)
}

(* [analyze] bodies do not depend on [scale], so one in-process run per
   workload, with a scale the stream never uses, is the expected body
   of every miss on that workload. *)
let oracle () =
  let svc = Service.create () in
  let misses = Hashtbl.create 12 in
  Array.iter
    (fun w ->
       Hashtbl.replace misses w
         (response_line (Service.run svc (R.make ~scale:0.5 R.Analyze w))))
    names;
  { svc;
    hits = Array.map (fun r -> response_line (Service.run svc r)) warm_keys;
    misses }

let expected o = function
  | Hit k -> o.hits.(k)
  | Miss r -> Hashtbl.find o.misses r.R.workload

(* ------------------------------------------------------------------ *)
(* Closed-loop clients                                                 *)

type outcome = Ok_body | Wrong_body | Shed | Timed_out | Error_reply | Dropped

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let classify ~expected line =
  if String.equal line expected then Ok_body
  else if contains ~sub:"\"overloaded\"" line then Shed
  else if contains ~sub:"vclock budget exhausted" line then Timed_out
  else if contains ~sub:"\"error\"" line then Error_reply
  else Wrong_body

(* [seg]: the segment of the load the request was sent in *)
type sample = { miss : bool; ms : float; seg : int; outcome : outcome }

type tally = {
  mutable samples : sample list;
  mutable sent_hits : int;
  mutable sent_misses : int;
  mutable next : int; (* index of the client's next request *)
}

let tallies clients =
  Array.init clients (fun _ -> { samples = []; sent_hits = 0; sent_misses = 0; next = 0 })

(* One client, on a connection of its own: its stream from where it
   stopped last until [stop] says so. *)
let client ~socket ~seed ~client:c ~stop ~expected ~seg tally =
  let conn = ref (connect socket) in
  let i = ref tally.next in
  while not (stop !i) do
    let p = plan ~seed ~client:c !i in
    incr i;
    (match p with
     | Hit _ -> tally.sent_hits <- tally.sent_hits + 1
     | Miss _ -> tally.sent_misses <- tally.sent_misses + 1);
    let line = line_of (request_of p) in
    let t0 = Unix.gettimeofday () in
    let outcome =
      match !conn with
      | None -> Dropped
      | Some cn -> (
          match exchange cn line with
          | reply -> classify ~expected:(expected p) reply
          | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
            close cn;
            conn := connect socket;
            Dropped)
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    tally.samples <- { miss = (match p with Miss _ -> true | Hit _ -> false); ms; seg; outcome }
                     :: tally.samples
  done;
  tally.next <- !i;
  Option.iter close !conn

(* Run segment [seg] of the load: one concurrent client per tally,
   each until [stop] says so. Returns the wall seconds it ran. Each
   client is a domain of its own: as threads of one domain, which take
   turns on its runtime lock, their throughput over five seeds spread
   2.5 times as wide. *)
let drive ~socket ~seed ~tallies ~seg ~stop ~expected =
  let start = Unix.gettimeofday () in
  let clients =
    Array.mapi
      (fun c t ->
         Domain.spawn (fun () ->
             client ~socket ~seed ~client:c ~stop:(stop c) ~expected ~seg t))
      tallies
  in
  Array.iter Domain.join clients;
  Unix.gettimeofday () -. start
