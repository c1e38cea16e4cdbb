(* Chunks of a parallel loop instance, run in place on the master heap.

   A chunk gets a state of its own: a copy of the master's clock and
   PRNG, an empty console, host accesses that poison it, and its own
   oid and sid band. It also gets a private copy of the invocation
   frame, which holds the loop variable, the loop-local [var]s and the
   accumulators. Everything else it reads straight from the master
   heap. Its writes to objects and scopes older than the instance pass
   the write barrier ([Value.chunk], [Eval]): an overwrite of an
   element below a master array's length goes through, and every other
   such write raises {!Value.Par_abort} before it mutates anything.

   The first chunk to overwrite an element of a master array snapshots
   the array's elements once, under the instance's lock; after that
   each chunk only logs the indices it wrote. After the join an index
   two chunks wrote is an overlap: nothing orders the two writes. A
   poisoned or overlapping instance blits every snapshot back, which
   leaves the master heap as the fork found it, and the loop re-runs
   sequentially. A clean one leaves the elements where the chunks wrote
   them and writes the frame copies back in chunk order.

   Determinism boundary: DOM/canvas host operations, timers,
   [Math.random], [Date.now]/[performance.now] inside a chunk raise or
   are flagged by {!check_clean}. *)

open Value

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* The indices one chunk wrote in one master array, in write order. *)
type log = { arr : obj; mutable idx : int array; mutable n : int }

(* Shared by the chunks of one instance. *)
type instance = {
  lock : Mutex.t;
  snaps : (obj * value array) Itbl.t;
      (* oid -> master array, its elements before any chunk wrote one *)
}

type writes = {
  logs : log Itbl.t; (* oid -> this chunk's log *)
  mutable last : log; (* the array written last: most writes hit it *)
}

type t = {
  master : state;
  st : state; (* the chunk's *)
  frame : scope; (* the master's invocation frame *)
  copy : scope; (* the chunk's copy of it *)
  init : value array; (* the copy's slots as the fork made them *)
  init_vars : value Strtbl.t; (* and its dynamic bindings *)
  writes : writes;
  entry_busy : int64;
}

let instance () = { lock = Mutex.create (); snaps = Itbl.create 8 }

let no_log =
  { arr =
      { oid = -1; shape = root_shape; vals = [||]; proto = None; call = None;
        arr = None; host_tag = None };
    idx = [||]; n = 0 }

(* [Value.chunk.log_elem]: runs on the chunk's domain. *)
let log_elem inst w (o : obj) (a : arr_data) i =
  let l =
    if w.last.arr == o then w.last
    else
      match Itbl.find_opt w.logs o.oid with
      | Some l -> l
      | None ->
        Mutex.protect inst.lock (fun () ->
            if not (Itbl.mem inst.snaps o.oid) then
              Itbl.add inst.snaps o.oid (o, Array.sub a.elems 0 a.len));
        let l = { arr = o; idx = Array.make 64 0; n = 0 } in
        Itbl.add w.logs o.oid l;
        l
  in
  w.last <- l;
  if l.n = Array.length l.idx then begin
    let idx = Array.make (2 * l.n) 0 in
    Array.blit l.idx 0 idx 0 l.n;
    l.idx <- idx
  end;
  Array.unsafe_set l.idx l.n i;
  l.n <- l.n + 1

(* A fresh box for a boxed primitive. The commit takes a copy's slot as
   written when it no longer holds the box the fork put there. Only a
   read of that slot can reach the box, so every store of a number,
   string or boolean counts, even of the entry value; storing the box
   read back from the slot rewrites the value the chunk started from,
   which an earlier chunk's write stands for. An object, or an
   immediate such as [undefined], keeps its identity: a chunk storing
   the entry value again looks as if it had not written, so
   [ambiguous_write_back] sends such an instance back to sequential. *)
let rebox = function
  | Num f -> Num f
  | Str s -> Str s
  | Bool b -> Bool b
  | v -> v

(* A chunk of [inst] over [frame]. Objects below [write_floor] and
   scopes below [scope_floor] are the master's; the chunk allocates
   from [next_oid] and [next_sid], its copy of the frame first. *)
let fork (master : state) inst ~(frame : scope) ~write_floor ~scope_floor
    ~next_oid ~next_sid : t =
  let init_vars = Strtbl.create (Strtbl.length frame.vars) in
  let vars =
    if Strtbl.length frame.vars = 0 then no_vars
    else begin
      let t = Strtbl.create (Strtbl.length frame.vars) in
      Strtbl.iter
        (fun k (c : cell) ->
           let v = rebox c.v in
           Strtbl.replace init_vars k v;
           Strtbl.replace t k { v })
        frame.vars;
      t
    end
  in
  let init = Array.map rebox frame.slots in
  let copy = { frame with sid = next_sid; vars; slots = Array.copy init } in
  let writes = { logs = Itbl.create 4; last = no_log } in
  let st =
    { master with
      clock = Ceres_util.Vclock.copy master.clock;
      prng = Ceres_util.Prng.copy master.prng;
      (* a loop at the top level runs on a copy of the global frame *)
      global_scope =
        (if frame == master.global_scope then copy else master.global_scope);
      next_oid;
      next_sid = next_sid + 1;
      console = [];
      echo_console = false;
      on_call_boundary = None;
      on_host_access =
        (fun cat op -> master_write ("host access " ^ cat ^ "/" ^ op));
      on_tick = None;
      on_call_site = None;
      host_time_reads = 0;
      on_loop = None;
      write_floor;
      scope_floor;
      chunk = Some { frame; copy; log_elem = log_elem inst writes } }
  in
  { master; st; frame; copy; init; init_vars; writes;
    entry_busy = Ceres_util.Vclock.busy master.clock }

let busy_delta c = Int64.sub (Ceres_util.Vclock.busy c.st.clock) c.entry_busy

(* Effects outside the heap that the chunk's state kept to itself. *)
let check_clean c : (unit, string) result =
  let s = c.st and m = c.master in
  if not (Ceres_util.Prng.same_state s.prng m.prng) then
    Error "Math.random drawn inside chunk"
  else if s.host_time_reads > 0 then Error "clock read inside chunk"
  else if not (s.events == m.events) then Error "timer scheduled inside chunk"
  else if s.next_event_seq <> m.next_event_seq then
    Error "timer id allocated inside chunk"
  else if
    not
      (Int64.equal
         (Ceres_util.Vclock.idle s.clock)
         (Ceres_util.Vclock.idle m.clock))
  then Error "idle time advanced inside chunk"
  else Ok ()

(* Did two of the chunks, in chunk order, write one element? *)
let overlaps inst (chunks : t list) =
  Itbl.fold
    (fun oid (_, snap) found ->
       found
       ||
       let owner = Array.make (Array.length snap) (-1) in
       let rec mark k (l : log) j =
         j < l.n
         &&
         let i = Array.unsafe_get l.idx j in
         let w = owner.(i) in
         (w >= 0 && w <> k) || (owner.(i) <- k; mark k l (j + 1))
       in
       let rec go k = function
         | [] -> false
         | c :: rest ->
           (match Itbl.find_opt c.writes.logs oid with
            | Some l -> mark k l 0
            | None -> false)
           || go (k + 1) rest
       in
       go 0 chunks)
    inst.snaps false

(* Can the write-back lose a rewrite? A slot or dynamic binding whose
   entry value kept its identity at the fork (an object or an
   immediate) reads as unwritten in a chunk that stored that value
   again. Once an earlier chunk changed it, a later chunk still holding
   the entry value either rewrote it, and is the last writer, or never
   wrote it, and the earlier write stands; nothing tells the two
   apart. *)
let ambiguous_write_back (chunks : t list) =
  let rec lost changed entry value = function
    | [] -> false
    | c :: rest ->
      let v = value c in
      (changed && v == entry) || lost (changed || v != entry) entry value rest
  in
  match chunks with
  | [] -> false
  | c0 :: _ ->
    let slots = c0.frame.slots in
    let rec slot i =
      i < Array.length c0.init
      && ((c0.init.(i) == slots.(i)
           && lost false slots.(i) (fun c -> c.copy.slots.(i)) chunks)
          || slot (i + 1))
    in
    slot 0
    || Strtbl.fold
         (fun k (cell : cell) found ->
            found
            ||
            match Strtbl.find_opt c0.init_vars k with
            | Some v when v == cell.v ->
              lost false v
                (fun c ->
                   match Strtbl.find_opt c.copy.vars k with
                   | Some cell -> cell.v
                   | None -> v)
                chunks
            | _ -> false)
         c0.frame.vars false

(* Every snapshotted array back as the fork found it. *)
let rollback inst =
  Itbl.iter
    (fun _ ((o : obj), snap) ->
       match o.arr with
       | Some a -> Array.blit snap 0 a.elems 0 (Array.length snap)
       | None -> ())
    inst.snaps

(* A clean instance: what each chunk wrote in its frame copy, and its
   console, in chunk order, so the last writer wins as it would
   sequentially. *)
let commit (chunks : t list) =
  List.iter
    (fun c ->
       let frame = c.frame and master = c.master in
       Array.iteri
         (fun i v -> if v != c.init.(i) then frame.slots.(i) <- v)
         c.copy.slots;
       Strtbl.iter
         (fun k (cell : cell) ->
            match Strtbl.find_opt c.init_vars k with
            | Some v when v == cell.v -> ()
            | _ -> (
              match Strtbl.find_opt frame.vars k with
              | Some m -> m.v <- cell.v
              | None -> Strtbl.replace (own_vars frame) k { v = cell.v }))
         c.copy.vars;
       master.console <- c.st.console @ master.console;
       if master.echo_console then
         List.iter print_endline (List.rev c.st.console))
    chunks
