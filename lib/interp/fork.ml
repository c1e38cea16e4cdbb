(* Share-nothing interpreter forks for parallel loop execution.

   A fork deep-copies everything a loop body can reach — the global
   scope chain, the global object, the prototype graph, the invocation
   scope and [this] — into a fresh [state] whose clock and PRNG are
   snapshots of the master's. Chunks of a proven-parallel loop then run
   on forks concurrently; afterwards each fork is *diffed* against the
   still-pristine master and the diffs are applied back in chunk order,
   which reproduces the sequential last-writer-wins outcome for
   disjoint scatter writes and the sequential push order for pure
   appends.

   Determinism boundary: a chunk that touches anything outside the
   forked heap — DOM/canvas host operations, timers, [Math.random],
   [Date.now]/[performance.now] — raises or is flagged by
   {!check_clean}, poisoning the whole nest back to sequential
   execution. Cloned objects and scopes keep their master ids, so a
   value is "unchanged" exactly when the ids match; fresh allocations
   draw from a disjoint id band supplied by the caller. *)

open Value

exception Par_abort of string
(* Raised (e.g. by the clone's [on_host_access]) to poison a chunk
   before it can touch shared host state. *)

(* Id-keyed tables. [Hashtbl.hash] is the generic table's hash, so
   [diff] walks [obj_fwd]/[scope_fwd] — and emits its edits — in the
   same order a generic [(int, _) Hashtbl.t] would. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  master : state;
  clone : state;
  obj_fwd : obj Itbl.t; (* shared oid -> clone object *)
  obj_rev : obj Itbl.t; (* shared oid -> master object *)
  scope_fwd : scope Itbl.t; (* shared sid -> clone scope *)
  scope_rev : scope Itbl.t; (* shared sid -> master scope *)
  fresh_scopes : scope Itbl.t;
      (* fresh clone sid -> master-side copy, built during remap (scope
         parents are immutable, so fresh scopes are copied, not adopted) *)
  adopted : unit Itbl.t; (* fresh oids already rewired *)
  entry_busy : int64;
}

type var_home = {
  owner : scope; (* master-side owning scope *)
  slot : int; (* -1 = dynamic cell in [owner.vars] *)
  name : string;
}

(* ------------------------------------------------------------------ *)
(* Forking                                                            *)
(* ------------------------------------------------------------------ *)

let fork (master : state) ~(scope : scope) ~(this : value) ~(next_oid : int)
    ~(next_sid : int) : t =
  let obj_fwd = Itbl.create 1024 in
  let obj_rev = Itbl.create 1024 in
  let scope_fwd = Itbl.create 64 in
  let scope_rev = Itbl.create 64 in
  let obj_q : (obj * obj) Queue.t = Queue.create () in
  let scope_q : (scope * scope) Queue.t = Queue.create () in
  (* Shells are memoised before their contents are filled (via the
     queues), so cyclic object graphs and closures capturing scopes
     that are still being copied both terminate. *)
  let rec obj_shell (o : obj) : obj =
    match Itbl.find_opt obj_fwd o.oid with
    | Some c -> c
    | None ->
      (* a shared shape is shared with the master; a dictionary is
         edited in place, so the shell gets its own copy *)
      let c =
        { oid = o.oid;
          shape = (if o.shape.dict then dict_of o.shape else o.shape);
          vals = [||]; proto = None; call = None; arr = None;
          host_tag = o.host_tag }
      in
      Itbl.add obj_fwd o.oid c;
      Itbl.add obj_rev o.oid o;
      Queue.add (o, c) obj_q;
      c
  and scope_shell (s : scope) : scope =
    match Itbl.find_opt scope_fwd s.sid with
    | Some c -> c
    | None ->
      (* the parent chain is acyclic and carries no values, so plain
         recursion is safe here *)
      let parent = Option.map scope_shell s.parent in
      (* [no_vars] until [fill_scope] (or the chunk) binds a name *)
      let c =
        { sid = s.sid; vars = no_vars; parent; ltab = s.ltab; slots = [||];
          syms = s.syms; fup = None }
      in
      Itbl.add scope_fwd s.sid c;
      Itbl.add scope_rev s.sid s;
      Queue.add (s, c) scope_q;
      c
  in
  let cval (v : value) : value =
    match v with Obj o -> Obj (obj_shell o) | v -> v
  in
  let fill_obj ((o : obj), (c : obj)) =
    c.vals <- Array.map cval o.vals;
    c.proto <- Option.map obj_shell o.proto;
    (match o.call with
     | None -> ()
     | Some ((Host _ | Host_unary _) as h) ->
       c.call <- Some h (* host code is stateless *)
     | Some (Closure cl) ->
       c.call <- Some (Closure { cl with captured = scope_shell cl.captured }));
    match o.arr with
    | None -> ()
    | Some a ->
      c.arr <- Some { elems = Array.init a.len (fun i -> cval a.elems.(i));
                      len = a.len }
  in
  let fill_scope ((s : scope), (c : scope)) =
    c.slots <- Array.map cval s.slots;
    if Strtbl.length s.vars > 0 then begin
      let vars = own_vars c in
      Strtbl.iter
        (fun k (cell : cell) -> Strtbl.replace vars k { v = cval cell.v })
        s.vars
    end;
    c.fup <- Option.map scope_shell s.fup
  in
  let g_scope = scope_shell master.global_scope in
  ignore (scope_shell scope);
  let g_obj = obj_shell master.global_obj in
  let object_proto = obj_shell master.object_proto in
  let array_proto = obj_shell master.array_proto in
  let function_proto = obj_shell master.function_proto in
  let string_proto = obj_shell master.string_proto in
  let number_proto = obj_shell master.number_proto in
  let error_proto = obj_shell master.error_proto in
  ignore (cval this);
  let rec drain () =
    if not (Queue.is_empty obj_q) then begin
      fill_obj (Queue.pop obj_q);
      drain ()
    end
    else if not (Queue.is_empty scope_q) then begin
      fill_scope (Queue.pop scope_q);
      drain ()
    end
  in
  drain ();
  let clone =
    { clock = Ceres_util.Vclock.copy master.clock;
      prng = Ceres_util.Prng.copy master.prng;
      symtab = master.symtab; (* no runtime interning: safe to share *)
      global_scope = g_scope;
      global_obj = g_obj;
      object_proto;
      array_proto;
      function_proto;
      string_proto;
      number_proto;
      error_proto;
      next_oid;
      next_sid;
      call_depth = master.call_depth;
      max_call_depth = master.max_call_depth;
      budget = master.budget;
      console = [];
      echo_console = false;
      intrinsics = master.intrinsics;
      on_call_enter = None;
      on_call_exit = None;
      on_host_access =
        (fun cat op -> raise (Par_abort ("host access " ^ cat ^ "/" ^ op)));
      on_tick = None;
      on_call_site = None;
      apply = master.apply;
      events = master.events; (* shared: any physical change poisons *)
      next_event_seq = master.next_event_seq;
      host_time_reads = 0;
      on_loop = None }
  in
  { master; clone; obj_fwd; obj_rev; scope_fwd; scope_rev;
    fresh_scopes = Itbl.create 16; adopted = Itbl.create 16;
    entry_busy = Ceres_util.Vclock.busy master.clock }

let scope_in t (s : scope) : scope = Itbl.find t.scope_fwd s.sid
let value_in t (v : value) : value =
  match v with
  | Obj o -> Obj (Itbl.find t.obj_fwd o.oid)
  | v -> v

let busy_delta t =
  Int64.sub (Ceres_util.Vclock.busy t.clone.clock) t.entry_busy

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

let check_clean t : (unit, string) result =
  let c = t.clone and m = t.master in
  if not (Ceres_util.Prng.same_state c.prng m.prng) then
    Error "Math.random drawn inside chunk"
  else if c.host_time_reads > 0 then Error "clock read inside chunk"
  else if not (c.events == m.events) then Error "timer scheduled inside chunk"
  else if c.next_event_seq <> m.next_event_seq then
    Error "timer id allocated inside chunk"
  else if
    not
      (Int64.equal
         (Ceres_util.Vclock.idle c.clock)
         (Ceres_util.Vclock.idle m.clock))
  then Error "idle time advanced inside chunk"
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Diffing (fork vs the still-pristine master)                        *)
(* ------------------------------------------------------------------ *)

type edit =
  | Set_prop of obj * string * value (* master obj, clone-space value *)
  | Add_prop of obj * string * value
  | Del_prop of obj * string
  | Set_proto of obj * obj option
  | Set_call of obj * callable option
  | Set_elem of obj * int * value
  | Set_slot of scope * int * value (* master scope *)
  | Set_cell of cell * value
  | New_var of scope * string * value

type growth =
  | Gappend of obj * value array (* contiguous push region past entry len *)
  | Gpositional of obj * int * (int * value) list (* new len, sparse writes *)

type diff = {
  d_fork : t;
  edits : edit list;
  growths : growth list;
  poison : string option;
}

let same_value (m : value) (c : value) =
  match m, c with
  | Num a, Num b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | Str a, Str b -> String.equal a b
  | Bool a, Bool b -> Bool.equal a b
  | Undefined, Undefined | Null, Null -> true
  | Obj a, Obj b -> a.oid = b.oid (* clone counterparts keep master oids *)
  | _, _ -> false

let same_callable m c =
  match m, c with
  | None, None -> true
  | Some (Host (_, f1)), Some (Host (_, f2)) -> f1 == f2
  | Some (Host_unary (_, f1)), Some (Host_unary (_, f2)) -> f1 == f2
  | Some (Closure c1), Some (Closure c2) ->
    c1.fn == c2.fn && c1.captured.sid = c2.captured.sid
  | _, _ -> false

(* Is shared shape [c] [m] plus keys added after [m]'s? *)
let rec extends (c : shape) (m : shape) =
  c == m || (c.size > m.size && extends c.prev m)

(* The property edits taking master [m] to its clone [c]. Shells share
   their master's shared shape: while the chunk only overwrote, the
   shapes are one and the slots are compared in place; keys it added
   extend the shape, and are added in order. A dictionary (its own copy
   in the clone), or a shape a delete left, is compared key by key: the
   clone's keys keep their place while they follow the master's order,
   and from the first one that does not (a new key, or one deleted and
   re-added) every key is deleted and appended again, so the master
   ends with the clone's key order. *)
let diff_props add (m : obj) (c : obj) =
  let ms = m.shape and cs = c.shape in
  if (not ms.dict) && (not cs.dict) && extends cs ms then begin
    for i = 0 to ms.size - 1 do
      let cv = c.vals.(i) in
      if not (same_value m.vals.(i) cv) then add (Set_prop (m, ms.keys.(i), cv))
    done;
    for i = ms.size to cs.size - 1 do
      add (Add_prop (m, cs.keys.(i), c.vals.(i)))
    done
  end
  else begin
    let last = ref (-1) and moved = ref false and tail = ref [] in
    for i = 0 to cs.size - 1 do
      let k = cs.keys.(i) in
      if k != hole then begin
        let cv = c.vals.(i) in
        let s = slot_of ms k in
        if (not !moved) && s > !last then begin
          last := s;
          if not (same_value m.vals.(s) cv) then add (Set_prop (m, k, cv))
        end
        else begin
          moved := true;
          tail := (k, s, cv) :: !tail
        end
      end
    done;
    let tail = List.rev !tail in
    for i = 0 to ms.size - 1 do
      let k = ms.keys.(i) in
      if k != hole && slot_of cs k < 0 then add (Del_prop (m, k))
    done;
    List.iter (fun (k, s, _) -> if s >= 0 then add (Del_prop (m, k))) tail;
    List.iter (fun (k, _, cv) -> add (Add_prop (m, k, cv))) tail
  end

let diff ?(skip = []) (t : t) : diff =
  let edits = ref [] in
  let growths = ref [] in
  let poison = ref None in
  let add e = edits := e :: !edits in
  let taint why = if !poison = None then poison := Some why in
  let skip_slot ms i =
    List.exists (fun h -> h.owner == ms && h.slot = i && i >= 0) skip
  in
  let skip_var ms k =
    List.exists
      (fun h -> h.owner == ms && h.slot < 0 && String.equal h.name k)
      skip
  in
  Itbl.iter
    (fun oid (c : obj) ->
       let m = Itbl.find t.obj_rev oid in
       diff_props add m c;
       (match m.proto, c.proto with
        | None, None -> ()
        | Some mp, Some cp when mp.oid = cp.oid -> ()
        | _, _ -> add (Set_proto (m, c.proto)));
       if not (same_callable m.call c.call) then add (Set_call (m, c.call));
       (match m.host_tag, c.host_tag with
        | None, None -> ()
        | Some a, Some b when String.equal a b -> ()
        | _, _ -> taint "host tag changed inside chunk");
       match m.arr, c.arr with
       | None, None -> ()
       | Some ma, Some ca ->
         let n = min ma.len ca.len in
         for i = 0 to n - 1 do
           if not (same_value ma.elems.(i) ca.elems.(i)) then
             add (Set_elem (m, i, ca.elems.(i)))
         done;
         if ca.len < ma.len then taint "array shrank inside chunk"
         else if ca.len > ma.len then begin
           let region = Array.sub ca.elems ma.len (ca.len - ma.len) in
           let pure =
             Array.for_all (function Undefined -> false | _ -> true) region
           in
           if pure then growths := Gappend (m, region) :: !growths
           else begin
             let writes = ref [] in
             Array.iteri
               (fun i v ->
                  match v with
                  | Undefined -> ()
                  | v -> writes := (ma.len + i, v) :: !writes)
               region;
             growths := Gpositional (m, ca.len, List.rev !writes) :: !growths
           end
         end
       | _, _ -> taint "array-ness changed inside chunk")
    t.obj_fwd;
  Itbl.iter
    (fun sid (c : scope) ->
       let m = Itbl.find t.scope_rev sid in
       if Array.length c.slots <> Array.length m.slots then
         taint "frame layout changed inside chunk"
       else
         for i = 0 to Array.length m.slots - 1 do
           if (not (skip_slot m i)) && not (same_value m.slots.(i) c.slots.(i))
           then add (Set_slot (m, i, c.slots.(i)))
         done;
       Strtbl.iter
         (fun k (ccell : cell) ->
            if not (skip_var m k) then
              match Strtbl.find_opt m.vars k with
              | Some mcell ->
                if not (same_value mcell.v ccell.v) then
                  add (Set_cell (mcell, ccell.v))
              | None -> add (New_var (m, k, ccell.v)))
         c.vars)
    t.scope_fwd;
  { d_fork = t; edits = List.rev !edits; growths = List.rev !growths;
    poison = !poison }

(* ------------------------------------------------------------------ *)
(* Remapping clone-space values into the master heap                  *)
(* ------------------------------------------------------------------ *)

(* Cloned-from-master objects map back to their originals; fresh
   objects are *adopted* — their innards rewritten in place so their
   banded oids stay unique in the master heap. Fresh scopes are copied
   (the [parent] field is immutable) with their innards remapped in
   place, shared by the copy. *)
let remapper t =
  let obj_q : obj Queue.t = Queue.create () in
  let scope_q : scope Queue.t = Queue.create () in
  let rec robj (o : obj) : obj =
    match Itbl.find_opt t.obj_rev o.oid with
    | Some m -> m
    | None ->
      if not (Itbl.mem t.adopted o.oid) then begin
        Itbl.add t.adopted o.oid ();
        Queue.add o obj_q
      end;
      o
  and rscope (s : scope) : scope =
    match Itbl.find_opt t.scope_rev s.sid with
    | Some m -> m
    | None -> (
      match Itbl.find_opt t.fresh_scopes s.sid with
      | Some copy -> copy
      | None ->
        let parent = Option.map rscope s.parent in
        let copy =
          { sid = s.sid; vars = s.vars; parent; ltab = s.ltab; slots = s.slots;
            syms = s.syms; fup = None }
        in
        Itbl.add t.fresh_scopes s.sid copy;
        Queue.add s scope_q;
        copy)
  in
  let rval (v : value) : value =
    match v with Obj o -> Obj (robj o) | v -> v
  in
  let rec drain () =
    if not (Queue.is_empty obj_q) then begin
      let o = Queue.pop obj_q in
      for i = 0 to Array.length o.vals - 1 do
        o.vals.(i) <- rval o.vals.(i)
      done;
      o.proto <- Option.map robj o.proto;
      (match o.call with
       | Some (Closure cl) ->
         o.call <- Some (Closure { cl with captured = rscope cl.captured })
       | _ -> ());
      (match o.arr with
       | Some a ->
         for i = 0 to a.len - 1 do
           a.elems.(i) <- rval a.elems.(i)
         done
       | None -> ());
      drain ()
    end
    else if not (Queue.is_empty scope_q) then begin
      let s = Queue.pop scope_q in
      let copy = Itbl.find t.fresh_scopes s.sid in
      for i = 0 to Array.length s.slots - 1 do
        s.slots.(i) <- rval s.slots.(i)
      done;
      Strtbl.iter (fun _ (cell : cell) -> cell.v <- rval cell.v) s.vars;
      copy.fup <- Option.map rscope s.fup;
      drain ()
    end
  in
  (rval, rscope, drain)

(* ------------------------------------------------------------------ *)
(* Applying a diff back onto the master                               *)
(* ------------------------------------------------------------------ *)

let arr_grow (a : arr_data) n =
  ensure_capacity a n;
  if n > a.len then a.len <- n

let raw_delete (o : obj) k =
  ignore (raw_delete_prop o k)

let apply_diff (d : diff) =
  let t = d.d_fork in
  let rval, rscope, drain = remapper t in
  let rcallable = function
    | None -> None
    | Some ((Host _ | Host_unary _) as h) -> Some h
    | Some (Closure cl) ->
      Some (Closure { cl with captured = rscope cl.captured })
  in
  List.iter
    (fun e ->
       (match e with
        | Set_prop (m, k, v) | Add_prop (m, k, v) -> raw_set_prop m k (rval v)
        | Del_prop (m, k) -> raw_delete m k
        | Set_proto (m, p) ->
          m.proto <-
            Option.map (fun o -> match rval (Obj o) with
               | Obj x -> x
               | _ -> assert false) p
        | Set_call (m, c) -> m.call <- rcallable c
        | Set_elem (m, i, v) -> (
          match m.arr with
          | Some a -> a.elems.(i) <- rval v
          | None -> assert false)
        | Set_slot (ms, i, v) -> ms.slots.(i) <- rval v
        | Set_cell (cell, v) -> cell.v <- rval v
        | New_var (ms, k, v) -> Strtbl.replace (own_vars ms) k { v = rval v });
       drain ())
    d.edits;
  List.iter
    (fun g ->
       (match g with
        | Gappend (m, region) -> (
          match m.arr with
          | Some a ->
            let base = a.len in
            arr_grow a (base + Array.length region);
            Array.iteri (fun i v -> a.elems.(base + i) <- rval v) region
          | None -> assert false)
        | Gpositional (m, new_len, writes) -> (
          match m.arr with
          | Some a ->
            arr_grow a (max a.len new_len);
            List.iter (fun (i, v) -> a.elems.(i) <- rval v) writes
          | None -> assert false));
       drain ())
    d.growths;
  (* console: clone logs are a reversed (newest-first) delta; stacking
     them in chunk order reproduces the sequential log *)
  t.master.console <- t.clone.console @ t.master.console;
  if t.master.echo_console then
    List.iter print_endline (List.rev t.clone.console)

(* Cross-fork array-growth admissibility: concatenating pure appends in
   chunk order is sequential push order; a single positional grower is
   sequential scatter; anything else cannot be merged deterministically. *)
let growths_admissible (ds : diff list) : bool =
  let tbl = Itbl.create 8 in
  List.iter
    (fun d ->
       List.iter
         (fun g ->
            let oid, positional =
              match g with
              | Gappend (m, _) -> m.oid, false
              | Gpositional (m, _, _) -> m.oid, true
            in
            let appends, positionals =
              Option.value ~default:(0, 0) (Itbl.find_opt tbl oid)
            in
            Itbl.replace tbl oid
              (if positional then (appends, positionals + 1)
               else (appends + 1, positionals)))
         d.growths)
    ds;
  Itbl.fold
    (fun _ (appends, positionals) ok ->
       ok && (positionals = 0 || appends + positionals = 1))
    tbl true
