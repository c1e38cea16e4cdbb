(* LRU result cache. Recency is a monotonically increasing tick per
   access; eviction scans for the minimum. The scan is O(entries), but
   capacities here are small (default 128) and entries are whole
   analysis responses that each took milliseconds-to-seconds to
   compute, so simplicity wins over an intrusive list. *)

type 'a entry = { value : 'a; mutable last_used : int }

type 'a t = {
  m : Mutex.t;
  table : (string, 'a entry) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ?(capacity = 128) () =
  { m = Mutex.create ();
    table = Hashtbl.create 32;
    capacity = max 1 capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0 }

let capacity t = t.capacity

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let find t key =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.table key with
      | Some e ->
        e.last_used <- t.tick;
        t.hits <- t.hits + 1;
        Js_parallel.Telemetry.(incr cache_hits);
        Some e.value
      | None ->
        t.misses <- t.misses + 1;
        Js_parallel.Telemetry.(incr cache_misses);
        None)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
         match acc with
         | Some (_, best) when best <= e.last_used -> acc
         | _ -> Some (key, e.last_used))
      t.table None
  in
  match victim with
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1;
    Js_parallel.Telemetry.(incr cache_evictions)
  | None -> ()

let add t key value =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      (match Hashtbl.find_opt t.table key with
       | Some _ -> Hashtbl.remove t.table key
       | None ->
         if Hashtbl.length t.table >= t.capacity then evict_lru t);
      Hashtbl.replace t.table key { value; last_used = t.tick })

let stats t =
  locked t (fun () ->
      { hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table })

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      (* Retire this cache's share, so the registry keeps equaling the
         sum over live caches. *)
      Js_parallel.Telemetry.(add cache_hits (-t.hits));
      Js_parallel.Telemetry.(add cache_misses (-t.misses));
      Js_parallel.Telemetry.(add cache_evictions (-t.evictions));
      t.tick <- 0;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)
