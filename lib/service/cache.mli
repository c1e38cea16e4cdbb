(** LRU result cache for the service core.

    Keys are opaque strings (the service derives them from the
    workload's source digest, the pass, and the config fingerprint,
    so a workload edit or a config change can never alias a stale
    entry). Thread-safe: batched execution probes and fills the cache
    from pool domains concurrently.

    Every hit/miss/eviction is also counted in the registry's
    [cache_hits]/[cache_misses]/[cache_evictions] counters
    ({!Js_parallel.Telemetry}), which every pool snapshot renders next
    to the scheduling telemetry. *)

type 'a t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** current occupancy *)
}

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default 128, clamped to >= 1) bounds the entry count;
    inserting into a full cache evicts the least-recently-used entry. *)

val capacity : 'a t -> int

val find : 'a t -> string -> 'a option
(** Probe; a hit refreshes the entry's recency. Counts one hit or one
    miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or refresh) a binding, evicting the LRU entry when full.
    Counts one eviction when a victim is dropped. *)

val stats : 'a t -> stats

val clear : 'a t -> unit
(** Drop all entries and zero this cache's counters, retiring its
    share from the registry's cache counters with a negative
    {!Js_parallel.Telemetry.add} — a cleared cache reports the same
    stats as a fresh one, locally and in every pool snapshot. *)
