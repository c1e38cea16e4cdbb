(** Interned program symbols (hash-consed names).

    One table per interpreter state. The front-end resolver interns
    every identifier, property name and string literal once; the
    evaluator and the dependence runtime then work with small ints
    (O(1) equal/hash, packable into int keys) and only resolve back to
    strings at report time.

    Not thread-safe: a table belongs to one interpreter state, which
    is single-domain by construction (the parallel drivers give every
    workload its own state). *)

type table

val bits : int
(** Symbols fit in this many bits; packed keys rely on it. *)

val create : unit -> table

val intern : table -> string -> int
(** Idempotent; the canonical-array-index check
    ([int_of_string_opt] + round-trip) runs exactly once per distinct
    name, here, never on the hot path. *)

val name : table -> int -> string
(** The interned string (shared, not copied). *)

val canonical : table -> int -> string
(** Warning-aggregation name: ["[elem]"] for numeric property names
    (anything [int_of_string_opt] accepts — the dependence runtime's
    aggregation rule), the name itself otherwise. Precomputed at
    intern time. *)

val canonical_sym : table -> int -> int
(** A symbol standing for [canonical]: one shared id for every name
    whose canonical form is ["[elem]"], the symbol itself otherwise.
    Two symbols have the same canonical name exactly when they have
    the same canonical symbol. Precomputed at intern time. *)

val array_index : table -> int -> int
(** The canonical array index of the symbol, or [-1]. *)

val of_index : table -> int -> int
(** Symbol of [string_of_int i]; cached so repeated small indices
    allocate nothing. *)

val count : table -> int

(** {1 Global frame slots}

    Slots of the shared global frame are allocated against the state's
    table (not per program), so successive programs resolved on one
    state agree on the global layout. *)

val global_slot : table -> int -> int
(** Slot for the symbol, allocating the next one on first use. *)

val find_global_slot : table -> int -> int
(** The allocated slot, or [-1]. *)

val global_slot_count : table -> int
