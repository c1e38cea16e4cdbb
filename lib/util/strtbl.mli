(** Hash tables keyed by strings.

    Key equality is [String.equal] rather than the polymorphic
    [compare] the generic [Hashtbl] uses, so a lookup on the
    interpreter's hot path (shape key tables, dynamic scopes) does one
    [memcmp] per probed bucket entry. The hash is [Hashtbl.hash], the
    generic table's own (unseeded) hash: for the same sequence of
    insertions and removals a [Strtbl.t] has exactly the same buckets,
    resizes and iteration order as a [(string, _) Hashtbl.t], so
    anything printed in iteration order is unchanged. *)

include Hashtbl.S with type key = string
