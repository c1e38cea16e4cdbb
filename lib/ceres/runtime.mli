(** The dependence-analysis engine (paper Sec. 3.3).

    Value-free core of JS-CERES's most expensive mode: it receives loop
    events and memory accesses keyed by scope ids, object ids and
    interned name symbols ({!Ceres_util.Symbol}), maintains the
    characterization stack and the creation/last-write stamps, and
    aggregates warnings. The glue evaluating operands and performing
    the actual reads/writes lives in {!Install}.

    The hot path — one or more stamp checks per intercepted access —
    runs on packed int arrays and open-addressing int-keyed snapshot
    tables ({!Snaptab}). Each check is a {!scan} that packs the whole
    characterization into one int code. Each open loop frame carries a
    shape id (the interned path of loop ids down to it), and a firing
    warning is counted under (kind, canonical name symbol, line,
    shape, code, carrier) in an int-keyed table. Its record — name
    string and {!Triple.characterization} list — is built only the
    first time that key is seen; a session fires warnings hundreds of
    thousands of times but keeps only dozens of distinct records. *)

(** What kind of problematic access a warning describes. *)
type access_kind =
  | Var_write of string
      (** plain reassignment of a shared ([var]-hoisted) variable: a
          leaked loop-local temporary, trivially privatizable *)
  | Var_accum of string
      (** compound update folding over a value from a previous
          iteration: a reduction-style accumulator *)
  | Induction_write of string
      (** write to a for-head induction variable; reported separately
          and ignored by the difficulty classifier *)
  | Prop_write of string
      (** write to a property of an object shared with other
          iterations — a potential output/anti dependence (the paper's
          type (b)) *)
  | Prop_overwrite of string
      (** observed WAW: the slot had already been written in a
          different iteration of the same instance *)
  | Prop_read of string
      (** observed RAW (flow): the value read was produced by a
          different iteration (the paper's type (c)) *)
  | Prop_war of string
      (** observed WAR (anti): the overwritten value had been read by a
          different iteration *)

val access_kind_to_string : access_kind -> string

val canonical_prop : string -> string
(** Numeric property names (array elements) canonicalise to ["[elem]"]
    for warning aggregation; snapshots keep exact names. *)

type warning = {
  kind : access_kind;
  line : int; (** source line of the access *)
  characterization : Triple.characterization;
  carrier : Jsir.Ast.loop_id option;
      (** loop whose iterations carry / share the location; used when
          attributing the warning to a nest *)
}

type basis =
  | Via_object
      (** characterize through the receiver object's creation stamp
          (the paper's proxy wrap) *)
  | Via_binding of int
      (** the receiver was a plain variable: characterize through the
          binding's owner scope sid ([-1] = unbound/global) — this is
          why extracting a loop body into a per-iteration callback
          silences the warnings, as the paper describes *)

type t

val create :
  ?focus:Jsir.Ast.loop_id list ->
  symtab:Ceres_util.Symbol.table ->
  Jsir.Loops.info array ->
  t
(** Fresh runtime over the program's static loop index, resolving
    symbols against the interpreter state's table. With [focus],
    accesses are only recorded while one of the focused loops is open,
    at any depth of the loop stack (the paper's mitigation for the
    mode's very high overhead); [~focus:[]] records nothing. *)

(** {1 Events} (driven by the instrumented program) *)

val on_loop_enter : t -> Jsir.Ast.loop_id -> unit
(** Starts a new instance; detects recursive re-entry (the stack-growth
    guard of the paper) and taints the loop if so. *)

val on_loop_iter : t -> Jsir.Ast.loop_id -> unit
val on_loop_exit : t -> Jsir.Ast.loop_id -> unit

val on_scope_created : t -> sid:int -> unit
(** Stamp a function scope at its creation (instrumented prologue). *)

val on_object_created : t -> oid:int -> unit
(** Stamp an object at its creation site (the proxy wrap). *)

val on_var_write :
  ?induction:bool ->
  ?accum:bool ->
  t ->
  sym:int ->
  owner_sid:int ->
  line:int ->
  unit
(** [sym] is the variable name's interned symbol; [owner_sid] is the
    owning scope's sid, or [-1] for implicit/global variables. *)

val on_prop_write :
  t -> basis:basis -> oid:int -> prop:int -> line:int -> unit
(** Checks WAW (against the last write) and WAR (against the last
    read), then the sharing advisory against [basis], then snapshots
    the write for flow detection. [prop] is the property name's
    interned symbol. *)

val on_prop_read : t -> oid:int -> prop:int -> line:int -> unit
(** Checks for an iteration-carried flow from the last write and
    snapshots the read for WAR detection. *)

val on_host_access : t -> unit
(** Charge a DOM/canvas operation to every open loop. *)

val note_type : t -> name:string -> line:int -> type_tag:string -> unit
(** Record the type of a value stored at a write site (inside recorded
    loops). [undefined] writes are ignored, per the paper's definition
    of variable polymorphism (Sec. 2.4/4.2). *)

val polymorphic_sites : t -> (string * int * string list) list
(** Write sites that stored more than one non-null type: the measured
    version of the paper's "manual inspection did not reveal any
    polymorphic variables within the computationally-intensive
    loops". *)

val monomorphic_site_count : t -> int

(** {1 Results} *)

val warnings : t -> (warning * int) list
(** All distinct warnings with occurrence counts, ordered by line. *)

val warnings_for_nest : t -> root:Jsir.Ast.loop_id -> (warning * int) list
(** Warnings whose innermost characterized level lies in [root]'s nest
    — the report view. *)

val warnings_impeding : t -> root:Jsir.Ast.loop_id -> (warning * int) list
(** Warnings whose carrier loop lies in [root]'s nest: the ones that
    actually impede parallelizing its iterations — the classifier
    view. *)

val is_tainted : t -> Jsir.Ast.loop_id -> bool
(** Recursion was detected through this loop; the paper discards the
    affected nest's results. *)

val dom_accesses_in : t -> Jsir.Ast.loop_id -> int

val nest_dom_accesses : t -> root:Jsir.Ast.loop_id -> int
(** DOM/canvas operations charged to the loops of [root]'s nest. *)

val instances_of : t -> Jsir.Ast.loop_id -> int
val accesses_checked : t -> int
val recursion_warnings : t -> int

(** {1 The flat scan}

    The allocation-free mirror of {!Triple.characterize} behind every
    check, over the flat stack: [cur] holds [depth] (loop, instance,
    iteration) triples, outermost first, and a stamp's marks are laid
    out the same way. *)

val scan :
  cur:int array -> depth:int -> prev_entry:int array -> int array -> int -> int
(** [scan ~cur ~depth ~prev_entry marks seq] is the code of the
    characterization of the stamp ([marks], [seq]) against [cur].
    [prev_entry.(loop)] is the sequence at which [loop]'s previous
    instance was entered (0 if none), as for {!Triple.characterize}.
    The code names the first level that is not [Ok_ok] (or none),
    whether that level is aligned [Dep_dep], aligned [Ok_dep] or
    unaligned, and in the unaligned case the first [Dep_dep] level. *)

val characterization_of_code :
  cur:int array -> depth:int -> int -> Triple.characterization
(** The level list a code stands for, against the same stack. *)

val iteration_carrier_of_code : cur:int array -> int -> Jsir.Ast.loop_id
(** {!Triple.iteration_carrier} of the decoded characterization, [-1]
    for none. *)

val sharing_carrier_of_code : cur:int array -> int -> Jsir.Ast.loop_id
(** {!Triple.sharing_carrier} of the decoded characterization, [-1]
    for none. *)
