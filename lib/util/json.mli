(** Deterministic JSON document: one encoder (and the repo's one
    parser) shared by every surface that emits JSON — the pool
    telemetry, the static analyzer's reports, and the service layer's
    request/response protocol — so all of them serialize identically.
    The interpreter's [JSON.parse] parses through it too.

    Determinism contract: [to_string] and [to_string_pretty] are pure
    functions of the document — object keys keep the order they were
    built in, numbers have a single canonical rendering — so repeated
    runs of a deterministic producer are byte-identical. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** canonical shortest form; non-finite → [null] *)
  | Fixed of int * float  (** fixed decimal places, e.g. [Fixed (3, ms)] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** keys serialized in list order *)

val to_string : t -> string
(** Compact one-line rendering: [{"k":v,...}], no whitespace. *)

val to_string_pretty : t -> string
(** 2-space-indented multi-line rendering, newline-terminated. *)

(** {1 Parsing} *)

val of_string : string -> (t, string) result
(** Strict parse of a complete document; trailing garbage is an
    error. Numbers without [./e] that fit in [int] parse as [Int],
    except a [-]-prefixed zero, which parses as [Float (-0.)] so the
    sign survives; everything else parses as [Float]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** [member k (Obj ...)] — [None] on missing key or non-object. *)

val string_opt : t -> string option
val int_opt : t -> int option
(** [Int] directly, or an integral [Float]. *)

val float_opt : t -> float option
