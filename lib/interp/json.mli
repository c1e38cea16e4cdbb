(** JSON builtin: [JSON.stringify] and [JSON.parse].

    ECMAScript semantics for the common cases: [undefined] and
    functions are dropped from objects and become [null] in arrays,
    non-finite numbers stringify as [null], and cyclic structures
    throw a TypeError. [parse] uses the repo's one JSON parser,
    {!Ceres_util.Json.of_string}, and converts its document to JS
    values; every parse error, trailing input included, becomes a
    SyntaxError. *)

val install : Value.state -> unit
(** Installed by {!Builtins.install}. *)
