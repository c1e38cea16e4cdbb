(** Typed requests of the service core.

    A request names an analysis pass, a bundled workload, and the
    per-request configuration that affects the result. Supervision
    policy (retries, watchdog budget, pool size) deliberately lives on
    the service, not here: it changes how a result is computed, never
    what the result is, so it must not fragment the cache. *)

type pass =
  | Profile  (** Sec. 3.1 lightweight profile + sampler: a Table 2 row *)
  | Loops  (** Sec. 3.2 per-loop statistics report *)
  | Deps  (** Sec. 3.3 dynamic dependence analysis report *)
  | Analyze  (** static loop-parallelizability report *)
  | Crossval  (** static verdicts checked against the dynamic run *)
  | Pipeline  (** Table 2 timing + Table 3 nest rows, one workload *)
  | Advise  (** causal what-if parallelism plan ({!Advisor.analyze}) *)

type config = {
  scale : float option;  (** [SCALE] sizing global override *)
  focus : int option;  (** restrict [Deps] to one loop nest *)
  max_nests : int option;  (** widen the [Pipeline] row count *)
  cores : int list option;
      (** core counts the [Advise] pass models; normalized (positive,
          sorted, deduplicated) on construction *)
}

type t = {
  pass : pass;
  workload : string;  (** registry name (case-insensitive lookup) *)
  config : config;
}

val make :
  ?scale:float ->
  ?focus:int ->
  ?max_nests:int ->
  ?cores:int list ->
  pass ->
  string ->
  t

val pass_name : pass -> string
val all_passes : (string * pass) list
(** Name/constructor pairs, in declaration order — the single source
    for CLI enums and help text. *)

val key : digest:string -> t -> string
(** Cache key: [digest], the hex digest of the workload's MiniJS
    source, + pass name + a fingerprint of the config. Editing the
    workload, switching the pass, or changing any config field each
    yield a distinct key. *)

val to_json : t -> Ceres_util.Json.t
val of_json : Ceres_util.Json.t -> (t, string) result
(** Protocol form: [{"pass": "profile", "workload": "Ace"}] with
    optional ["scale"], ["focus"], ["max_nests"], ["cores"] members,
    plus the optional protocol-version member ["v"] (must be [1] when
    present; see DESIGN.md §9). Unknown members are rejected so client
    typos fail loudly. *)
