(** Typed responses of the service core, with every rendering the
    consumers need: the deterministic protocol JSON that [jsceres
    serve] emits, and the exact text formats the CLI subcommands have
    always printed (the CLI is a thin adapter over these, so serve and
    the subcommands cannot drift apart). *)

type error_code =
  | Bad_request
  | Unknown_workload
  | Workload_failed
  | Overloaded
      (** shed by admission control or a draining server; carries a
          [retry_after_ms] hint — never a silent drop *)
  | Unsupported_version
      (** the request named a protocol version this server does not
          speak (anything other than [1]; DESIGN.md §9) *)

val error_code_name : error_code -> string

type error = {
  code : error_code;
  message : string;  (** deterministic (virtual-time fields only) *)
  failure : Js_parallel.Supervisor.failure option;
      (** present for [Workload_failed] *)
  retry_after_ms : int option;
      (** present for [Overloaded]: when the client should retry *)
}

type body =
  | Profile of Workloads.Harness.timing
  | Loops of string  (** rendered Sec. 3.2 loop-profile report *)
  | Deps of string  (** rendered Sec. 3.3 dependence report *)
  | Analyze of Analysis.Driver.report
  | Crossval of Workloads.Harness.crossval_row list
  | Pipeline of Workloads.Harness.timing * Workloads.Harness.nest_row list
  | Advise of Advisor.report  (** the ranked causal what-if plan *)

type t = {
  request : Request.t option;
      (** echo of the request, workload name normalized; [None] only
          for protocol-level errors with no parsed request *)
  result : (body, error) result;
  mutable line : string option;
      (** the protocol line, kept by {!line} the first time it renders
          this response; [None] until then *)
}

val ok : Request.t -> body -> t
val error : ?request:Request.t -> ?retry_after_ms:int -> error_code -> string -> t

val overloaded : retry_after_ms:int -> string -> t
(** The structured load-shedding response: code [overloaded] plus the
    retry hint, rendered into the protocol JSON. *)

val of_failure : Request.t -> Js_parallel.Supervisor.failure -> t

val timed_out : t -> bool
(** Whether this is a [Workload_failed] response whose exception was
    the interpreter's vclock budget — i.e. the per-request deadline
    (watchdog) fired. *)

val exit_code : t -> int
(** The repo-wide CLI convention (documented in the [jsceres] man
    page and README): {b 0} success, {b 1} operational error (unknown
    workload, failed workload, bad request), {b 2} analysis verdict —
    an [Analyze] response whose report proves some loop sequential. *)

val protocol_version : int
(** The protocol envelope version every JSONL response carries as its
    leading ["v"] member (currently [1]; DESIGN.md §9). *)

val to_json : t -> Ceres_util.Json.t
(** Protocol form: [{"v":1,"workload":..,"pass":..,"result":{..}}] on
    success, [{"v":1,"error":{"code":..,"message":..},..}] on error.
    Deterministic: rendering the same response twice (or a cached
    copy of it) is byte-identical. *)

val line : t -> string
(** [Json.to_string (to_json t)], the response's one protocol line.
    The first call renders it and keeps it in [t.line]; later calls
    return that same string. The service cache hands one record to
    every hit, so a cached response carries its encoded line and is
    rendered at most once (two sessions racing on a fresh record may
    both render it, to equal bytes). *)

(** {1 CLI text renderings (legacy byte formats)} *)

val render_text : t -> string
(** The historical stdout of the corresponding subcommand: timing
    lines for [profile], the report for [loops]/[deps], the verdict
    listing for [analyze] (text form), per-loop soundness lines for
    [crossval], and the indented two-line nest rows for [pipeline].
    Errors render as the [FAILED] row format of supervised runs. *)

val render_inspect : t -> string
(** [Pipeline] bodies only: the [jsceres inspect] format — unindented
    nest rows, each followed by its advice block. *)

val render_analyze_json : t -> string option
(** [Analyze] bodies: the pretty report for [--format=json]. *)

val render_advise_json : t -> string option
(** [Advise] bodies: the pretty report for [--format=json] (the
    advise golden format). *)
