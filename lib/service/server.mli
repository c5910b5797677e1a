(** Concurrent synthesis job server.

    A bounded job queue drained by OCaml 5 worker domains, each running
    the portfolio pipeline (with the analytic pre-pass) behind the
    shared result {!Cache}.  Admission control sheds load instead of
    queueing without bound: a submit against a full queue returns
    [`Overloaded] immediately and the caller reports it — the server
    never silently drops an accepted job.  Shutdown drains the queue:
    every accepted job gets its response before the workers exit.

    Two protocol front-ends run the same pool: {!serve_channels}
    (newline-delimited JSON over arbitrary channels, e.g. stdio) and
    {!serve_socket} (the same protocol over a Unix domain socket,
    serving connections sequentially). *)

module Spec = Ezrt_spec.Spec
module Schedulability = Ezrt_analysis.Schedulability

(** {1 Solving one specification} *)

type verdict =
  | Feasible of { firings : int; makespan : int }
  | Infeasible of Schedulability.witness option
      (** [None] when proved by class exhaustion rather than an analytic
          witness — correct but not cacheable *)
  | Timed_out  (** the job's wall-clock deadline expired mid-search *)
  | Inconclusive  (** stored-state budget exhausted before a verdict *)

type outcome = {
  verdict : verdict;
  digest : string;  (** {!Spec_digest.digest} of the spec *)
  engine : string;  (** what produced it: a portfolio config, ["prepass"],
                        or ["cache"] on a validated hit *)
  cached : bool;
  elapsed_ms : float;
  stored_states : int;
}

val verdict_line : outcome -> string
(** Deterministic one-line rendering of the digest and verdict — no
    timings, no engine — so two runs over the same corpus (cold and
    warm) produce byte-identical verdict output. *)

val solve :
  ?cache:Cache.t ->
  ?max_states:int ->
  ?deadline_at:float ->
  Spec.t ->
  (outcome, string) result
(** Validate and translate ({!Ezrt_sched.Pipeline.translate}), consult
    the cache (every hit re-validated, see {!Cache}), and on a miss run
    the portfolio through {!Ezrt_sched.Pipeline.solve}, which certifies
    its schedule, then store any checkable result.  [deadline_at] is an
    absolute [Unix.gettimeofday] instant mapped onto the engines'
    [cancel] hooks.  The portfolio runs on the calling worker's domain
    and is deterministic.  [Error] for an invalid specification, and
    for a schedule that fails certification (a library bug): such a
    schedule is neither reported nor cached. *)

(** {1 The worker pool} *)

type request = {
  id : string;
  spec : Spec.t;
  timeout_ms : int option;  (** overrides the pool's default *)
  max_states : int option;  (** overrides the pool's budget *)
}

type response = { id : string; result : (outcome, string) result }

type t

val create :
  ?workers:int ->
  ?queue_limit:int ->
  ?cache:Cache.t ->
  ?max_states:int ->
  ?default_timeout_ms:int ->
  unit ->
  t
(** [workers] (default [Domain.recommended_domain_count () - 1], at
    least 1) domains are spawned immediately.  [queue_limit] (default
    64) bounds the backlog of accepted-but-unstarted jobs. *)

val submit : t -> request -> on_done:(response -> unit) -> [ `Accepted | `Overloaded ]
(** [on_done] runs on a worker domain exactly once per accepted job —
    it must be domain-safe.  A job whose deadline expires while queued
    is answered [Timed_out] without running.  [`Overloaded] when the
    queue is at [queue_limit] (counted in
    [ezrt_service_jobs_shed_total]) or the pool is shutting down. *)

val shed_count : t -> int

val shutdown : t -> unit
(** Drain: no new admissions, workers finish every queued job, then
    exit and are joined.  Idempotent. *)

(** {1 Wire protocol}

    One JSON object per line.  Requests:
    [{"id":..,"spec":"<xml>"}] or [{"id":..,"case":"mine-pump"}], with
    optional ["timeout_ms"] and ["max_states"]; control ops
    [{"op":"ping"}] and [{"op":"shutdown"}].  Responses carry
    ["status"]: ["ok"] (with digest/verdict fields), ["error"],
    or ["overloaded"].  See [docs/SERVICE.md]. *)

val serve_channels : t -> in_channel -> out_channel -> [ `Eof | `Shutdown ]
(** Read requests until EOF or a [shutdown] op; responses are written
    (and flushed) as jobs complete, in completion order.  Returns
    after every accepted job's response has been written.  Does not
    shut the pool down — the caller decides ([`Shutdown] means the
    client asked for it). *)

val serve_socket : t -> path:string -> unit
(** Bind a Unix domain socket at [path] (replacing any stale file) and
    serve connections one at a time until a client sends the
    [shutdown] op.  Removes the socket file on exit. *)
