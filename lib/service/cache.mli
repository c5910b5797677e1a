(** Two-tier content-addressed result cache for synthesis verdicts.

    Entries are keyed by {!Spec_digest.digest} and held in a bounded
    in-memory LRU over an optional on-disk store (one file per digest,
    written atomically via tmp+rename).  The cache stores only
    {e checkable} results:

    - a feasible verdict is stored as the firing schedule's
      [(transition name, delay)] actions, and every hit is replayed
      through [Schedule.of_actions] and re-certified with
      {!Ezrt_sched.Validator.certify} against the freshly translated
      model before being trusted;
    - an infeasible verdict is stored with its analytic witness
      ({!Ezrt_analysis.Schedulability.witness}) and every hit
      re-evaluates the witness with [witness_holds].

    A corrupt, truncated, stale or otherwise unverifiable entry is
    counted ([ezrt_cache_invalid_total]) and degrades to a miss —
    never to an error, and never to an untrusted answer.  Infeasible
    verdicts without a witness (search exhaustion) are not cacheable:
    there is nothing cheap to re-check, so the service recomputes
    them.

    All operations are domain-safe; the server's worker domains share
    one cache. *)

module Spec = Ezrt_spec.Spec
module Schedulability = Ezrt_analysis.Schedulability

type verdict =
  | Feasible of (string * int) list
      (** [(transition name, relative delay)] actions; names, not ids,
          so the entry survives task-list reorderings that preserve
          the digest *)
  | Infeasible of Schedulability.witness

type entry = {
  verdict : verdict;
  engine : string;  (** what computed it, e.g. ["portfolio"] *)
  elapsed_ms : float;  (** original compute cost (informational) *)
  stored_states : int;  (** original search effort (informational) *)
}

(** A hit that survived re-validation. *)
type validated =
  | Hit_feasible of Ezrt_sched.Schedule.t * Ezrt_sched.Timeline.segment list
  | Hit_infeasible of Schedulability.witness

type t

val create : ?capacity:int -> ?dir:string -> unit -> t
(** [capacity] bounds the in-memory tier (entries, default 256; at
    least 1).  [dir] enables the on-disk tier (created if missing).
    Without [dir] the cache is memory-only. *)

val dir : t -> string option

(** {1 Wire format} *)

val encode : digest:string -> entry -> string
(** One JSON object ({!Ezrt_obs.Json}) on one line: a format tag, the
    embedded digest (so a renamed file cannot impersonate another
    spec), [engine], [elapsed_ms] and [stored], then either the
    feasible verdict's [actions] as [[name, delay]] pairs or the
    infeasible verdict's [witness] object, whose [kind] is
    {!Schedulability.witness_kind}.  A truncated write is not a
    complete JSON value, so it cannot decode. *)

val decode : string -> (string * entry, string) result
(** Returns [(digest, entry)]; any malformed, truncated or
    format-mismatched input (including an entry in an earlier
    format) is an [Error]. *)

(** {1 Operations} *)

val store : t -> digest:string -> entry -> unit
(** Insert into the memory tier (evicting the least recently used
    entry past capacity) and, when a [dir] is configured, write the
    entry file atomically. *)

val find :
  t ->
  digest:string ->
  spec:Spec.t ->
  model:Ezrt_blocks.Translate.t ->
  validated option
(** Memory tier first, then disk.  Every hit — including memory hits —
    is re-validated against [spec]/[model] as described above; an
    entry that fails validation is dropped from both tiers and the
    lookup degrades to a miss. *)

(** {1 Accounting} *)

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  invalid : int;  (** corrupt/stale/unverifiable entries degraded to misses *)
}

val counters : t -> counters
(** This cache instance's counters.  The same events also bump the
    process-wide [ezrt_cache_{hits,misses,evictions,invalid}_total]
    metrics ({!Ezrt_obs.Metrics}). *)
