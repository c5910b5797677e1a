(** Differential cross-checking of one specification across every
    schedule-synthesis engine in the repository, plus the independent
    oracles ({!Ezrt_sched.Validator}, {!Ezrt_baseline.Sim},
    {!Ezrt_baseline.Rta}).

    The sound relations checked — each a theorem about the engines,
    so any violation is a bug, not noise:

    - reference (copy-based) and incremental discrete search explore
      the same order: identical verdicts {e and} action-identical
      schedules;
    - latest-release branching explores a superset of the
      work-conserving search: feasible cannot become infeasible;
    - the dense-time class engine is complete: anything any discrete
      configuration schedules, it must too;
    - the sequential portfolio subsumes its member engines' verdicts
      in both directions;
    - every feasible schedule must replay through the TPN semantics to
      the final marking and pass the spec-level validator;
    - an [Infeasible] verdict of an exhaustive engine is contradicted
      by a certified runtime simulation (EDF/RM/DM) or a schedulable
      response-time analysis, and a feasible verdict by utilization
      above 1. *)

type verdict =
  | Feasible of Ezrt_sched.Schedule.t
  | Infeasible
  | Unknown of string
      (** budget exhausted, extraction failure, engine crash — no
          claim either way *)

val verdict_to_string : verdict -> string

type engine_result = {
  engine : string;
  verdict : verdict;
}

type divergence =
  | Invalid_input of string  (** the spec does not validate *)
  | Translation_crash of string
  | Verdict_mismatch of {
      engine_a : string;
      verdict_a : string;
      engine_b : string;
      verdict_b : string;
      reason : string;
    }
  | Schedule_mismatch of { engine_a : string; engine_b : string }
      (** engines required to be action-identical disagree *)
  | Uncertified of { engine : string; failure : string }
  | Extraction_failed
  | Runtime_beats_synthesis of { policy : string }
      (** a certified priority-driven simulation schedules a spec the
          exhaustive search called infeasible *)
  | Rta_beats_synthesis
  | Overutilized_feasible of float
  | Engine_crash of { engine : string; exn : string }
  | Analysis_witness_invalid of string
      (** the analytic pre-pass emitted a quick-reject witness whose
          inequality does not re-evaluate to true against the spec *)
  | Lint_crash of string  (** the structural lint pass itself raised *)
  | Lint_dead_scheduled of { engine : string; transition : string }
      (** a transition lint proved structurally dead appears in an
          engine's certified feasible schedule *)
  | Lint_certificate_violated of string
      (** a P-invariant certificate from the lint report fails to
          conserve its constant on a state visited during a bounded
          TLTS walk *)
  | Lint_gate_mismatch of string
      (** lint's re-derived subsumption gate verdict disagrees
          with the live gate (the L013 self-check fired) *)
  | Lint_shrink_regression of { dropped_task : string; diagnostic : string }
      (** a lint-clean spec acquired an error/warning after the
          shrinker's task-dropping step *)

val divergence_to_string : divergence -> string

type report = {
  results : engine_result list;
  divergences : divergence list;
}

val builtin_engines : string list
(** [["reference"; "incremental"; "latest-release"; "classes";
    "portfolio"; "analysis"]] — the names
    accepted by [?engines].  [analysis] is {!Ezrt_analysis.Schedulability}: its
    quick-reject witnesses are re-evaluated (an untrue witness is an
    {!Analysis_witness_invalid} divergence), its [Infeasible] verdict
    contradicts any engine's feasible schedule, and its quick-accept
    certificate — certified like every other feasible schedule —
    contradicts any engine's [Infeasible].  The [portfolio] row runs
    with [~analysis:false] so it stays an independent race result. *)

val check :
  ?max_stored:int ->
  ?engines:string list ->
  ?extra:(string * (max_stored:int -> Ezrt_blocks.Translate.t -> verdict)) list ->
  Ezrt_spec.Spec.t ->
  report
(** Run every engine (bounded by [max_stored], default 50_000) and
    every cross-check on one spec.  [engines] restricts the built-in
    engines that run (default: all of {!builtin_engines}; unknown
    names raise [Invalid_argument]); cross-checks needing a skipped
    engine are skipped too, which lets a campaign bisect e.g. just
    [["classes"; "reference"]].  [extra] engines claim default
    discrete search semantics: their verdict is compared against the
    reference engine's and their schedules must certify — the hook the
    tests use to prove an injected engine bug is caught. *)

val failing : ?max_stored:int -> Ezrt_spec.Spec.t -> bool
(** [divergences <> []] — the predicate handed to {!Shrink.minimize}. *)
