(** The portfolio: a fixed chain of searches on the calling domain.

    The analytic pre-pass ({!Ezrt_analysis.Schedulability}) runs
    first, then the discrete search under FIFO ordering, then the
    dense-time class engine.  The first member to schedule wins.  The
    class engine is complete, so its exhaustion alone proves the spec
    infeasible; the discrete member's exhaustion proves nothing.  The
    portfolio certifies only the pre-pass's EDF certificate; its
    callers run it through {!Pipeline.solve}, which certifies every
    schedule it returns with {!Validator.check}, as for the single
    engines. *)

type config =
  | Discrete
      (** {!Search.find_schedule}, incremental engine, [Priority.Fifo]
          ordering, no latest-release branching *)
  | Classes  (** {!Class_search.find_schedule} *)

val config_to_string : config -> string
(** ["discrete/fifo"] or ["classes"] — the names the result cache and
    the benchmarks record as the engine. *)

val members : config list
(** The chain, in the order it runs: [[Discrete; Classes]]. *)

type attempt = {
  config : config;
  outcome : (Schedule.t, Search.failure) result;
  metrics : Search.metrics;
}

(** Verdict of the analytic pre-pass that runs before the members
    unless disabled. *)
type prepass =
  | Prepass_off  (** [~analysis:false] *)
  | Prepass_unknown of string  (** analysis decided nothing; searched *)
  | Prepass_rejected of Ezrt_analysis.Schedulability.witness
      (** witnessed quick-reject: the outcome is [Error Infeasible]
          without any member running *)
  | Prepass_accepted
      (** EDF quick-accept whose certificate passed
          {!Validator.certify}: the outcome is that schedule, no
          member ran, [winner = None] *)
  | Prepass_uncertified of string
      (** the analyzer claimed feasible but certification failed — the
          claim was discarded and the members ran normally (the
          differential fuzzer treats this as a divergence) *)

val prepass_to_string : prepass -> string

val run_prepass :
  Ezrt_blocks.Translate.t ->
  prepass * (Schedule.t * Timeline.segment list) option
(** The analytic pre-pass alone: {!Ezrt_analysis.Schedulability.analyze},
    with a feasible claim kept only if its EDF schedule passes
    {!Validator.certify}.  Never [Prepass_off]; the schedule is that
    certified certificate, with its timeline, [Some] exactly on
    [Prepass_accepted].
    Counts the outcome in [ezrt_analysis_prepass_total]. *)

type t = {
  outcome : (Schedule.t, Search.failure) result;
      (** the winner's schedule; [Infeasible] only when the analytic
          pre-pass proved it (with a witness) or the class member ran
          to exhaustion *)
  winner : config option;
  attempts : attempt list;
      (** members that ran, in chain order; the winner, if any, is
          the last *)
  configs_started : int;  (** [List.length attempts] *)
  elapsed_s : float;
  prepass : prepass;
}

val find_schedule :
  ?max_stored:int ->
  ?domains:int ->
  ?analysis:bool ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  t
(** [max_stored] bounds each member separately (default 500_000).

    [domains] is accepted and ignored: every member runs on the
    calling domain.  It stays only because the repository benchmark
    still passes [~domains:1]; it goes with the next change to the
    benchmark.

    [cancel] (default: never) is polled by every member at every
    search node and before starting a member — the hook wall-clock
    deadlines (`--timeout`, service jobs) map onto.  A cancelled run
    reports [Budget_exhausted], never [Infeasible].

    [analysis] (default [true]) runs the analytic pre-pass first: a
    witnessed quick-reject or a certified EDF quick-accept
    short-circuits the members entirely (see {!prepass});
    [~analysis:false] — the CLI's [--no-analysis] — always searches.

    Observability: every run that reaches the members opens a
    [portfolio] span and one [portfolio-member] span per member, and
    updates the [ezrt_portfolio_races_total],
    [ezrt_portfolio_members_total] (labels [config],
    [outcome∈winner|loser]) and
    [ezrt_portfolio_loser_stored_states_total] counters
    ({!Ezrt_obs.Metrics}), making losers' work visible. *)
