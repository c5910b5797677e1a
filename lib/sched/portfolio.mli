(** Parallel portfolio search over OCaml 5 domains.

    Races independent search configurations — branch-ordering policy
    × inserted-idle branching × engine (discrete TLTS or dense-time
    state classes) — against the same translated model and returns the
    first feasible schedule found.  Losing configurations are stopped
    through the searches' [cancel] hooks.  Any returned schedule goes
    through the same certification pipeline as single-engine results
    ({!Validator.check}); which config wins under parallel execution is
    timing-dependent, the schedule's validity is not. *)

type engine =
  | Discrete  (** {!Search.find_schedule}, incremental engine *)
  | Classes  (** {!Class_search.find_schedule} *)

type config = {
  engine : engine;
  policy : Priority.policy;  (** ignored by [Classes] *)
  latest_release : bool;  (** ignored by [Classes] *)
}

val config_to_string : config -> string

type attempt = {
  config : config;
  outcome : (Schedule.t, Search.failure) result;
  metrics : Search.metrics;
  cancelled : bool;
      (** the member observed the race's cancellation signal before
          reaching its own verdict — its [Budget_exhausted] is the
          race stopping it, not a real budget exhaustion *)
}

(** Verdict of the analytic pre-pass ({!Ezrt_analysis.Schedulability})
    that runs before the race unless disabled. *)
type prepass =
  | Prepass_off  (** [~analysis:false] *)
  | Prepass_unknown of string  (** analysis decided nothing; raced *)
  | Prepass_rejected of Ezrt_analysis.Schedulability.witness
      (** witnessed quick-reject: the outcome is [Error Infeasible]
          without any configuration running *)
  | Prepass_accepted
      (** EDF quick-accept whose certificate passed
          {!Validator.certify}: the outcome is that schedule, no
          configuration ran, [winner = None] *)
  | Prepass_uncertified of string
      (** the analyzer claimed feasible but certification failed — the
          claim was discarded and the race ran normally (the
          differential fuzzer treats this as a divergence) *)

val prepass_to_string : prepass -> string

type t = {
  outcome : (Schedule.t, Search.failure) result;
      (** the winner's schedule; [Infeasible] only when the analytic
          pre-pass proved it (with a witness) or every configuration
          ran to exhaustion *)
  winner : config option;
  attempts : attempt list;
      (** configurations that reached a verdict before the race was
          decided, in configuration order *)
  configs_started : int;
      (** members that actually began a search — queue slots claimed
          after the race was decided don't count *)
  domains_used : int;
      (** worker domains that ran at least one member, as opposed to
          the requested worker count *)
  elapsed_s : float;
  prepass : prepass;
}

val has_release_window : Ezrt_blocks.Translate.t -> bool
(** Whether some release transition has a non-point firing window —
    the precondition for latest-release configs to add coverage
    (via {!Ezrt_blocks.Meaning.is_release}). *)

val default_configs : Ezrt_blocks.Translate.t -> config list
(** Every ordering policy on the discrete engine, latest-release
    variants when {!has_release_window}, then the class engine.  A pure
    function of the model: the same spec races the same configs on
    every host. *)

val find_schedule :
  ?configs:config list ->
  ?max_stored:int ->
  ?domains:int ->
  ?analysis:bool ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  t
(** [max_stored] bounds each configuration separately (default
    500_000).  [domains] caps the worker domains (default: one per
    config, at most [Domain.recommended_domain_count () - 1]); with
    [~domains:1] the configs run sequentially on the calling domain in
    order, which is deterministic.

    [cancel] (default: never) is ORed with the race's internal stop
    signal and polled by every member at every search node and by the
    queue before starting a member — the hook wall-clock deadlines
    (`--timeout`, service jobs) map onto.  A cancelled race reports
    [Budget_exhausted], never [Infeasible].

    [analysis] (default [true]) runs the analytic pre-pass first: a
    witnessed quick-reject or a certified EDF quick-accept
    short-circuits the race entirely (see {!prepass});
    [~analysis:false] — the CLI's [--no-analysis] — always races.

    Observability: every race opens a [portfolio] span and one
    [portfolio-member] span per started config (on the member's own
    domain, so traces show parallel tracks), and updates the
    [ezrt_portfolio_races_total], [ezrt_portfolio_members_total]
    (labels [config], [outcome∈winner|loser|cancelled]) and
    [ezrt_portfolio_loser_stored_states_total] counters
    ({!Ezrt_obs.Metrics}), making losers' work visible. *)
