(** Analytic schedulability verdicts: a sound quick-reject /
    quick-accept pre-pass computed from the task parameters, before
    any TLTS or state-class search runs.

    The analyzer is three-valued and every decisive answer carries
    machine-checkable evidence:

    - {b quick-reject} evaluates necessary conditions — per-instance
      laxity, the processor demand bound over deadline windows of the
      hyper-period, precedence/message-chain cumulative response
      bounds, exclusion-pair busy-window interference, and (on the
      independent preemptive fragment) an exact EDF simulation.  A
      violated condition yields a {!witness}: the violated inequality
      with its numbers, re-checkable by {!witness_holds}.
    - {b quick-accept} runs an EDF simulation over the hyper-period
      for independent preemptive task sets and, when it meets every
      deadline, replays it on the translated time Petri net to emit an
      actual firing schedule.  Acceptance is never taken on faith: the
      caller must feed the actions through
      [Ezrt_sched.Schedule.of_actions] and [Validator.certify].
    - anything outside the analytic fragment is {!Unknown} and decides
      nothing.

    Soundness notes are in docs/ANALYSIS.md; the differential fuzzer
    cross-checks every verdict against all search engines
    ([Ezrt_gen.Differ]). *)

module Spec = Ezrt_spec.Spec

type witness =
  | Negative_laxity of {
      task : string;
      instance : int;
      ready : int;  (** earliest start: phase + k·period + release *)
      wcet : int;
      deadline : int;  (** effective: min(arrival + d, hyper-period) *)
    }
      (** [deadline - ready < wcet]: the instance cannot fit its own
          window, independent of any interference. *)
  | Demand_overload of {
      t1 : int;
      t2 : int;
      demand : int;  (** {!demand}[ spec ~t1 ~t2] *)
      capacity : int;  (** [t2 - t1] *)
    }
      (** [demand > capacity]: the work that must execute entirely
          within [\[t1, t2\]] exceeds the interval's length. *)
  | Chain_overrun of {
      task : string;
      instance : int;
      chain : string list;  (** task names, source to sink *)
      earliest_finish : int;
      deadline : int;  (** effective deadline of the sink instance *)
    }
      (** Cumulative earliest finish along a precedence/message chain
          exceeds the last task's deadline. *)
  | Exclusion_conflict of {
      task_a : string;
      instance_a : int;
      task_b : string;
      instance_b : int;
      forward_finish : int;  (** ready_a + c_a + c_b *)
      deadline_b : int;
      backward_finish : int;  (** ready_b + c_b + c_a *)
      deadline_a : int;
    }
      (** The exclusion serializes the two instances, and neither
          order fits: [forward_finish > deadline_b] and
          [backward_finish > deadline_a]. *)
  | Edf_overload of { task : string; instance : int; time : int }
      (** The EDF simulation (optimal on independent preemptive
          uniprocessor job sets) left the instance unfinished at its
          effective deadline — no schedule exists. *)

val witness_kind : witness -> string
(** Stable slug for metric labels: [negative-laxity],
    [demand-overload], [chain-overrun], [exclusion-conflict] or
    [edf-overload]. *)

val witness_to_string : witness -> string
(** The violated inequality with its numbers, one line. *)

val witness_holds : Spec.t -> witness -> bool
(** Re-derives the witness from the specification and re-evaluates the
    inequality — the machine check that the evidence is real.  A
    witness produced by {!quick_reject} or {!analyze} on the same
    specification always holds; the differ flags any that does not. *)

type verdict =
  | Infeasible of witness
  | Feasible of (Ezrt_tpn.Pnet.transition_id * int) list
      (** A candidate firing schedule (relative [(t, q)] actions) of
          the translated net, built by replaying the EDF timeline.
          Callers must certify it ([Schedule.of_actions] +
          [Validator.certify]) before trusting it. *)
  | Unknown of string

val demand : Spec.t -> t1:int -> t2:int -> int
(** Processor demand of the interval [\[t1, t2\]]: the summed WCET of
    the instances that must execute entirely inside it — ready time
    ([phase + k·period + release]) at or after [t1] and effective
    deadline ([min(arrival + deadline, H)], cyclic-executive
    semantics) at or before [t2].  Monotone in [t2], antitone in
    [t1].  Saturates instead of wrapping on adversarial parameters. *)

val quick_reject : Spec.t -> witness option
(** The cheapest violated necessary condition, if any — checked in
    order: laxity, demand windows, chains, exclusion pairs.  [None]
    decides nothing.  The spec is assumed well-formed
    ([Validate.check] clean); evaluation is capped on astronomically
    large instance counts (fewer windows checked — still sound). *)

val accept_applicable : Spec.t -> bool
(** Whether the quick-accept fragment applies: every task preemptive,
    no precedences, exclusions or messages, and a hyper-period small
    enough to simulate. *)

val analyze : Ezrt_blocks.Translate.t -> verdict
(** {!quick_reject}, then — on the {!accept_applicable} fragment — the
    EDF simulation: a deadline miss is a sound {!Infeasible}
    ({!Edf_overload}), a feasible timeline is replayed on the net into
    a {!Feasible} certificate; any replay surprise degrades to
    {!Unknown}.

    Observability: wraps itself in an [analysis] span and bumps
    [ezrt_analysis_verdicts_total] (label [verdict]) and, on rejects,
    [ezrt_analysis_rejects_total] (label [condition]). *)
