(** Pre-runtime schedule synthesis over the dense-time state-class
    graph ({!Ezrt_tpn.State_class}) instead of the discrete TLTS.

    A class branches only on *which* transition fires next (the firing
    time is kept symbolic), so the search needs no firing-time
    heuristic and is complete for dense-time feasibility.  When a path
    to the final marking is found, a concrete integer schedule is
    extracted by replaying the transition sequence through the
    discrete semantics at the earliest legal times, then handed to the
    same certification pipeline as {!Search} results. *)

type metrics = Search.metrics = {
  stored : int;  (** classes examined as search nodes *)
  visited : int;
  eager : int;  (** classes skipped by singleton-chain collapsing *)
  backtracks : int;
  subsumed : int;
      (** classes pruned by inclusion in an already-explored domain *)
  max_depth : int;
  elapsed_s : float;
  por_reduced : int;
  por_fallback : int;
  por_skipped : int;  (** always 0, see {!Search.metrics} *)
}
(** The kernel's metrics, re-exported so [m.Class_search.subsumed]
    reads as before. *)

type failure =
  | Infeasible
  | Budget_exhausted
  | Extraction_failed
      (** the class path could not be realized at earliest integer
          times — not expected for translation-generated nets; surfaced
          rather than silently retried *)

val failure_to_string : failure -> string

val subsumption_applicable : Ezrt_blocks.Translate.t -> bool
(** Whether inclusion-based pruning preserves the feasibility verdict
    under this net's priorities: every better-than-default priority is
    on a [0,0] transition (marking-determined firability) and every
    worse-than-default priority marks a dead place.  Both engines gate
    [~subsume] on this, so hand-written nets that violate it fall back
    to exact visited-set pruning automatically. *)

val find_schedule :
  ?max_stored:int ->
  ?subsume:bool ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  (Schedule.t, failure) result * metrics
(** [max_stored] defaults to 500_000.  [subsume] (default [true])
    enables inclusion pruning when {!subsumption_applicable} holds.
    [cancel] is polled at every
    visited class, including forced chains (default: never); when it
    returns [true] the search unwinds and reports {!Budget_exhausted}
    — the hook the caller's wall-clock deadline ([--timeout], service
    jobs) maps onto.  The search itself is {!Search.explore} over the
    class semantics. *)

val extract_greedy :
  Ezrt_tpn.Pnet.t -> Ezrt_tpn.Pnet.transition_id list -> Schedule.t option
(** [extract_greedy net path] fires [path] from the initial state, each
    transition at the earliest time of its firing domain, on one
    {!Ezrt_tpn.State.Incremental} engine.  [None] when a transition is
    disabled or its earliest time is past the domain's upper end.
    {!find_schedule} tries it first and falls back to solving the
    path's firing dates exactly, a result it certifies with
    {!Schedule.replay}. *)
