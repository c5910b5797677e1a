(** Pre-runtime schedule synthesis (paper §4.4.1): a depth-first search
    over the TLTS of the translated net, stopping at the desired final
    marking [MF], with partial-order reduction of deterministic
    immediate firings and memoization of visited states.

    One kernel, {!explore}, runs that search over any {!semantics}: it
    owns the claim-at-first-visit memo, the forced-firing chains, the
    budget, cancellation, progress, the [search] span and the metric
    flush.  Three semantics plug into it:

    - the {e incremental} discrete engine (default) walks one mutable
      {!Ezrt_tpn.State.Incremental} state fire/undo, firing in O(arcs)
      instead of O(|T|·|F|), and memoizes states as packed byte
      strings ({!Ezrt_tpn.Packed_state}) with memoized hashes;
    - the {e copying} discrete engine is the original immutable-state
      implementation, kept as the semantic oracle;
    - the dense-time class engine ({!Class_search}) walks
      {!Ezrt_tpn.State_class} classes over a {!Ezrt_tpn.Class_store}.

    Both discrete engines explore candidates in exactly the same order
    and produce action-for-action identical schedules and identical
    metrics. *)

type options = {
  policy : Priority.policy;  (** branch ordering; default [Edf] *)
  partial_order : bool;
      (** fire a lone immediate candidate eagerly, without creating a
          stored search node — the Lilius-style pruning the paper
          adopts; default true *)
  latest_release : bool;
      (** besides the earliest firing time, also branch on the latest
          time of release windows, allowing inserted idle time;
          default false (the paper's search is work-conserving) *)
  max_stored : int;  (** stored-state budget; default 500_000 *)
  incremental : bool;
      (** use the incremental engine with the packed failed-state
          store; default true.  [false] selects the copy-based
          reference engine. *)
}

val default_options : options

type failure =
  | Infeasible  (** the search space is exhausted: no feasible schedule *)
  | Budget_exhausted

val failure_to_string : failure -> string

val no_cancel : unit -> bool

type metrics = {
  stored : int;
      (** search nodes examined — the paper's "states searched" *)
  visited : int;  (** stored plus eagerly fired intermediate states *)
  eager : int;
      (** forced immediate firings collapsed without creating a node *)
  backtracks : int;  (** stored nodes whose subtree was exhausted *)
  subsumed : int;
      (** nodes pruned by inclusion in an already-claimed node (classes
          only; 0 on the discrete engines) *)
  max_depth : int;
  elapsed_s : float;
  por_reduced : int;
  por_fallback : int;
  por_skipped : int;
      (** always 0.  These counted the stubborn-set reduction, which
          was removed; the fields stay only because the benchmark
          ([perfbench/main.ml]) reads them, until its next change. *)
}

(** {1 The kernel} *)

type claim =
  | Fresh  (** first visit: the node is now claimed; explore it *)
  | Seen  (** already claimed *)
  | Subsumed  (** covered by a claimed node; counted in [subsumed] *)

type ('node, 'step) semantics = {
  root : 'node;
  is_final : 'node -> bool;
  is_dead : 'node -> bool;  (** a deadline-miss marking: prune *)
  claim : 'node -> claim;  (** classify against the memo and record *)
  fireable : 'node -> Ezrt_tpn.Pnet.transition_id list;
  forced : 'node -> 'step option;
      (** the step to take without branching, when the node leaves no
          choice *)
  branches : 'node -> Ezrt_tpn.Pnet.transition_id list -> 'step list;
      (** the ordered steps to try from the fireable set;
          computed before the first one is taken *)
  advance : 'node -> 'step -> 'node;
  mark : unit -> int;
  restore : int -> unit;
      (** [restore (mark ())] undoes every [advance] since the mark —
          for semantics that mutate in place; a no-op otherwise *)
}

val explore :
  engine:string ->
  args:(string * Ezrt_obs.Trace.arg) list ->
  max_stored:int ->
  cancel:(unit -> bool) ->
  ('node, 'step) semantics ->
  ('step list, failure) result * metrics
(** Depth-first search from [root] to a final node, returning the step
    path.  [engine] labels the [search] span, the progress line and the
    [ezrt_search_*] counters; [args] are extra span arguments.
    [cancel] is polled at every node, forced
    chains included; once it returns [true] the search unwinds and
    reports {!Budget_exhausted}, as it does past [max_stored] claimed
    nodes. *)

(** {1 The discrete engines} *)

val find_schedule :
  ?options:options ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  (Schedule.t, failure) result * metrics
(** On success the returned schedule has been found by the DFS; callers
    can certify it independently with {!Schedule.replay} and
    {!Validator.check}.

    [cancel] is polled at every search node (default: never).  When it
    returns [true] the search unwinds and reports
    {!Budget_exhausted} — the hook the portfolio uses to stop losing
    configurations. *)
