(** Linear state classes (Berthomieu & Menasché) — the dense-time
    abstraction used by TPN analyzers such as TINA and Romeo.

    A class is a marking plus a firing-delay domain: one variable per
    enabled transition, constrained by a difference bound matrix.  The
    class graph is finite for bounded nets with bounded intervals and
    abstracts every dense-time run, whereas {!State} enumerates
    integer clock valuations; on the same net the class graph is
    usually much smaller.

    Persistence follows the paper's Def 3.1 (a transition keeps its
    variable when enabled before and after the firing), so the class
    graph and the discrete TLTS agree on reachable markings for the
    nets generated by the translation. *)

type t = private {
  marking : int array;
  enabled : int array;  (** enabled transition ids, ascending *)
  domain : Dbm.t;  (** canonical; variable [i+1] is [enabled.(i)] *)
}

val initial : Pnet.t -> t

val enabled_ids : t -> Pnet.transition_id list

val firable : ?priorities:bool -> Pnet.t -> t -> Pnet.transition_id list
(** Transitions that can fire first from this class (the dense-time
    [FT(s)]), restricted to the minimal priority value present — the
    same filter the paper applies to the discrete fireable set.

    Caveat: priorities do not commute with the class abstraction.  A
    class merges clock valuations, so a low-priority transition (e.g. a
    deadline-miss watchdog) firable only in *some* of the merged
    valuations is suppressed whenever a better-priority transition is
    firable in *any* of them.  [~priorities:false] disables the filter,
    giving the classical (unprioritized) TPN class graph — an
    over-approximation of the prioritized behaviour, useful to refute
    universal properties. *)

val delay_bounds : Pnet.t -> t -> Pnet.transition_id -> int * int
(** Bounds of the transition's firing delay within the class (before
    the fires-first restriction); the upper bound is
    {!Dbm.infinity} when unbounded.  Raises [Invalid_argument] if
    disabled. *)

val fire : Pnet.t -> t -> Pnet.transition_id -> t
(** Successor class.  Raises [Invalid_argument] when the transition is
    not firable. *)

type stats = {
  classes : int;
  edges : int;
  deadlocks : int;
  truncated : bool;
}

val explore : ?max_classes:int -> ?inclusion:bool -> Pnet.t -> stats
(** Breadth-first construction of the state-class graph, a
    {!Reach.bfs} walk over a {!Class_store} ([max_classes] defaults to
    100_000 admitted classes).

    [inclusion] (default false) enables the classic inclusion
    abstraction: a class whose firing domain is contained in that of an
    already-visited class with the same marking is not expanded.  The
    abstraction preserves reachable markings (the included class has a
    subset of the behaviours) and typically shrinks the graph
    substantially. *)

type marking_comparison = {
  common : int;
  classes_only : int;
      (** markings reachable densely but not by the earliest-firing
          discrete walk — typically timings where a release is delayed
          toward its latest bound (e.g. into a deadline miss) *)
  discrete_only : int;
      (** always 0: every discrete run is a dense-time run, so the
          class graph covers it *)
}

val compare_reachable_markings :
  ?max_states:int -> Pnet.t -> marking_comparison
(** Cross-validation of the two semantics on the same net: the exact
    class graph against {!Tlts.explore}, both walks truncated at
    [max_states] admitted nodes (default 50_000). *)
