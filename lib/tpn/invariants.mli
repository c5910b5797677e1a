(** Place invariants (P-semiflows).

    A P-invariant is a nonnegative integer weighting [y] of the places
    with [y . C = 0] for the incidence matrix [C]: the weighted token
    count [y . m] is constant over every reachable marking.  The
    translation's resource places (processor, buses, exclusion slots)
    are covered by invariants of constant 1 — a structural proof of
    their mutual-exclusion role that needs no state-space search.

    Computed with the Farkas algorithm restricted to minimal-support
    invariants.  Each row carries its support as a bitset of 63-bit
    words.  Eliminating a transition column keeps the rows that are zero
    there untouched (they were pairwise minimal after the previous
    column, so no combination can equal or lie under one) and tests
    only the new pos x neg combinations, each against those rows and
    the other combinations, by bitset inclusion; only the new
    combinations are deduplicated, through a hashtable keyed on the
    vector, hashed over its nonzero entries.  A column with [Z] zero
    rows and [N] new combinations so costs [O(N (Z + N) P / 63)] for [P]
    places instead of a quadratic pass over every row.  The algorithm is
    still worst-case exponential in the row count; [max_rows] aborts
    gracefully on pathological nets. *)

val incidence : Pnet.t -> int array array
(** [incidence net] is [C] with [C.(p).(t) = W(t,p) - W(p,t)]. *)

val is_invariant : Pnet.t -> int array -> bool
(** [y . C = 0], with [y] indexed by place id. *)

val weighted_tokens : int array -> int array -> int
(** [weighted_tokens y marking] is [y . marking]. *)

type outcome =
  | Complete of int array list
      (** Every minimal-support invariant of the net. *)
  | Truncated of int array list
      (** The Farkas row bound tripped mid-elimination; the carried
          rows are genuine invariants (all-zero residual) but the set
          is incomplete — an uncovered place proves nothing. *)

val invariants_of : outcome -> int array list
(** The invariant rows regardless of completeness. *)

val is_truncated : outcome -> bool

val default_max_rows : int
(** The Farkas row bound shared by {!p_invariants} and lint: 20_000. *)

val p_invariants : ?max_rows:int -> Pnet.t -> outcome
(** Minimal-support nonnegative invariants with coprime weights, each
    once, sorted with [compare] ([max_rows] defaults to
    {!default_max_rows}).  Never raises: when the row bound is
    exceeded the result degrades to [Truncated] carrying the invariants
    found so far. *)

val support : int array -> Pnet.place_id list
(** Places with nonzero weight in the invariant. *)

val invariant_covering : Pnet.t -> Pnet.place_id -> int array list -> int array option
(** First invariant whose support contains the given place. *)

val conserved_constant : Pnet.t -> int array -> int
(** The invariant's constant, [y . m0]. *)
