(** Difference bound matrices over integer bounds.

    A DBM over variables [x_1 .. x_k] (with the implicit reference
    [x_0 = 0]) represents the conjunction of constraints
    [x_i - x_j <= m.(i).(j)].  Bounds are integers or [infinity]; all
    constraints are non-strict, which is exact for integer-interval
    time Petri nets.

    Used by {!State_class} to represent firing-delay domains. *)

type t
(** Mutable square matrix of size [dim + 1]. *)

val infinity : int
(** A large sentinel; arithmetic on it saturates. *)

val create : int -> t
(** [create dim] is the universe over [dim] variables ([x_i >= 0] is
    NOT implied; callers add the bounds they mean). *)

val copy : t -> t

val get : t -> int -> int -> int
(** [get m i j] is the bound on [x_i - x_j]; indices 0..dim. *)

val constrain : t -> int -> int -> int -> unit
(** [constrain m i j b] adds [x_i - x_j <= b] (tightening only). *)

val canonicalize : t -> unit
(** All-pairs shortest paths; after this, entries are the tightest
    implied bounds and {!is_empty} is meaningful. *)

val is_empty : t -> bool
(** True when the constraint set is unsatisfiable (requires canonical
    form). *)

val equal : t -> t -> bool
(** Entry-wise equality — semantically meaningful on canonical forms. *)

val subset : t -> t -> bool
(** [subset a b]: every valuation of [a] satisfies [b] — entry-wise
    [a <= b] on canonical forms of equal dimension. *)

val hash : t -> int

val can_fire_first : t -> int -> bool
(** [can_fire_first m f]: on a canonical nonempty [m], adding
    [x_f - x_j <= 0] for every variable [j] stays consistent — the
    transition of variable [f] can fire first.  O(n): it holds iff
    [m.(j).(f) >= 0] for every variable [j]. *)

val successor : t -> int -> int array -> lo:int array -> hi:int array -> t
(** [successor m f vars ~lo ~hi] is the canonical state-class
    successor domain after [f] fires first, in O(n²) with no closure
    pass.  The fires-first domain — canonical [m] restricted to "[x_f]
    is smallest" — has the closed form
    [D'(p,q) = min (m(p,q), m(p,f) + min_j m(j,q))] over the variables
    [j], which [successor] projects with change of origin to [x_f]
    without materializing it: variable [i+1] of the result is index
    [vars.(i)] of [m] (0 being [m]'s reference) minus [x_f], and the
    result's reference is [x_f].  [vars.(i) < 0] adds a fresh variable
    with static interval [[lo.(i), hi.(i)]] ([hi.(i) = infinity] when
    unbounded); [lo] and [hi] are read only there.  A fresh variable
    [n] is linked to the rest only through the reference, so its
    entries are [D(n,b) = hi + D(0,b)] and [D(a,n) = D(a,0) - lo],
    saturating at {!infinity}.  The result is canonical when [m] is
    canonical, {!can_fire_first} holds and [lo.(i) <= hi.(i)]; it is
    then bit-identical to bounding the fresh variables with
    {!constrain} and running {!canonicalize}.  [lo.(i) = -infinity]
    with [hi.(i) = infinity] leaves a fresh variable unconstrained. *)

val bounds : t -> int -> int * int
(** [bounds m i] is [(lo, hi)] for variable [i] in canonical form:
    [-m.(0).(i), m.(i).(0)]. *)
