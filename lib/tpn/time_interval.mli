(** Static firing intervals of time Petri net transitions.

    The paper's model has [I : T -> N x N] with
    [EFT(t) <= LFT(t)] (Merlin/Faber time Petri nets over discrete
    time).  An unbounded latest firing time is also supported because it
    is standard for TPNs, even though every ezRealtime building block
    uses finite bounds. *)

type bound =
  | Finite of int
  | Infinity

type t = private { eft : int; lft : bound }

val make : int -> int -> t
(** [make eft lft] with [0 <= eft <= lft].
    Raises [Invalid_argument] otherwise. *)

val make_unbounded : int -> t
(** [make_unbounded eft] is the interval with no latest firing time. *)

val point : int -> t
(** [point q] is [make q q] — the constant intervals of Figs 1–2. *)

val zero : t
(** The ubiquitous immediate interval. *)

val eft : t -> int
val lft : t -> bound

val is_point : t -> bool
val contains : t -> int -> bool

val intersect : t -> t -> t option
(** Set intersection of two intervals; [None] when they are disjoint.
    The result contains exactly the instants contained in both. *)

val shift : t -> int -> t
(** [shift t q] translates both bounds by [q] (negative [q] shifts
    toward zero).  Raises [Invalid_argument] when the shifted EFT
    would become negative. *)

val bound_min : bound -> bound -> bound
val bound_le : bound -> bound -> bool
val bound_sub : bound -> int -> bound
(** [bound_sub b q] clamps at [Finite 0] from below for finite bounds
    only in the sense that the caller interprets negative values; no
    clamping is applied here. *)

val bound_to_string : bound -> string
val to_string : t -> string
(** Renders as in the paper's figures, e.g. ["[0, 130]"]. *)

val equal : t -> t -> bool
