(** TLTS states and the firing rule of paper Def 3.1.

    A state is a marking plus one clock per enabled transition.  The
    dynamic firing bounds are
    [DLB(t) = max(0, EFT(t) - c(t))] and [DUB(t) = LFT(t) - c(t)];
    the fireable set [FT(s)] keeps the enabled transitions whose [DLB]
    does not exceed the minimum [DUB] (no other transition is forced to
    fire strictly earlier) and, among those, the ones of minimal
    priority value.  The firing domain is
    [FD_s(t) = [DLB(t), min DUB(tk)]]. *)

type t = private {
  marking : int array;
  clocks : int array;  (** [clocks.(t) = -1] iff [t] is disabled. *)
}

val initial : Pnet.t -> t

val is_enabled : t -> Pnet.transition_id -> bool
val enabled_ids : t -> Pnet.transition_id list
val marking_enables : Pnet.t -> int array -> Pnet.transition_id -> bool
val tokens : t -> Pnet.place_id -> int

val dlb : Pnet.t -> t -> Pnet.transition_id -> int
(** Raises [Invalid_argument] if the transition is disabled. *)

val dub : Pnet.t -> t -> Pnet.transition_id -> Time_interval.bound
(** May be negative for an overdue transition that must fire now. *)

val candidates : Pnet.t -> t -> Pnet.transition_id list
(** Enabled transitions with [DLB <= min DUB], i.e. [FT(s)] before the
    priority filter — the raw schedulability choice set. *)

val fireable : Pnet.t -> t -> Pnet.transition_id list
(** [FT(s)] of the paper: {!candidates} restricted to the minimal
    priority value present among them. *)

val firing_domain : Pnet.t -> t -> Pnet.transition_id -> int * Time_interval.bound
(** [FD_s(t)]; raises [Invalid_argument] if disabled. *)

val fire : Pnet.t -> t -> Pnet.transition_id -> int -> t
(** [fire net s t q] fires [t] after [q] further time units (Def 3.1):
    tokens move along the arcs and every transition enabled in the new
    marking has clock 0 when newly enabled (or when it is [t] itself)
    and its old clock advanced by [q] otherwise.  Raises
    [Invalid_argument] when [t] is disabled or [q] lies outside the
    firing domain. *)

val equal : t -> t -> bool

val hash : t -> int
(** Zobrist hash: the XOR of one {!Zobrist.place} contribution per
    marking cell and one {!Zobrist.clock} contribution per enabled
    clock cell.  Every bit of every cell perturbs the hash, and the
    XOR structure is what lets {!Incremental} maintain it across
    fire/undo without rehashing the state. *)

(** Per-cell hash contributions, exposed so packed encodings can hash
    identically to {!hash}.  The "table" is virtual — contributions
    are computed by a splitmix-style finalizer because cell values are
    unbounded. *)
module Zobrist : sig
  val mix : int -> int
  (** The finalizer itself; non-negative output. *)

  val place : Pnet.place_id -> int -> int
  (** [place p v] — contribution of marking cell [p] holding [v]. *)

  val clock : Pnet.transition_id -> int -> int
  (** [clock t c] — contribution of enabled transition [t] at clock
      [c].  Disabled transitions (clock -1) contribute nothing. *)

  val of_cells :
    n_places:int ->
    n_transitions:int ->
    tokens:(Pnet.place_id -> int) ->
    clocks:(Pnet.transition_id -> int) ->
    int
  (** Full fold over a state's cells; [clocks] returns -1 for disabled
      transitions.  [hash s] is exactly this over [s]'s arrays. *)
end

val pp : Pnet.t -> Format.formatter -> t -> unit

(** Hash tables keyed by states. *)
module Table : Hashtbl.S with type key = t

val reset_write_counters : unit -> unit

val write_counters : unit -> int * int * int
(** [(copy_writes, incremental_writes, fires)] — state-vector cells
    written by the copy-based {!fire} versus {!Incremental.fire}, and
    total firings, since the last {!reset_write_counters}.  Benchmark
    instrumentation; approximate while several domains search at once. *)

(** Incremental firing engine: one mutable state, an undo trail for
    depth-first backtracking, a maintained enabled-set so a firing only
    inspects transitions adjacent to touched places, and a fused
    candidate analysis.  Semantically equivalent to the copy-based
    functions above (checked by the differential test suite); clock
    values are represented as [now - enabled_at t]. *)
module Incremental : sig
  type engine

  val create : Pnet.t -> engine
  (** Fresh engine at the initial marking, depth 0. *)

  val net : engine -> Pnet.t

  val depth : engine -> int
  (** Number of firings applied and not undone. *)

  val now : engine -> int
  (** Total elapsed time along the current firing path. *)

  val tokens : engine -> Pnet.place_id -> int
  val is_enabled : engine -> Pnet.transition_id -> bool

  val clock : engine -> Pnet.transition_id -> int
  (** [-1] when disabled, matching {!t}'s convention. *)

  val zhash : engine -> int
  (** Incrementally maintained Zobrist hash of the current state;
      always equal to [hash (snapshot e)], bit for bit, at O(1) cost.
      Fire updates it with the XOR contributions of the touched cells
      (plus O(enabled) clock shifts when time advances) and undo
      restores the saved word from the trail. *)

  val dlb : engine -> Pnet.transition_id -> int
  val dub : engine -> Pnet.transition_id -> Time_interval.bound

  val candidates : engine -> Pnet.transition_id list
  (** Ascending transition order, like the copy-based {!candidates}. *)

  val fireable : engine -> Pnet.transition_id list

  val firing_domain :
    engine -> Pnet.transition_id -> int * Time_interval.bound

  val fire : engine -> Pnet.transition_id -> int -> unit
  (** In-place firing; pushes an undo frame.  Raises
      [Invalid_argument] exactly when the copy-based {!fire} would. *)

  val undo : engine -> unit
  (** Reverts the most recent un-undone firing.  Raises
      [Invalid_argument] at depth 0. *)

  val undo_to : engine -> int -> unit
  (** [undo_to e d] pops firings until [depth e = d]. *)

  val snapshot : engine -> t
  (** Immutable copy of the current state (allocates). *)
end
