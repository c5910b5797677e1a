(** Feasible firing schedules (paper Def 3.2): a sequence of
    [(t, q)] actions from the initial state to the final marking [MF],
    with the absolute firing times accumulated along the path. *)

open Ezrt_tpn

type entry = {
  tid : Pnet.transition_id;
  delay : int;  (** [q]: time since the previous firing *)
  time : int;  (** absolute firing time *)
}

type t = { entries : entry list }

val of_actions : (Pnet.transition_id * int) list -> t
(** From relative [(t, q)] pairs, accumulating absolute times. *)

val length : t -> int
val makespan : t -> int
(** Absolute time of the last firing (0 for an empty schedule). *)

val replay : Pnet.t -> t -> State.t
(** Re-fires the whole schedule from the initial state, checking every
    step against the TPN semantics; returns the reached state.  Raises
    [Invalid_argument] if any step is illegal — used to certify that a
    schedule produced by the search is semantically real. *)
