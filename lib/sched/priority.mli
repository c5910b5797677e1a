(** Branch-ordering policies for the depth-first search.

    The TPN's static priority function already filters the fireable set
    [FT(s)]; among the remaining candidates the search is free to pick
    any exploration order, and a good order finds a feasible schedule
    with few backtracks.  Keys are compared smaller-first. *)

open Ezrt_tpn

type policy =
  | Fifo  (** transition-id order: the unguided baseline *)
  | Edf
      (** earliest (absolute) deadline first, read dynamically off the
          deadline-watch clock of the candidate's task *)
  | Rm  (** rate monotonic: smallest period first *)
  | Dm  (** deadline monotonic: smallest relative deadline first *)
  | Continuity
      (** preemption-avoiding: prefer the preemptive task whose
          instance has already executed some units (finishing it avoids
          a resume row in the table), then fall back to EDF slack *)

val all : (string * policy) list
val to_string : policy -> string

(** Read-only dynamic-state accessors: the policies are written against
    this vtable so the same ordering logic serves the immutable
    {!State.t} and the incremental engine. *)
type view = {
  v_is_enabled : Pnet.transition_id -> bool;
  v_dub : Pnet.transition_id -> Time_interval.bound;
  v_dlb : Pnet.transition_id -> int;
  v_tokens : Pnet.place_id -> int;
}

val view_of_engine : State.Incremental.engine -> view

val order_view :
  policy ->
  Ezrt_blocks.Translate.t ->
  view ->
  Pnet.transition_id list ->
  Pnet.transition_id list

val order :
  policy ->
  Ezrt_blocks.Translate.t ->
  State.t ->
  Pnet.transition_id list ->
  Pnet.transition_id list
(** Stable sort of the candidates by the policy's key, tie-broken by
    earliest dynamic lower bound and then transition id.  Transitions
    not belonging to a task (bookkeeping, messages) sort last. *)
