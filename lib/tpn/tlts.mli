(** Timed labeled transition system derived from a TPN (paper §3.1).

    The TLTS of a net has actions [(t, q)] — transition [t] fired [q]
    time units after the previous action.  Exhaustive enumeration of
    every [q] in every firing domain explodes even on small nets, so
    exploration offers two successor modes:

    - [`Earliest] fires each fireable transition at its [DLB] (the
      policy of the paper's scheduler and of pre-runtime scheduling in
      general: work is started as early as allowed);
    - [`All_times] additionally enumerates every integer [q] in the
      firing domain, for small nets and for tests of the semantics. *)

type action = { tid : Pnet.transition_id; delay : int }

type mode = [ `Earliest | `All_times ]

val successors : mode -> Pnet.t -> State.t -> (action * State.t) list
(** Successors through the fireable set [FT(s)]. *)

type stats = {
  states : int;  (** distinct states reached (including the initial) *)
  edges : int;
  deadlocks : int;  (** states with no enabled transition *)
  truncated : bool;  (** true when [max_states] stopped the walk *)
}

val explore :
  ?mode:mode ->
  ?max_states:int ->
  ?on_state:(State.t -> unit) ->
  Pnet.t ->
  stats
(** Breadth-first reachability from the initial state, a {!Reach.bfs}
    walk: [max_states] (default 100_000) bounds the admitted states and
    [on_state] sees each of them once. *)
