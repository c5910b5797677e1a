(** The building blocks of paper Figs 1 and 2.

    Each constructor adds one block to a {!Ezrt_tpn.Pnet.Builder} and
    returns the identifiers of the nodes it created.  Blocks connect to
    each other through the place ids passed in, which is the
    composition mechanism (the paper's "operators" merge places of
    partial nets; here the shared places are simply created once and
    wired from both sides).

    Immediate transitions carry ordering priorities so that the
    fireable set [FT(s)] resolves same-instant bookkeeping
    deterministically: deadline bookkeeping runs before task wrap-up,
    wrap-up before scheduling choices, and arrivals after everything
    else at the same instant — which also guarantees that a deadline
    watch token is always consumed by [tpc] before the next arrival can
    add a fresh one. *)

open Ezrt_tpn

val prio_bookkeeping : int
val prio_deadline_miss : int

(** {1 Global blocks} *)

val processor_block : Pnet.Builder.t -> string -> Pnet.place_id
(** Fig 1(g): a single marked place, the mutually exclusive
    processor. *)

val fork_block :
  Pnet.Builder.t -> starts:Pnet.place_id list -> Pnet.place_id * Pnet.transition_id
(** Fig 1(a): [pstart] (marked) and [tstart] with interval [0,0]
    feeding every task's start place.  Returns [(pstart, tstart)]. *)

val join_block :
  Pnet.Builder.t ->
  sources:(Pnet.place_id * int) list ->
  Pnet.place_id * Pnet.transition_id
(** Fig 1(b): [tend] consumes [N(ti)] end tokens from every task and
    marks [pend]; [m(pend) = 1] is the desired final marking [MF]
    witnessing a feasible firing schedule (Def 3.2). *)

(** {1 Per-task blocks} *)

type arrival = {
  pwa : Pnet.place_id option;  (** pending-arrival pool, absent when N = 1 *)
  tph : Pnet.transition_id;
  ta : Pnet.transition_id option;
}

val arrival_block :
  Pnet.Builder.t ->
  task:string ->
  phase:int ->
  period:int ->
  instances:int ->
  start:Pnet.place_id ->
  release:Pnet.place_id ->
  watch:Pnet.place_id ->
  arrival
(** Fig 1(c): [tph] (interval [ph, ph]) emits the first release and
    banks [N-1] tokens on [pwa]; [ta] (interval [p, p]) converts one
    banked token per period into a release.  Both also arm the deadline
    watch place. *)

type deadline = {
  pwd : Pnet.place_id;  (** watch place, armed at each arrival *)
  pdm : Pnet.place_id;  (** deadline-missed marker: reaching it is a dead end *)
  pe : Pnet.place_id;  (** instance-completed tokens consumed by the join *)
  td : Pnet.transition_id;
  tpc : Pnet.transition_id;
}

val deadline_block :
  Pnet.Builder.t ->
  task:string ->
  deadline:int ->
  finished:Pnet.place_id ->
  deadline
(** Fig 1(d): [td] (interval [d, d], worst priority) marks [pdm] when
    the watch token survives [d] units; [tpc] (immediate, best
    priority) clears the watch as soon as the instance finishes. *)

type structure = {
  pwr : Pnet.place_id;  (** release place fed by arrivals *)
  pf : Pnet.place_id;  (** finished place consumed by [tpc] *)
  tw : Pnet.transition_id option;
      (** point [r, r] wait stage anchoring the release offset at the
          period start; absent when [release = 0].  Precedence and
          message gates attach to [tr] *after* it, so a late delivery
          does not re-add the offset. *)
  tr : Pnet.transition_id;
      (** gated release decision: [0, d-c] without a wait stage,
          [0, d-c-r] after one *)
  tf : Pnet.transition_id;  (** instance wrap-up, immediate *)
  tg : Pnet.transition_id;  (** processor grab (per instance or per unit) *)
  tc : Pnet.transition_id;  (** computation (whole, or one unit) *)
  te : Pnet.transition_id option;
      (** preemptive-with-exclusions: the exclusion-grab stage *)
}

val non_preemptive_structure :
  Pnet.Builder.t ->
  task:string ->
  release:int ->
  wcet:int ->
  deadline:int ->
  processor:Pnet.place_id ->
  exclusions:Pnet.place_id list ->
  structure
(** Fig 2(a): [tr [r, d-c]; tg [0,0] grabbing the processor and every
    exclusion slot; tc [c, c]; tf [0,0]] returning them.  Requires
    [wcet >= 1]. *)

val preemptive_structure :
  Pnet.Builder.t ->
  task:string ->
  release:int ->
  wcet:int ->
  deadline:int ->
  processor:Pnet.place_id ->
  exclusions:Pnet.place_id list ->
  structure
(** Fig 2(b): the computation is split into [c] unit steps; the
    processor is taken per unit ([tg [0,0]], [tc [1,1]]) so other tasks
    may preempt between units, while exclusion slots are held for the
    whole instance via the [te] stage.  Requires [wcet >= 1]. *)
