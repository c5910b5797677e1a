(** Property checking over the reachable state space — the "checking
    properties" capability the paper's abstract lists, in the style of
    TINA/Romeo reachability queries.

    Properties are boolean combinations of linear marking atoms plus a
    [deadlock] atom; queries quantify them over the reachable states:

    {v
    EF pdm_T1 >= 1                    a deadline can be missed
    AG pproc <= 1                     the processor is 1-safe
    AG (pexcl_A_B + pwc_A <= 1)       slot accounting
    EF deadlock                       some state has no successor
    v}

    Checking walks the discrete earliest-firing TLTS breadth-first
    ({!Reach.bfs}) and stops at the first state deciding the query, so
    failed universal and satisfied existential queries come with a
    shortest firing witness.

    Budget rule (both semantics): the budget counts the states (or
    classes) admitted to the walk, the initial one included.  A node
    past the budget is neither tested nor expanded; if the walk refuses
    one and no admitted node decides the query, the verdict is
    [Unknown].

    Semantics caveat: the walk explores every choice of *which*
    transition fires next (the fireable set [FT(s)]) but fires each at
    its earliest time, like the scheduler's search.  Properties are
    therefore relative to that discrete semantics; behaviour reachable
    only by delaying a firing inside its window (e.g. a deadline miss
    that needs a late release) is covered by {!State_class}, not by
    this walk. *)

type comparison =
  | Le
  | Lt
  | Eq
  | Ne
  | Ge
  | Gt

type prop =
  | Atom of (string * int) list * comparison * int
      (** weighted place sum compared to a constant *)
  | Deadlock
  | Not of prop
  | And of prop * prop
  | Or of prop * prop

type query =
  | Ef of prop  (** some reachable state satisfies the property *)
  | Ag of prop  (** every reachable state satisfies the property *)

val parse : string -> (query, string) result
(** Concrete syntax:
    [query := ("EF" | "AG") prop],
    [prop := term cmp INT | "deadlock" | "not" prop
           | prop "&&" prop | prop "||" prop | "(" prop ")"],
    [term := INT? place ("+" INT? place)*],
    [cmp := "<=" | "<" | "=" | "!=" | ">=" | ">"].
    Place names are resolved against the net at check time. *)

val to_string : query -> string

type verdict =
  | Holds of string list
      (** for [EF]: a shortest firing sequence (transition names)
          reaching a satisfying state; [[]] for [AG] *)
  | Fails of string list
      (** for [AG]: a shortest counterexample run; [[]] for [EF] *)
  | Unknown
      (** the bounded walk was truncated before an answer was found *)

val verdict_to_string : verdict -> string

val check : ?max_states:int -> Pnet.t -> query -> (verdict, string) result
(** [Error] reports unknown place names.  [max_states] (default
    100_000) is the budget of admitted states. *)

val check_classes :
  ?max_classes:int -> ?priorities:bool -> Pnet.t -> query -> (verdict, string) result
(** The same queries over the dense-time state-class graph
    ({!State_class}), covering behaviour reachable only by delaying
    firings inside their windows, at a higher per-node cost.
    [max_classes] (default 100_000) is the budget of admitted classes.
    [Deadlock] means the class has no firable transition under the
    prioritized filter, whatever [priorities].

    [priorities] (default true) keeps the paper's [FT] filter, which
    does not commute with the class abstraction (see
    {!State_class.firable}); pass [false] for the classical TPN
    semantics, which over-approximates the prioritized behaviour —
    [AG phi] holding at [~priorities:false] implies it holds
    in the prioritized semantics, while an [EF] witness found there
    may be spurious at exact-deadline boundaries. *)

val check_exn : ?max_states:int -> Pnet.t -> string -> verdict
(** Parse and check; raises [Failure] on syntax or name errors. *)
