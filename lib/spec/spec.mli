(** The whole specification (metamodel root EzRTSpec, Fig 5): tasks,
    processors, messages and inter-task relations, plus the dispatcher
    overhead switch. *)

type t = {
  name : string;
  disp_overhead : int;
      (** Dispatcher/context-switch cost in time units; the metamodel's
          [dispOveh] boolean generalized to the actual cost (0 = the
          boolean off). *)
  tasks : Task.t list;
  processors : Processor.t list;
  messages : Message.t list;
  precedences : (string * string) list;
      (** [(a, b)] task ids: a PRECEDES b. *)
  exclusions : (string * string) list;
      (** Unordered task-id pairs; EXCLUDES is symmetric (paper §3.2),
          pairs are kept normalized with the lexicographically smaller
          id first. *)
}

val make :
  ?disp_overhead:int ->
  ?processors:Processor.t list ->
  ?messages:Message.t list ->
  ?precedences:(string * string) list ->
  ?exclusions:(string * string) list ->
  name:string ->
  tasks:Task.t list ->
  unit ->
  t
(** [processors] defaults to the single [cpu0]; exclusion pairs are
    normalized and deduplicated. *)

val normalize_exclusion : string * string -> string * string

val find_task : t -> string -> Task.t option
(** Lookup by task identifier. *)

val sat_add : int -> int -> int
(** Saturating addition on non-negative operands: [max_int] instead of
    wrapping.  Shared by the workload arithmetic ({!hyperperiod},
    {!Stats}) and the analytic pre-pass ([Ezrt_analysis]). *)

val sat_mul : int -> int -> int
(** Saturating multiplication on non-negative operands. *)

val hyperperiod : t -> int
(** LCM of the task periods — the schedule period [PS] (paper §3.3).
    Saturates to [max_int] on adversarial period sets instead of
    wrapping (check [hyperperiod spec = max_int] to detect).  Raises
    [Invalid_argument] on an empty task list or a non-positive
    period. *)

val instance_counts : t -> (string * int) list
(** [(task id, N(ti))] over the hyperperiod. *)

val total_instances : t -> int
(** The paper's "tasks' instances" count (782 for the mine pump);
    saturating, like {!hyperperiod}. *)

val utilization : t -> float
(** Processor utilization [sum ci / pi]; a value above 1.0 is
    structurally infeasible on one processor. *)

val drop_task : t -> string -> t
(** Remove the task with the given id together with every precedence,
    exclusion and message involving it — the primitive the
    counterexample shrinker reduces with. *)

val map_task : t -> string -> (Task.t -> Task.t) -> t
(** Rewrite one task in place (by id), leaving the rest of the
    specification untouched. *)

val precedes : t -> string -> string -> bool
val excludes : t -> string -> string -> bool

val pp : Format.formatter -> t -> unit
