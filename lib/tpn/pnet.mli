(** Time Petri net structure.

    An extended time Petri net (paper §3.1) is
    [(P, T, F, W, m0, I)] plus a partial code-binding function [CS] and
    a priority function [pi].  Places and transitions are dense integer
    ids into arrays; arcs carry positive weights. *)

type place_id = int
type transition_id = int

type transition = {
  t_name : string;
  interval : Time_interval.t;
  priority : int;
      (** [pi : T -> N]; smaller values are preferred by the fireable
          set [FT(s)] (paper §3.1).  Default {!default_priority}. *)
  code : string option;
      (** [CS : T -9-> ST] — behavioural source bound to the
          transition, when any. *)
}

type t = private {
  net_name : string;
  place_names : string array;
  transitions : transition array;
  pre : (place_id * int) array array;
      (** [pre.(t)] lists [(p, w)] input arcs of transition [t]. *)
  post : (place_id * int) array array;
  consumers : transition_id array array;
      (** [consumers.(p)] lists the transitions with an input arc on
          [p]; derived index used for conflict detection. *)
  m0 : int array;
}

val default_priority : int

val place_count : t -> int
val transition_count : t -> int
val arc_count : t -> int

val place_name : t -> place_id -> string
val transition_name : t -> transition_id -> string
val interval : t -> transition_id -> Time_interval.t
val priority : t -> transition_id -> int

val find_place : t -> string -> place_id
(** Raises [Not_found] when no place has that name. *)

val find_transition : t -> string -> transition_id
(** Raises [Not_found]. *)

val find_place_opt : t -> string -> place_id option
val find_transition_opt : t -> string -> transition_id option

val pre_arcs : t -> transition_id -> (place_id * int) array
(** Input arcs [(p, w)] of a transition.  The returned array is the
    net's own — callers must not mutate it. *)

val post_arcs : t -> transition_id -> (place_id * int) array

val consumers_of : t -> place_id -> transition_id array
(** Transitions with an input arc on the place (the derived conflict
    index); not to be mutated. *)

val producers : t -> transition_id array array
(** Freshly computed per-place producer index: [producers net].(p)
    lists the transitions with an output arc into [p], ascending.
    O(arcs); callers that need it repeatedly should keep the result. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line [name: |P|=.., |T|=.., |F|=.., tokens(m0)=..]. *)

(** Imperative construction of a net; ids are handed out densely.
    [build] freezes the net and validates it. *)
module Builder : sig
  type net = t
  type t

  val create : string -> t
  (** [create name] starts an empty net. *)

  val add_place : t -> ?tokens:int -> string -> place_id
  (** Adds a place with [tokens] initial marks (default 0).
      Raises [Invalid_argument] on duplicate names or negative
      tokens. *)

  val add_transition :
    t ->
    ?priority:int ->
    ?code:string ->
    string ->
    Time_interval.t ->
    transition_id
  (** Raises [Invalid_argument] on duplicate names. *)

  val arc_pt : t -> ?weight:int -> place_id -> transition_id -> unit
  (** Input arc place -> transition; weight defaults to 1.  Adding the
      same arc twice accumulates weights. *)

  val arc_tp : t -> ?weight:int -> transition_id -> place_id -> unit

  val add_tokens : t -> place_id -> int -> unit
  (** Adds to the initial marking of an existing place. *)

  val place_count : t -> int
  (** Places added so far — a watermark for tagging construction
      phases with their originating spec fragment. *)

  val transition_count : t -> int

  val build : t -> net
  (** Freezes the net.  Raises [Invalid_argument] when a transition has
      no input arc (such a transition would be continuously enabled and
      break the TLTS finiteness argument) — every ezRealtime block
      transition has a pre-set.

      Cost: one pass over each arc table buckets the arcs into their
      transitions' rows, then each row is sorted by place, so a build
      is O(|P| + |T| + |F|·log d) with [d] the longest row. *)
end
