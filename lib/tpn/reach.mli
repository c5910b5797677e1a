(** One bounded breadth-first walk, shared by every reachability client:
    {!Tlts}, {!State_class} and {!Query}.

    Budget rule: a fresh node is admitted while fewer than [max_nodes]
    nodes have been admitted, the root included.  A fresh node past the
    budget sets [truncated] and is otherwise ignored: not passed to
    [on_node], not tested against [stop], not expanded.  Every later
    node is refused too, so [fresh] may record the nodes it is asked
    about (a test-and-insert store) or leave that to [on_node]. *)

type 'step outcome = {
  admitted : int;  (** nodes admitted within the budget *)
  edges : int;  (** successor pairs generated by expanded nodes *)
  truncated : bool;  (** the budget refused at least one fresh node *)
  found : 'step list option;
      (** the steps from the root to the first admitted node satisfying
          [stop]; the walk ends there *)
}

val bfs :
  max_nodes:int ->
  ?stop:('node -> bool) ->
  ?on_node:('node -> unit) ->
  ?on_edge:('node -> 'step -> 'node -> unit) ->
  fresh:('node -> bool) ->
  successors:('node -> ('step * 'node) list) ->
  'node ->
  'step outcome
(** [on_node] sees each admitted node once, in admission order;
    [on_edge] sees each generated edge after its target's admission
    was decided.  Each queued node carries its step path, so no parent
    table is kept. *)
