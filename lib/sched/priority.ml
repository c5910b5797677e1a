open Ezrt_tpn
module Translate = Ezrt_blocks.Translate
module Meaning = Ezrt_blocks.Meaning
module Task = Ezrt_spec.Task

type policy =
  | Fifo
  | Edf
  | Rm
  | Dm
  | Continuity

let all =
  [ ("fifo", Fifo); ("edf", Edf); ("rm", Rm); ("dm", Dm);
    ("continuity", Continuity) ]

let to_string = function
  | Fifo -> "fifo"
  | Edf -> "edf"
  | Rm -> "rm"
  | Dm -> "dm"
  | Continuity -> "continuity"

let no_urgency = max_int / 2

(* The policies read the dynamic state through this small vtable so the
   same ordering logic serves both the immutable [State.t] and the
   incremental engine without copying either. *)
type view = {
  v_is_enabled : Pnet.transition_id -> bool;
  v_dub : Pnet.transition_id -> Time_interval.bound;
  v_dlb : Pnet.transition_id -> int;
  v_tokens : Pnet.place_id -> int;
}

let view_of_state net s =
  {
    v_is_enabled = State.is_enabled s;
    v_dub = State.dub net s;
    v_dlb = State.dlb net s;
    v_tokens = State.tokens s;
  }

let view_of_engine e =
  {
    v_is_enabled = State.Incremental.is_enabled e;
    v_dub = State.Incremental.dub e;
    v_dlb = State.Incremental.dlb e;
    v_tokens = State.Incremental.tokens e;
  }

(* Time remaining to the current instance deadline of task [i], read
   off the deadline-watch transition's clock.  When the watch is not
   armed the task has no pending instance. *)
let slack model v i =
  let td = model.Translate.deadline_watch.(i) in
  if v.v_is_enabled td then
    match v.v_dub td with
    | Time_interval.Finite q -> q
    | Time_interval.Infinity -> no_urgency
  else no_urgency

(* A preemptive instance is in progress when some units have been
   consumed but work remains: the unit pool is partially drained or a
   unit holds the processor right now. *)
let in_progress model v i =
  match model.Translate.progress.(i) with
  | None -> false
  | Some (pwu, pwx) ->
    let pending = v.v_tokens pwu and running = v.v_tokens pwx in
    let total = pending + running in
    running > 0 || (total > 0 && total < model.Translate.tasks.(i).Task.wcet)

let key_view policy model v tid =
  match Meaning.task_index model.Translate.meanings.(tid) with
  | None -> no_urgency
  | Some i -> (
    let task = model.Translate.tasks.(i) in
    match policy with
    | Fifo -> tid
    | Edf -> slack model v i
    | Rm -> task.Task.period
    | Dm -> task.Task.deadline
    | Continuity ->
      let started = if in_progress model v i then 0 else 1 in
      (started * no_urgency) + slack model v i)

(* lexicographic on (key, dlb, tid): the order polymorphic [compare]
   gives these int triples, without its generic traversal *)
let compare_decorated ((k1 : int), (d1 : int), (t1 : int)) (k2, d2, t2) =
  if k1 <> k2 then Int.compare k1 k2
  else if d1 <> d2 then Int.compare d1 d2
  else Int.compare t1 t2

let order_view policy model v candidates =
  let decorated =
    List.map (fun tid -> (key_view policy model v tid, v.v_dlb tid, tid))
      candidates
  in
  List.map (fun (_, _, tid) -> tid) (List.sort compare_decorated decorated)

let order policy model s candidates =
  order_view policy model (view_of_state model.Translate.net s) candidates
