type action = { tid : Pnet.transition_id; delay : int }

type mode = [ `Earliest | `All_times ]

let successors mode net s =
  let fireable = State.fireable net s in
  let with_times tid =
    let lo, hi = State.firing_domain net s tid in
    match mode with
    | `Earliest -> [ (lo, tid) ]
    | `All_times ->
      (match hi with
      | Time_interval.Finite hi ->
        List.init (max 0 (hi - lo + 1)) (fun i -> (lo + i, tid))
      | Time_interval.Infinity ->
        invalid_arg "Tlts.successors: `All_times with an unbounded domain")
  in
  List.concat_map
    (fun tid ->
      List.map
        (fun (q, tid) -> ({ tid; delay = q }, State.fire net s tid q))
        (with_times tid))
    fireable

type stats = {
  states : int;
  edges : int;
  deadlocks : int;
  truncated : bool;
}

let explore ?(mode = `Earliest) ?(max_states = 100_000) ?(on_state = ignore)
    net =
  let seen = State.Table.create 1024 in
  let deadlocks = ref 0 in
  let on_node s =
    State.Table.replace seen s ();
    if State.enabled_ids s = [] then incr deadlocks;
    on_state s
  in
  let r =
    Reach.bfs ~max_nodes:max_states
      ~fresh:(fun s -> not (State.Table.mem seen s))
      ~on_node ~successors:(successors mode net) (State.initial net)
  in
  {
    states = r.Reach.admitted;
    edges = r.Reach.edges;
    deadlocks = !deadlocks;
    truncated = r.Reach.truncated;
  }
