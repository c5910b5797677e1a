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

type graph = {
  nodes : State.t array;
  transitions : (int * action * int) list;
}

let graph ?(mode = `Earliest) ?(max_states = 10_000) net =
  let index = State.Table.create 256 in
  let nodes = ref [] in
  let edges = ref [] in
  let on_node s =
    State.Table.replace index s (State.Table.length index);
    nodes := s :: !nodes
  in
  (* an edge to a node the budget refused is dropped *)
  let on_edge s action s' =
    match State.Table.find_opt index s' with
    | Some id' -> edges := (State.Table.find index s, action, id') :: !edges
    | None -> ()
  in
  let (_ : action Reach.outcome) =
    Reach.bfs ~max_nodes:max_states
      ~fresh:(fun s -> not (State.Table.mem index s))
      ~on_node ~on_edge ~successors:(successors mode net) (State.initial net)
  in
  {
    nodes = Array.of_list (List.rev !nodes);
    transitions = List.rev !edges;
  }

let graph_to_dot net g =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "digraph tlts {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n";
  Array.iteri
    (fun id (s : State.t) ->
      let marked = ref [] in
      Array.iteri
        (fun p n ->
          if n > 0 then
            marked :=
              (if n = 1 then Pnet.place_name net p
               else Printf.sprintf "%s:%d" (Pnet.place_name net p) n)
              :: !marked)
        s.State.marking;
      out "  s%d [label=\"s%d\\n%s\"];\n" id id
        (String.concat "\\n" (List.rev !marked)))
    g.nodes;
  List.iter
    (fun (src, action, dst) ->
      out "  s%d -> s%d [label=\"%s@%d\"];\n" src dst
        (Pnet.transition_name net action.tid)
        action.delay)
    g.transitions;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let run net pick n =
  let rec go s steps acc =
    if steps = 0 then List.rev acc
    else
      match State.fireable net s with
      | [] -> List.rev acc
      | fireable -> (
        match pick s with
        | None -> List.rev acc
        | Some tid ->
          if not (List.mem tid fireable) then
            invalid_arg
              (Printf.sprintf "Tlts.run: %s is not fireable"
                 (Pnet.transition_name net tid));
          let q = State.dlb net s tid in
          let s' = State.fire net s tid q in
          go s' (steps - 1) ({ tid; delay = q } :: acc))
  in
  go (State.initial net) n []
