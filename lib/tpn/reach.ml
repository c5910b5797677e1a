type 'step outcome = {
  admitted : int;
  edges : int;
  truncated : bool;
  found : 'step list option;
}

let bfs ~max_nodes ?(stop = fun _ -> false) ?(on_node = ignore)
    ?(on_edge = fun _ _ _ -> ()) ~fresh ~successors root =
  (* queue entries carry their step path from the root, reversed *)
  let queue = Queue.create () in
  let admitted = ref 0 and edges = ref 0 and truncated = ref false in
  let admit path node =
    if not (fresh node) then None
    else if !admitted >= max_nodes then begin
      truncated := true;
      None
    end
    else begin
      incr admitted;
      on_node node;
      if stop node then Some (List.rev path)
      else begin
        Queue.push (node, path) queue;
        None
      end
    end
  in
  let rec drain () =
    match Queue.take_opt queue with
    | None -> None
    | Some (node, path) -> expand node path (successors node)
  and expand node path = function
    | [] -> drain ()
    | (step, node') :: rest -> (
      incr edges;
      let found = admit (step :: path) node' in
      on_edge node step node';
      match found with Some _ -> found | None -> expand node path rest)
  in
  let found = match admit [] root with Some _ as f -> f | None -> drain () in
  { admitted = !admitted; edges = !edges; truncated = !truncated; found }
