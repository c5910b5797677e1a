type t = {
  marking : int array;
  enabled : int array;
  domain : Dbm.t;
}

let enabled_ids c = Array.to_list c.enabled

let static_bounds net tid =
  let itv = Pnet.interval net tid in
  let hi =
    match Time_interval.lft itv with
    | Time_interval.Finite l -> l
    | Time_interval.Infinity -> Dbm.infinity
  in
  (Time_interval.eft itv, hi)

let initial (net : Pnet.t) =
  let marking = Array.copy net.Pnet.m0 in
  let enabled =
    List.init (Pnet.transition_count net) Fun.id
    |> List.filter (State.marking_enables net marking)
    |> Array.of_list
  in
  let domain = Dbm.create (Array.length enabled) in
  Array.iteri
    (fun i tid ->
      let lo, hi = static_bounds net tid in
      Dbm.constrain domain (i + 1) 0 hi;
      Dbm.constrain domain 0 (i + 1) (-lo))
    enabled;
  Dbm.canonicalize domain;
  { marking; enabled; domain }

let var_of c tid =
  let n = Array.length c.enabled in
  let rec go i =
    if i >= n then None else if c.enabled.(i) = tid then Some (i + 1) else go (i + 1)
  in
  go 0

(* Time-firability is the closed form of {!Dbm.can_fire_first}: one
   column scan of the canonical domain per enabled transition. *)
let firable ?(priorities = true) net c =
  let candidates = ref [] and best = ref max_int in
  for i = Array.length c.enabled - 1 downto 0 do
    if Dbm.can_fire_first c.domain (i + 1) then begin
      let tid = c.enabled.(i) in
      candidates := tid :: !candidates;
      let pri = Pnet.priority net tid in
      if pri < !best then best := pri
    end
  done;
  if not priorities then !candidates
  else List.filter (fun tid -> Pnet.priority net tid = !best) !candidates

let delay_bounds _net c tid =
  match var_of c tid with
  | None ->
    invalid_arg
      (Printf.sprintf "State_class.delay_bounds: transition %d disabled" tid)
  | Some v -> Dbm.bounds c.domain v

let fire (net : Pnet.t) c tid =
  let f_var =
    match var_of c tid with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "State_class.fire: %s not enabled"
           (Pnet.transition_name net tid))
  in
  if not (Dbm.can_fire_first c.domain f_var) then
    invalid_arg
      (Printf.sprintf "State_class.fire: %s cannot fire first"
         (Pnet.transition_name net tid));
  let marking = Array.copy c.marking in
  Array.iter (fun (p, w) -> marking.(p) <- marking.(p) - w) net.Pnet.pre.(tid);
  Array.iter (fun (p, w) -> marking.(p) <- marking.(p) + w) net.Pnet.post.(tid);
  (* Only a consumer of a touched place can change enabledness.  Each
     one is re-tested and inserted into or removed from a copy of the
     old ascending enabled array; every other transition keeps its
     answer, so no full scan runs. *)
  let old = c.enabled in
  let n_old = Array.length old in
  let arcs = Array.append net.Pnet.pre.(tid) net.Pnet.post.(tid) in
  let room n (p, _) = n + Array.length net.Pnet.consumers.(p) in
  let buf = Array.make (Array.fold_left room n_old arcs) 0 in
  let len = ref n_old in
  Array.blit old 0 buf 0 n_old;
  let retest t =
    let i = ref 0 in
    while !i < !len && buf.(!i) < t do incr i done;
    let present = !i < !len && buf.(!i) = t in
    if State.marking_enables net marking t then begin
      if not present then begin
        Array.blit buf !i buf (!i + 1) (!len - !i);
        buf.(!i) <- t;
        incr len
      end
    end
    else if present then begin
      Array.blit buf (!i + 1) buf !i (!len - !i - 1);
      decr len
    end
  in
  Array.iter (fun (p, _) -> Array.iter retest net.Pnet.consumers.(p)) arcs;
  (* Def 3.1 persistence: enabled before and after, and not the fired
     transition itself.  Both arrays ascend, so one merge maps each new
     variable to its old one; a newly enabled one gets its static
     bounds, which [Dbm.successor] writes in closed form, so the
     successor domain is canonical as built. *)
  let k = !len and j = ref 0 in
  let enabled = Array.sub buf 0 k and vars = Array.make k (-1) in
  let lo = Array.make k 0 and hi = Array.make k 0 in
  Array.iteri
    (fun v t ->
      while !j < n_old && old.(!j) < t do incr j done;
      if !j < n_old && old.(!j) = t && t <> tid then vars.(v) <- !j + 1
      else begin
        let l, h = static_bounds net t in
        lo.(v) <- l;
        hi.(v) <- h
      end)
    enabled;
  { marking; enabled; domain = Dbm.successor c.domain f_var vars ~lo ~hi }

type stats = {
  classes : int;
  edges : int;
  deadlocks : int;
  truncated : bool;
}

(* the breadth-first class walks: [Class_store] is their visited set *)
let walk ~max_classes ~subsume ~on_node net =
  let store = Class_store.create ~subsume () in
  Reach.bfs ~max_nodes:max_classes
    ~fresh:(fun c ->
      Class_store.visit store ~marking:c.marking ~domain:c.domain
      = Class_store.Fresh)
    ~on_node
    ~successors:(fun c ->
      List.map (fun tid -> (tid, fire net c tid)) (firable net c))
    (initial net)

let explore ?(max_classes = 100_000) ?(inclusion = false) net =
  let deadlocks = ref 0 in
  let r =
    walk ~max_classes ~subsume:inclusion net ~on_node:(fun c ->
        if c.enabled = [||] then incr deadlocks)
  in
  {
    classes = r.Reach.admitted;
    edges = r.Reach.edges;
    deadlocks = !deadlocks;
    truncated = r.Reach.truncated;
  }

type marking_comparison = {
  common : int;
  classes_only : int;
  discrete_only : int;
}

let compare_reachable_markings ?(max_states = 50_000) net =
  let markings_of_classes = Hashtbl.create 256 in
  let (_ : Pnet.transition_id Reach.outcome) =
    walk ~max_classes:max_states ~subsume:false net ~on_node:(fun c ->
        Hashtbl.replace markings_of_classes (Array.to_list c.marking) ())
  in
  let markings_of_states = Hashtbl.create 256 in
  let record (s : State.t) =
    Hashtbl.replace markings_of_states (Array.to_list s.State.marking) ()
  in
  let (_ : Tlts.stats) = Tlts.explore ~max_states ~on_state:record net in
  let common = ref 0 and classes_only = ref 0 and discrete_only = ref 0 in
  Hashtbl.iter
    (fun m () ->
      if Hashtbl.mem markings_of_states m then incr common
      else incr classes_only)
    markings_of_classes;
  Hashtbl.iter
    (fun m () ->
      if not (Hashtbl.mem markings_of_classes m) then incr discrete_only)
    markings_of_states;
  { common = !common; classes_only = !classes_only;
    discrete_only = !discrete_only }
