(* Shared helpers for the test suite. *)

open Ezrt_tpn

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let qcheck ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen law)

(* The test/corpus specs as [(file name, spec)], in file-name order. *)
let load_corpus () =
  let module Dsl = Ezrt_spec.Dsl in
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xml")
  |> List.sort compare
  |> List.map (fun f ->
         match Dsl.load_file (Filename.concat "corpus" f) with
         | Ok spec -> (f, spec)
         | Error e -> Alcotest.fail (Dsl.error_to_string e))

(* The two semantics reach the same markings: true for nets whose
   timing windows cannot branch into distinct markings. *)
let reachable_markings_agree ?max_states net =
  let cmp = State_class.compare_reachable_markings ?max_states net in
  cmp.State_class.classes_only = 0 && cmp.State_class.discrete_only = 0

(* Structural conflict: two transitions sharing an input place can
   disable each other. *)
let in_structural_conflict (net : Pnet.t) t1 t2 =
  t1 <> t2
  && Array.exists
       (fun (p, _) -> Array.exists (fun (q, _) -> p = q) net.Pnet.pre.(t2))
       net.Pnet.pre.(t1)

(* The parts of a net that [Pnet.Builder.build] computes from the arcs
   and places it was given. *)
type net_parts = {
  pre : (int * int) array array;
  post : (int * int) array array;
  consumers : int array array;
  m0 : int array;
  transitions : Pnet.transition array;
}

let parts_of_net (net : Pnet.t) =
  {
    pre = net.Pnet.pre;
    post = net.Pnet.post;
    consumers = net.Pnet.consumers;
    m0 = net.Pnet.m0;
    transitions = net.Pnet.transitions;
  }

(* [Pnet.Builder.build]'s arc gather as it was before it went one-pass:
   a fold over the whole [(t, p) -> weight] table per transition,
   O(|T|·|arcs|).  Kept as the reference the one-pass gather must
   equal. *)
let fold_gather n_trans table =
  Array.init n_trans (fun t ->
      let arcs =
        Hashtbl.fold
          (fun (t', p) w acc -> if t' = t then (p, w) :: acc else acc)
          table []
      in
      Array.of_list (List.sort compare arcs))

(* Replays [net] into a fresh builder and, for the same arc stream, into
   arc tables read by [fold_gather].  Arcs go in descending place order
   and each weight-[w] arc as [w] unit arcs, so the builder has to sort
   rows and sum duplicate [(t, p)] pairs itself.  Returns the rebuilt
   net and the reference parts. *)
let reference_rebuild (net : Pnet.t) =
  let b = Pnet.Builder.create net.Pnet.net_name in
  Array.iteri
    (fun p name ->
      ignore (Pnet.Builder.add_place b ~tokens:net.Pnet.m0.(p) name))
    net.Pnet.place_names;
  Array.iter
    (fun (tr : Pnet.transition) ->
      ignore
        (Pnet.Builder.add_transition b ~priority:tr.Pnet.priority
           ?code:tr.Pnet.code tr.Pnet.t_name tr.Pnet.interval))
    net.Pnet.transitions;
  let pre_table = Hashtbl.create 64 and post_table = Hashtbl.create 64 in
  let replay rows table add =
    Array.iteri
      (fun t arcs ->
        for i = Array.length arcs - 1 downto 0 do
          let p, w = arcs.(i) in
          for _ = 1 to w do
            add p t;
            let prev =
              Option.value (Hashtbl.find_opt table (t, p)) ~default:0
            in
            Hashtbl.replace table (t, p) (prev + 1)
          done
        done)
      rows
  in
  replay net.Pnet.pre pre_table (fun p t -> Pnet.Builder.arc_pt b p t);
  replay net.Pnet.post post_table (fun p t -> Pnet.Builder.arc_tp b t p);
  let n_trans = Array.length net.Pnet.transitions in
  let pre = fold_gather n_trans pre_table in
  let consumer_lists = Array.make (Array.length net.Pnet.place_names) [] in
  Array.iteri
    (fun t arcs ->
      Array.iter
        (fun (p, _) -> consumer_lists.(p) <- t :: consumer_lists.(p))
        arcs)
    pre;
  let reference =
    {
      pre;
      post = fold_gather n_trans post_table;
      consumers =
        Array.map (fun l -> Array.of_list (List.sort compare l)) consumer_lists;
      m0 = Array.copy net.Pnet.m0;
      transitions = Array.copy net.Pnet.transitions;
    }
  in
  (Pnet.Builder.build b, reference)

(* A tiny net: two sequential transitions
   p0 --t0[2,5]--> p1 --t1[0,0]--> p2. *)
let sequential_net () =
  let b = Pnet.Builder.create "sequential" in
  let p0 = Pnet.Builder.add_place b ~tokens:1 "p0" in
  let p1 = Pnet.Builder.add_place b "p1" in
  let p2 = Pnet.Builder.add_place b "p2" in
  let t0 = Pnet.Builder.add_transition b "t0" (Time_interval.make 2 5) in
  let t1 = Pnet.Builder.add_transition b "t1" Time_interval.zero in
  Pnet.Builder.arc_pt b p0 t0;
  Pnet.Builder.arc_tp b t0 p1;
  Pnet.Builder.arc_pt b p1 t1;
  Pnet.Builder.arc_tp b t1 p2;
  Pnet.Builder.build b

(* A conflict net: one token, two competing transitions with different
   intervals.  p0 --t0[1,3]--> p1 and p0 --t1[2,7]--> p2. *)
let conflict_net () =
  let b = Pnet.Builder.create "conflict" in
  let p0 = Pnet.Builder.add_place b ~tokens:1 "p0" in
  let p1 = Pnet.Builder.add_place b "p1" in
  let p2 = Pnet.Builder.add_place b "p2" in
  let t0 = Pnet.Builder.add_transition b "t0" (Time_interval.make 1 3) in
  let t1 = Pnet.Builder.add_transition b "t1" (Time_interval.make 2 7) in
  Pnet.Builder.arc_pt b p0 t0;
  Pnet.Builder.arc_tp b t0 p1;
  Pnet.Builder.arc_pt b p0 t1;
  Pnet.Builder.arc_tp b t1 p2;
  Pnet.Builder.build b

(* Random small live nets for property tests: a ring of places with
   transitions moving a token around, plus random extra arcs would risk
   deadlocks, so keep the ring pure and vary sizes/intervals. *)
let ring_net n_places seed =
  let b = Pnet.Builder.create (Printf.sprintf "ring%d-%d" n_places seed) in
  let places =
    Array.init n_places (fun i ->
        Pnet.Builder.add_place b
          ~tokens:(if i = 0 then 1 else 0)
          (Printf.sprintf "p%d" i))
  in
  Array.iteri
    (fun i _ ->
      let eft = (seed + i) mod 4 in
      let lft = eft + ((seed * (i + 3)) mod 5) in
      let t =
        Pnet.Builder.add_transition b
          (Printf.sprintf "t%d" i)
          (Time_interval.make eft lft)
      in
      Pnet.Builder.arc_pt b places.(i) t;
      Pnet.Builder.arc_tp b t places.((i + 1) mod n_places))
    places;
  Pnet.Builder.build b

(* Specification generator for property tests: task sets that are
   always well-formed (c <= d <= p, r + c <= d) with harmonic periods
   and bounded utilization, so that a reasonable fraction is
   schedulable while malformed inputs are impossible. *)
let spec_gen =
  let open QCheck.Gen in
  let task_gen i =
    let* period_pow = int_range 0 2 in
    let period = 10 * (1 lsl period_pow) in
    (* wcet <= 2 with period >= 10 keeps utilization of up to 4 tasks
       below 1.0, so generated specs always validate *)
    let* wcet = int_range 1 2 in
    let* slack = int_range 0 (period - wcet) in
    let deadline = wcet + slack in
    let* release = int_range 0 (max 0 (deadline - wcet)) in
    let* phase = int_range 0 3 in
    let* preemptive = bool in
    return
      (Ezrt_spec.Task.make
         ~name:(Printf.sprintf "t%d" i)
         ~phase ~release ~wcet ~deadline ~period
         ~mode:
           (if preemptive then Ezrt_spec.Task.Preemptive
            else Ezrt_spec.Task.Non_preemptive)
         ())
  in
  let* n = int_range 1 4 in
  let* tasks =
    List.fold_right
      (fun i acc ->
        let* rest = acc in
        let* t = task_gen i in
        return (t :: rest))
      (List.init n Fun.id) (return [])
  in
  (* relations among equal-period pairs; precedence edges only go from
     lower to higher index, so they are acyclic by construction *)
  let equal_period_pairs =
    List.concat_map
      (fun (i, (a : Ezrt_spec.Task.t)) ->
        List.filter_map
          (fun (j, (b : Ezrt_spec.Task.t)) ->
            if i < j && a.Ezrt_spec.Task.period = b.Ezrt_spec.Task.period then
              Some (a.Ezrt_spec.Task.id, b.Ezrt_spec.Task.id)
            else None)
          (List.mapi (fun j t -> (j, t)) tasks))
      (List.mapi (fun i t -> (i, t)) tasks)
  in
  let pick_subset pairs =
    List.fold_right
      (fun pair acc ->
        let* rest = acc in
        let* keep = frequency [ (1, return true); (3, return false) ] in
        return (if keep then pair :: rest else rest))
      pairs (return [])
  in
  let* precedences = pick_subset equal_period_pairs in
  let* exclusions =
    (* exclusion works across periods: draw from all index pairs *)
    let all_pairs =
      List.concat_map
        (fun (i, (a : Ezrt_spec.Task.t)) ->
          List.filter_map
            (fun (j, (b : Ezrt_spec.Task.t)) ->
              if i < j then Some (a.Ezrt_spec.Task.id, b.Ezrt_spec.Task.id)
              else None)
            (List.mapi (fun j t -> (j, t)) tasks))
        (List.mapi (fun i t -> (i, t)) tasks)
    in
    pick_subset all_pairs
  in
  (* avoid the redundant precedence+exclusion warning combination *)
  let exclusions =
    List.filter (fun pair -> not (List.mem pair precedences)) exclusions
  in
  let* messages =
    match equal_period_pairs with
    | [] -> return []
    | pairs ->
      let* want = frequency [ (1, return true); (4, return false) ] in
      if not want then return []
      else
        let* idx = int_range 0 (List.length pairs - 1) in
        let sender, receiver = List.nth pairs idx in
        (* a message also orders the pair; drop clashing relations *)
        let* comm_time = int_range 0 2 in
        return
          [ Ezrt_spec.Message.make ~name:"m0" ~sender ~receiver ~comm_time () ]
  in
  let precedences, exclusions =
    match messages with
    | [] -> (precedences, exclusions)
    | m :: _ ->
      let pair = (m.Ezrt_spec.Message.sender, m.Ezrt_spec.Message.receiver) in
      ( List.filter (fun p -> p <> pair) precedences,
        List.filter (fun p -> p <> pair) exclusions )
  in
  return
    (Ezrt_spec.Spec.make ~name:"random" ~tasks ~precedences ~exclusions
       ~messages ())

let arbitrary_spec =
  QCheck.make ~print:(fun s -> Format.asprintf "%a" Ezrt_spec.Spec.pp s) spec_gen

(* --- TLTS reachability graphs ----------------------------------------- *)

(* The materialized reachability graph of a net's TLTS, for small nets:
   index 0 is the initial state; edges are (source, action, target),
   and edges into states the [max_states] budget refused are dropped. *)
type tlts_graph = {
  nodes : State.t array;
  transitions : (int * Tlts.action * int) list;
}

let tlts_graph ?(mode = `Earliest) ?(max_states = 10_000) net =
  let index = State.Table.create 256 in
  let nodes = ref [] in
  let edges = ref [] in
  let on_node s =
    State.Table.replace index s (State.Table.length index);
    nodes := s :: !nodes
  in
  let on_edge s action s' =
    match State.Table.find_opt index s' with
    | Some id' -> edges := (State.Table.find index s, action, id') :: !edges
    | None -> ()
  in
  let (_ : Tlts.action Reach.outcome) =
    Reach.bfs ~max_nodes:max_states
      ~fresh:(fun s -> not (State.Table.mem index s))
      ~on_node ~on_edge
      ~successors:(Tlts.successors mode net)
      (State.initial net)
  in
  { nodes = Array.of_list (List.rev !nodes); transitions = List.rev !edges }

(* Graphviz rendering: nodes show the marked places, edges the fired
   transition and its delay. *)
let tlts_graph_to_dot net g =
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
    (fun (src, (action : Tlts.action), dst) ->
      out "  s%d -> s%d [label=\"%s@%d\"];\n" src dst
        (Pnet.transition_name net action.tid)
        action.delay)
    g.transitions;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Up to [n] earliest firings, each chosen by [pick] among the fireable
   transitions; stops when [pick] says [None] or nothing is fireable.
   Raises [Invalid_argument] when [pick] names an unfireable
   transition. *)
let tlts_run net pick n =
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
              (Printf.sprintf "tlts_run: %s is not fireable"
                 (Pnet.transition_name net tid));
          let q = State.dlb net s tid in
          let s' = State.fire net s tid q in
          go s' (steps - 1) ({ Tlts.tid; delay = q } :: acc))
  in
  go (State.initial net) n []
