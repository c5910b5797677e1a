open Ezrt_tpn
open Test_util

let test_successors_earliest () =
  let net = conflict_net () in
  let s = State.initial net in
  let succs = Tlts.successors `Earliest net s in
  check_int "one per fireable" 2 (List.length succs);
  List.iter
    (fun (a, _) ->
      check_int "fired at own DLB" (State.dlb net s a.Tlts.tid) a.Tlts.delay)
    succs

let test_successors_all_times () =
  let net = conflict_net () in
  let s = State.initial net in
  let succs = Tlts.successors `All_times net s in
  (* t0: q in [1,3] (3 options); t1: q in [2,3] (2 options) *)
  check_int "every discrete time" 5 (List.length succs)

let test_explore_sequential () =
  let net = sequential_net () in
  let stats = Tlts.explore net in
  check_int "three states" 3 stats.Tlts.states;
  check_int "two edges" 2 stats.Tlts.edges;
  check_int "one deadlock" 1 stats.Tlts.deadlocks;
  check_bool "complete" false stats.Tlts.truncated

let test_explore_all_times () =
  let net = sequential_net () in
  let stats = Tlts.explore ~mode:`All_times net in
  (* initial, p1 with 4 distinct residual clocks collapse: firing t0 at
     2..5 yields states that differ only by t1's fresh clock (0), so
     there are 3 states total. *)
  check_int "states" 3 stats.Tlts.states;
  check_int "edges: 4 firings of t0 + 1 of t1" 5 stats.Tlts.edges

let test_explore_truncation () =
  let net = ring_net 5 3 in
  let stats = Tlts.explore ~max_states:2 net in
  check_bool "truncated" true stats.Tlts.truncated;
  check_int "bounded" 2 stats.Tlts.states

let test_ring_cycles () =
  let net = ring_net 4 1 in
  let stats = Tlts.explore net in
  check_int "no deadlock in a ring" 0 stats.Tlts.deadlocks;
  check_bool "finite" false stats.Tlts.truncated

let test_run_picks () =
  let net = sequential_net () in
  let actions = tlts_run net (fun s -> List.nth_opt (State.fireable net s) 0) 10 in
  check_int "both transitions fired" 2 (List.length actions);
  match actions with
  | [ a0; a1 ] ->
    check_int "t0 first" 0 a0.Tlts.tid;
    check_int "at its DLB" 2 a0.Tlts.delay;
    check_int "then t1" 1 a1.Tlts.tid
  | _ -> Alcotest.fail "expected two actions"

let test_run_rejects_unfireable () =
  let net = sequential_net () in
  Alcotest.check_raises "not fireable"
    (Invalid_argument "tlts_run: t1 is not fireable") (fun () ->
      ignore (tlts_run net (fun _ -> Some 1) 1))

let test_run_stops_on_none () =
  let net = sequential_net () in
  check_int "no steps" 0 (List.length (tlts_run net (fun _ -> None) 10))

let test_graph_materialization () =
  let net = sequential_net () in
  let g = tlts_graph net in
  check_int "three nodes" 3 (Array.length g.nodes);
  check_int "two edges" 2 (List.length g.transitions);
  check_bool "initial first" true
    (State.equal g.nodes.(0) (State.initial net));
  (* edges reference valid nodes in firing order *)
  List.iter
    (fun (src, action, dst) ->
      check_bool "src in range" true (src >= 0 && src < 3);
      check_bool "dst in range" true (dst >= 0 && dst < 3);
      check_bool "action delay nonnegative" true (action.Tlts.delay >= 0))
    g.transitions

let test_graph_dot () =
  let net = sequential_net () in
  let dot = tlts_graph_to_dot net (tlts_graph net) in
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length dot
      && (String.sub dot i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  check_bool "digraph" true (contains "digraph tlts");
  check_bool "state nodes" true (contains "s0");
  check_bool "edge labels with delays" true (contains "t0@2");
  check_bool "marking shown" true (contains "p0")

let test_graph_truncation () =
  let net = ring_net 4 2 in
  let g = tlts_graph ~max_states:2 net in
  check_int "bounded" 2 (Array.length g.nodes)

let suite =
  [
    case "earliest successors" test_successors_earliest;
    case "graph materialization" test_graph_materialization;
    case "graph to dot" test_graph_dot;
    case "graph truncation" test_graph_truncation;
    case "all-times successors" test_successors_all_times;
    case "explore sequential net" test_explore_sequential;
    case "explore all times" test_explore_all_times;
    case "explore truncation" test_explore_truncation;
    case "ring has no deadlock" test_ring_cycles;
    case "guided run" test_run_picks;
    case "run rejects unfireable picks" test_run_rejects_unfireable;
    case "run stops on None" test_run_stops_on_none;
  ]
