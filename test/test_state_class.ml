open Ezrt_tpn
module Translate = Ezrt_blocks.Translate
module Case_studies = Ezrt_spec.Case_studies
open Test_util

let test_initial_class () =
  let net = sequential_net () in
  let c = State_class.initial net in
  check_bool "t0 enabled" true (State_class.enabled_ids c = [ 0 ]);
  check_bool "delay is the static interval" true
    (State_class.delay_bounds net c 0 = (2, 5))

let test_fire_sequential () =
  let net = sequential_net () in
  let c0 = State_class.initial net in
  let c1 = State_class.fire net c0 0 in
  check_bool "t1 enabled" true (State_class.enabled_ids c1 = [ 1 ]);
  check_bool "immediate delay" true (State_class.delay_bounds net c1 1 = (0, 0));
  let c2 = State_class.fire net c1 1 in
  check_bool "deadlock class" true (State_class.enabled_ids c2 = [])

let test_fires_first_restriction () =
  (* t0 in [1,3], t1 in [2,7]: both can fire first (dense time) *)
  let net = conflict_net () in
  let c = State_class.initial net in
  check_bool "both firable" true
    (List.sort compare (State_class.firable net c) = [ 0; 1 ]);
  (* after restricting to t1-first, t0 must not have fired: its new
     window starts at 0 *)
  let c1 = State_class.fire net c 1 in
  check_bool "t0 gone (conflict consumed the token)" true
    (State_class.enabled_ids c1 = [])

let test_urgent_excludes_slow () =
  (* t0 [0,0] and t1 [2,5] in parallel: t1 cannot fire first *)
  let b = Pnet.Builder.create "urgent" in
  let p0 = Pnet.Builder.add_place b ~tokens:1 "p0" in
  let p1 = Pnet.Builder.add_place b ~tokens:1 "p1" in
  let q0 = Pnet.Builder.add_place b "q0" in
  let q1 = Pnet.Builder.add_place b "q1" in
  let t0 = Pnet.Builder.add_transition b "t0" Time_interval.zero in
  let t1 = Pnet.Builder.add_transition b "t1" (Time_interval.make 2 5) in
  Pnet.Builder.arc_pt b p0 t0;
  Pnet.Builder.arc_tp b t0 q0;
  Pnet.Builder.arc_pt b p1 t1;
  Pnet.Builder.arc_tp b t1 q1;
  let net = Pnet.Builder.build b in
  let c = State_class.initial net in
  check_bool "only the urgent one" true (State_class.firable net c = [ t0 ]);
  (* after t0, t1's clock kept running from the start: window still
     [2,5] relative to the (zero-delay) firing *)
  let c1 = State_class.fire net c t0 in
  check_bool "persistent window" true
    (State_class.delay_bounds net c1 t1 = (2, 5))

let test_persistence_shifts_window () =
  (* t0 [1,1] fires; persistent t1 [2,5] keeps its clock: new window
     is [2-1, 5-1] = [1,4] *)
  let b = Pnet.Builder.create "shift" in
  let p0 = Pnet.Builder.add_place b ~tokens:1 "p0" in
  let p1 = Pnet.Builder.add_place b ~tokens:1 "p1" in
  let q0 = Pnet.Builder.add_place b "q0" in
  let q1 = Pnet.Builder.add_place b "q1" in
  let t0 = Pnet.Builder.add_transition b "t0" (Time_interval.point 1) in
  let t1 = Pnet.Builder.add_transition b "t1" (Time_interval.make 2 5) in
  Pnet.Builder.arc_pt b p0 t0;
  Pnet.Builder.arc_tp b t0 q0;
  Pnet.Builder.arc_pt b p1 t1;
  Pnet.Builder.arc_tp b t1 q1;
  let net = Pnet.Builder.build b in
  let c1 = State_class.fire net (State_class.initial net) t0 in
  check_bool "shifted window" true
    (State_class.delay_bounds net c1 t1 = (1, 4))

let test_priority_filter () =
  let b = Pnet.Builder.create "prio" in
  let p = Pnet.Builder.add_place b ~tokens:1 "p" in
  let q = Pnet.Builder.add_place b "q" in
  let t0 = Pnet.Builder.add_transition b ~priority:1 "t0" Time_interval.zero in
  let t1 = Pnet.Builder.add_transition b ~priority:2 "t1" Time_interval.zero in
  Pnet.Builder.arc_pt b p t0;
  Pnet.Builder.arc_pt b p t1;
  Pnet.Builder.arc_tp b t0 q;
  Pnet.Builder.arc_tp b t1 q;
  let net = Pnet.Builder.build b in
  check_bool "priority filter applies" true
    (State_class.firable net (State_class.initial net) = [ t0 ]);
  ignore t1

let test_fire_rejects_non_firable () =
  let net = sequential_net () in
  let c = State_class.initial net in
  Alcotest.check_raises "disabled"
    (Invalid_argument "State_class.fire: t1 not enabled") (fun () ->
      ignore (State_class.fire net c 1))

let test_explore_counts () =
  let net = sequential_net () in
  let stats = State_class.explore net in
  check_int "three classes" 3 stats.State_class.classes;
  check_int "two edges" 2 stats.State_class.edges;
  check_int "one deadlock" 1 stats.State_class.deadlocks;
  (* the class graph coalesces the discrete clock valuations *)
  let discrete = Tlts.explore ~mode:`All_times net in
  check_bool "not larger than all-times discrete" true
    (stats.State_class.classes <= discrete.Tlts.states)

let test_truncation () =
  let net = ring_net 5 3 in
  let stats = State_class.explore ~max_classes:2 net in
  check_bool "truncated" true stats.State_class.truncated

let test_markings_agree_on_case_studies () =
  List.iter
    (fun (name, spec) ->
      let net = (Translate.translate spec).Translate.net in
      check_bool (name ^ " markings agree") true
        (reachable_markings_agree ~max_states:20_000 net))
    [
      ("fig3", Case_studies.fig3_precedence);
      ("quickstart", Case_studies.quickstart);
      ("greedy-trap", Case_studies.greedy_trap);
    ]

let test_class_graph_covers_discrete () =
  (* the discrete walk never reaches a marking the class graph lacks *)
  List.iter
    (fun (name, spec) ->
      let net = (Translate.translate spec).Translate.net in
      let cmp = State_class.compare_reachable_markings ~max_states:20_000 net in
      check_int (name ^ ": no discrete-only markings") 0
        cmp.State_class.discrete_only)
    [
      ("fig3", Case_studies.fig3_precedence);
      ("fig4", Case_studies.fig4_exclusion);
      ("quickstart", Case_studies.quickstart);
      ("greedy-trap", Case_studies.greedy_trap);
    ]

let test_inclusion_abstraction () =
  List.iter
    (fun (name, spec) ->
      let net = (Translate.translate spec).Translate.net in
      let plain = State_class.explore ~max_classes:50_000 net in
      let incl = State_class.explore ~max_classes:50_000 ~inclusion:true net in
      check_bool (name ^ ": never larger") true
        (incl.State_class.classes <= plain.State_class.classes);
      check_bool (name ^ ": not truncated") false incl.State_class.truncated)
    [
      ("fig3", Case_studies.fig3_precedence);
      ("fig4", Case_studies.fig4_exclusion);
      ("quickstart", Case_studies.quickstart);
      ("greedy-trap", Case_studies.greedy_trap);
    ];
  (* fig4's per-unit interleavings collapse strongly under inclusion *)
  let net = (Translate.translate Case_studies.fig4_exclusion).Translate.net in
  let plain = State_class.explore net in
  let incl = State_class.explore ~inclusion:true net in
  check_bool "substantial shrinkage on fig4" true
    (incl.State_class.classes * 2 < plain.State_class.classes)

(* [fire] projects each successor straight from the closed-form
   fires-first domain, bounds its fresh variables in closed form and
   never re-closes it: every successor domain on the class graphs
   (first 3000 classes each) of the case studies, the relations spec
   and the test corpus must already be canonical, so [canonicalize] is
   a no-op on it.  [fire] re-tests only the transitions whose input
   places the firing touched, so each successor's enabled set must
   also equal a full ascending scan of its marking. *)
let test_successor_domains_canonical () =
  List.iter
    (fun (name, spec) ->
      let net = (Translate.translate spec).Translate.net in
      let store = Class_store.create ~subsume:false () in
      let checked = ref 0 in
      let canonical (c : State_class.t) =
        let again = Dbm.copy c.State_class.domain in
        Dbm.canonicalize again;
        incr checked;
        Dbm.equal c.State_class.domain again
      in
      let scanned (c : State_class.t) =
        List.filter
          (State.marking_enables net c.State_class.marking)
          (List.init (Pnet.transition_count net) Fun.id)
      in
      let (_ : Pnet.transition_id Reach.outcome) =
        Reach.bfs ~max_nodes:3000
          ~fresh:(fun (c : State_class.t) ->
            Class_store.visit store ~marking:c.State_class.marking
              ~domain:c.State_class.domain
            = Class_store.Fresh)
          ~on_edge:(fun _ tid c ->
            if not (canonical c) then
              Alcotest.failf "%s: successor by %s is not canonical" name
                (Pnet.transition_name net tid);
            if State_class.enabled_ids c <> scanned c then
              Alcotest.failf "%s: successor by %s has a stale enabled set"
                name (Pnet.transition_name net tid))
          ~successors:(fun c ->
            List.map
              (fun tid -> (tid, State_class.fire net c tid))
              (State_class.firable net c))
          (State_class.initial net)
      in
      check_bool (name ^ ": successors checked") true (!checked > 0))
    ((("relations", Test_class_search.relations_spec) :: Case_studies.all)
    @ load_corpus ())

let prop_rings_agree =
  qcheck ~count:40 "class and discrete markings agree on rings"
    QCheck.(pair (int_range 2 5) (int_range 0 60))
    (fun (n, seed) ->
      reachable_markings_agree ~max_states:5_000 (ring_net n seed))

let suite =
  [
    case "initial class" test_initial_class;
    case "fire sequential" test_fire_sequential;
    case "fires-first restriction" test_fires_first_restriction;
    case "urgent excludes slow" test_urgent_excludes_slow;
    case "persistence shifts windows" test_persistence_shifts_window;
    case "priority filter" test_priority_filter;
    case "fire rejects non-firable" test_fire_rejects_non_firable;
    case "explore counts" test_explore_counts;
    case "truncation" test_truncation;
    case "inclusion abstraction" test_inclusion_abstraction;
    case "markings agree with discrete TLTS" test_markings_agree_on_case_studies;
    case "class graph covers the discrete walk" test_class_graph_covers_discrete;
    case "successor domains are canonical" test_successor_domains_canonical;
    prop_rings_agree;
  ]
