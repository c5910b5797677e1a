module Translate = Ezrt_blocks.Translate
module Search = Ezrt_sched.Search
module Class_search = Ezrt_sched.Class_search
module Schedule = Ezrt_sched.Schedule
module Timeline = Ezrt_sched.Timeline
module Validator = Ezrt_sched.Validator
module Task = Ezrt_spec.Task
module Spec = Ezrt_spec.Spec
module Case_studies = Ezrt_spec.Case_studies
module Spec_gen = Ezrt_gen.Spec_gen
module State = Ezrt_tpn.State
module Time_interval = Ezrt_tpn.Time_interval
open Test_util

let solve spec =
  let model = Translate.translate spec in
  let outcome, metrics = Class_search.find_schedule model in
  (model, outcome, metrics)

let expect_feasible name spec =
  match solve spec with
  | model, Ok schedule, _ ->
    let final = Schedule.replay model.Translate.net schedule in
    check_bool (name ^ " reaches MF") true (Translate.is_final model final);
    let segments = Timeline.of_schedule model schedule in
    (match Validator.check model segments with
    | Ok () -> ()
    | Error vs ->
      Alcotest.failf "%s: %s" name (Validator.violation_to_string (List.hd vs)))
  | _, Error f, _ ->
    Alcotest.failf "%s: %s" name (Class_search.failure_to_string f)

let test_all_case_studies () =
  List.iter (fun (name, spec) -> expect_feasible name spec) Case_studies.all

let test_greedy_trap_without_flags () =
  (* the class search is complete for dense time: the inserted-idle
     schedule needs no special option, and the exact extraction
     realizes the delayed release *)
  expect_feasible "greedy trap" Case_studies.greedy_trap

let test_fewer_nodes_than_discrete () =
  let model = Translate.translate Case_studies.mine_pump in
  let _, classes = Class_search.find_schedule model in
  let _, discrete = Search.find_schedule model in
  check_bool "classes below discrete states" true
    (classes.Class_search.stored < discrete.Search.stored)

let test_infeasible_detected () =
  let spec =
    Spec.make ~name:"tight"
      ~tasks:
        [
          Task.make ~name:"a" ~wcet:5 ~deadline:5 ~period:10 ();
          Task.make ~name:"b" ~wcet:5 ~deadline:6 ~period:10 ();
        ]
      ()
  in
  match solve spec with
  | _, Error Class_search.Infeasible, _ -> ()
  | _, Error f, _ ->
    Alcotest.failf "wrong failure: %s" (Class_search.failure_to_string f)
  | _, Ok _, _ -> Alcotest.fail "should be unschedulable"

let test_budget () =
  let model = Translate.translate Case_studies.mine_pump in
  match Class_search.find_schedule ~max_stored:2 model with
  | Error Class_search.Budget_exhausted, m ->
    check_int "stored at budget" 2 m.Class_search.stored
  | Error _, _ | Ok _, _ -> Alcotest.fail "expected budget exhaustion"

(* N independent tasks released together at time 0, each with [slack]
   units of laxity: the set is feasible iff N <= 1 + slack, and an
   infeasibility proof must interleave the bookkeeping of all N
   tasks. *)
let independent ~slack n =
  let tasks =
    List.init n (fun i ->
        Task.make
          ~name:(Printf.sprintf "c%d" i)
          ~wcet:1 ~deadline:(1 + slack) ~period:60 ())
  in
  Spec.make ~name:(Printf.sprintf "independent-%d" n) ~tasks ()

let test_agrees_with_discrete_on_feasibility () =
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let discrete = Result.is_ok (fst (Search.find_schedule model)) in
      let classes = Result.is_ok (fst (Class_search.find_schedule model)) in
      (* dense-time feasibility is implied by discrete feasibility; on
         these specs the converse holds too *)
      check_bool (name ^ ": discrete and class verdicts") discrete classes)
    Case_studies.all

let verdict = function
  | Ok _ -> "feasible"
  | Error Search.Infeasible -> "infeasible"
  | Error Search.Budget_exhausted -> "budget"

let class_verdict = function
  | Ok _ -> "feasible"
  | Error Class_search.Infeasible -> "infeasible"
  | Error Class_search.Extraction_failed -> "extraction-failed"
  | Error Class_search.Budget_exhausted -> "budget"

(* Both engines reach the same exact verdict on independent task sets,
   the infeasible one included, where each must exhaust the
   interleavings of all N tasks. *)
let test_independent_verdicts () =
  List.iter
    (fun (name, spec, expected) ->
      let model = Translate.translate spec in
      check_string (name ^ ": discrete") expected
        (verdict (fst (Search.find_schedule model)));
      check_string (name ^ ": classes") expected
        (class_verdict (fst (Class_search.find_schedule model))))
    [
      ("zl-4", independent ~slack:0 4, "infeasible");
      ("snug-2", independent ~slack:1 2, "feasible");
      ("snug-5", independent ~slack:1 5, "infeasible");
    ]

let prop_class_schedules_certify =
  qcheck ~count:40 "class-search schedules certify" arbitrary_spec (fun spec ->
      match solve spec with
      | model, Ok schedule, _ ->
        let segments = Timeline.of_schedule model schedule in
        Result.is_ok (Validator.check model segments)
      | _, Error Class_search.Extraction_failed, _ -> false
      | _, Error (Class_search.Infeasible | Class_search.Budget_exhausted), _
        -> true)

(* Both engines must agree on feasibility for generated specs: the
   discrete engine is work-conserving-restricted but the generator's
   synchronous harmonic sets don't need inserted idle... they might.
   Only the implication discrete => class is a theorem. *)
let prop_discrete_implies_class =
  qcheck ~count:30 "discrete feasible => class feasible" arbitrary_spec
    (fun spec ->
      let model = Translate.translate spec in
      match fst (Search.find_schedule model) with
      | Error _ -> true
      | Ok _ -> Result.is_ok (fst (Class_search.find_schedule model)))

(* Relation-heavy infeasible spec: five tasks in a near-complete
   exclusion clique plus one precedence.  Infeasibility forces the
   search to exhaust the class graph, where the same marking recurs
   under strictly nested domains — the workload subsumption exists
   for.  perfbench's search-engines workload runs the same spec from
   its frozen relations.xml. *)
let relations_spec =
  let mk i d =
    Task.make ~name:(Printf.sprintf "q%d" i) ~wcet:7 ~deadline:d ~period:40 ()
  in
  let tasks = [ mk 0 22; mk 1 22; mk 2 26; mk 3 30; mk 4 34 ] in
  let id i = (List.nth tasks i).Task.id in
  let pairs =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if j > i then Some (id i, id j) else None)
          [ 0; 1; 2; 3; 4 ])
      [ 0; 1; 2; 3; 4 ]
  in
  Spec.make ~name:"relations" ~tasks
    ~precedences:[ (id 0, id 1) ]
    ~exclusions:(List.filter (fun p -> p <> (id 0, id 1)) pairs)
    ()

let test_subsumption_prunes () =
  let model = Translate.translate relations_spec in
  let on_outcome, on = Class_search.find_schedule model in
  let off_outcome, off = Class_search.find_schedule ~subsume:false model in
  check_bool "verdicts agree" true
    (Result.is_error on_outcome = Result.is_error off_outcome);
  check_bool "exhaustion proves infeasibility" true
    (on_outcome = Error Class_search.Infeasible);
  check_int "classes stored" 1095 on.Class_search.stored;
  check_int "classes subsumed" 192 on.Class_search.subsumed;
  check_int "classes stored without subsumption" 1290 off.Class_search.stored;
  check_int "no subsumption when disabled" 0 off.Class_search.subsumed

(* The class engine proves large-tight-8 (the discrete engine's
   heaviest infeasible spec, defined in Test_search) infeasible by
   exhaustion, subsumption on. *)
let test_large_tight_exhausts () =
  let model = Translate.translate Test_search.large_tight_spec in
  match Class_search.find_schedule model with
  | Error Class_search.Infeasible, m ->
    check_int "classes stored" 26238 m.Class_search.stored;
    check_int "classes subsumed" 3667 m.Class_search.subsumed
  | _ -> Alcotest.fail "large-tight-8: expected an infeasibility proof"

let test_determinism () =
  (* two runs over the same model are bit-identical: same schedule,
     same metrics (the store's iteration order never leaks) *)
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let o1, m1 = Class_search.find_schedule model in
      let o2, m2 = Class_search.find_schedule model in
      check_bool (name ^ " same outcome") true (o1 = o2);
      check_int (name ^ " same stored") m1.Class_search.stored
        m2.Class_search.stored;
      check_int (name ^ " same backtracks") m1.Class_search.backtracks
        m2.Class_search.backtracks)
    (("relations", relations_spec) :: Case_studies.all)

let test_subsume_off_matches_on () =
  (* the escape hatch must not change any verdict *)
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let on = fst (Class_search.find_schedule model) in
      let off = fst (Class_search.find_schedule ~subsume:false model) in
      check_bool (name ^ " verdict unchanged") true
        (Result.is_ok on = Result.is_ok off))
    (("relations", relations_spec) :: Case_studies.all)

let test_cancel_is_prompt () =
  (* a cancel that is already set must stop every engine before its
     first node, forced chains included *)
  let discrete options cancel model =
    match Search.find_schedule ~options ~cancel model with
    | Error Search.Budget_exhausted, m -> m
    | Error Search.Infeasible, _ -> Alcotest.fail "cancel reported infeasible"
    | Ok _, _ -> Alcotest.fail "cancelled search cannot succeed"
  in
  let classes cancel model =
    match Class_search.find_schedule ~cancel model with
    | Error Class_search.Budget_exhausted, m -> m
    | Error f, _ -> Alcotest.fail (Class_search.failure_to_string f)
    | Ok _, _ -> Alcotest.fail "cancelled search cannot succeed"
  in
  let engines =
    [
      ("copying", discrete { Search.default_options with incremental = false });
      ("incremental", discrete Search.default_options);
      ("classes", classes);
    ]
  in
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      List.iter
        (fun (engine, run) ->
          let label what = Printf.sprintf "%s %s %s" name engine what in
          let m = run (fun () -> true) model in
          check_int (label "stored") 0 m.Search.stored;
          check_int (label "visited") 0 m.Search.visited;
          check_int (label "eager") 0 m.Search.eager)
        engines)
    Case_studies.all

let test_subsumption_applicability () =
  (* the translation's priority discipline satisfies the static
     soundness conditions on every case study *)
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      check_bool (name ^ " subsumption applicable") true
        (Class_search.subsumption_applicable model))
    (("relations", relations_spec) :: Case_studies.all)

let prop_subsume_verdict_agreement =
  qcheck ~count:30 "subsumption never changes the verdict" arbitrary_spec
    (fun spec ->
      let model = Translate.translate spec in
      let on = fst (Class_search.find_schedule model) in
      let off = fst (Class_search.find_schedule ~subsume:false model) in
      Result.is_ok on = Result.is_ok off)

(* The greedy realization as it was written on the copying [State.t],
   kept as the oracle of the in-place one.  It also says which test
   rejected a path. *)
type greedy_oracle = Realized of Schedule.t | Disabled | Out_of_domain

let copying_greedy net sequence =
  let rec go s acc = function
    | [] -> Realized (Schedule.of_actions (List.rev acc))
    | tid :: rest ->
      if not (State.is_enabled s tid) then Disabled
      else
        let q = State.dlb net s tid in
        let lo, hi = State.firing_domain net s tid in
        if q < lo || not (Time_interval.bound_le (Time_interval.Finite q) hi)
        then Out_of_domain
        else go (State.fire net s tid q) ((tid, q) :: acc) rest
  in
  go (State.initial net) [] sequence

(* Either realization keeps the class path's transitions in order. *)
let class_path (schedule : Schedule.t) =
  List.map (fun (e : Schedule.entry) -> e.Schedule.tid) schedule.Schedule.entries

(* One step dropped and two neighbouring steps swapped, at five places
   spread along the path. *)
let mutations path =
  let steps = Array.of_list path in
  let n = Array.length steps in
  let at j = j * (n - 1) / 4 in
  let dropped i = List.filteri (fun j _ -> j <> i) path in
  let swapped i =
    let a = Array.copy steps in
    a.(i) <- steps.(i + 1);
    a.(i + 1) <- steps.(i);
    Array.to_list a
  in
  if n < 2 then []
  else
    List.concat_map
      (fun j -> [ dropped (at j); swapped (min (at j) (n - 2)) ])
      [ 0; 1; 2; 3; 4 ]

(* The in-place greedy realization gives the copying one's answer on
   the class path of every case study, corpus spec and 200 generated
   specs, and on mutations of those paths that reach both of its
   rejections. *)
let test_greedy_matches_copying () =
  let generated =
    List.init 200 (fun i ->
        (Printf.sprintf "gen-42-%d" i, Spec_gen.spec_at ~seed:42 i))
  in
  let paths = ref 0 and disabled = ref 0 and out_of_domain = ref 0 in
  let check name net path =
    let expected = copying_greedy net path in
    (match expected with
    | Realized _ -> ()
    | Disabled -> incr disabled
    | Out_of_domain -> incr out_of_domain);
    let ok =
      match (expected, Class_search.extract_greedy net path) with
      | Realized a, Some b -> a = b
      | (Disabled | Out_of_domain), None -> true
      | Realized _, None | (Disabled | Out_of_domain), Some _ -> false
    in
    check_bool (name ^ ": in-place greedy = copying greedy") true ok
  in
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      match fst (Class_search.find_schedule ~max_stored:20_000 model) with
      | Error _ -> ()
      | Ok schedule ->
        incr paths;
        let path = class_path schedule in
        let net = model.Translate.net in
        check name net path;
        List.iteri
          (fun i p -> check (Printf.sprintf "%s mutation %d" name i) net p)
          (mutations path))
    (Case_studies.all @ load_corpus () @ generated);
  check_int "feasible specs with a class path" 82 !paths;
  check_bool "a mutation hits a disabled transition" true (!disabled > 0);
  check_bool "a mutation leaves the firing domain" true (!out_of_domain > 0)

(* mine-pump's class path realizes at the earliest times; greedy-trap's
   needs the exact firing dates. *)
let test_greedy_extraction_pins () =
  let greedy spec =
    let model = Translate.translate spec in
    match fst (Class_search.find_schedule model) with
    | Ok schedule ->
      Class_search.extract_greedy model.Translate.net (class_path schedule)
    | Error f -> Alcotest.fail (Class_search.failure_to_string f)
  in
  check_bool "mine-pump realizes greedily" true
    (greedy Case_studies.mine_pump <> None);
  check_bool "greedy-trap needs the exact dates" true
    (greedy Case_studies.greedy_trap = None)

let suite =
  [
    case "case studies via state classes" test_all_case_studies;
    case "greedy trap needs no flag" test_greedy_trap_without_flags;
    slow_case "fewer nodes than the discrete search"
      test_fewer_nodes_than_discrete;
    case "infeasibility detected" test_infeasible_detected;
    case "budget exhaustion" test_budget;
    case "feasibility agrees with the discrete engine"
      test_agrees_with_discrete_on_feasibility;
    case "independent tasks: engines give one verdict"
      test_independent_verdicts;
    case "subsumption prunes the relations spec" test_subsumption_prunes;
    slow_case "large-tight-8 exhausts by classes" test_large_tight_exhausts;
    case "deterministic metrics and schedules" test_determinism;
    case "subsume off matches on" test_subsume_off_matches_on;
    case "cancel stops at the first class" test_cancel_is_prompt;
    case "subsumption statically applicable" test_subsumption_applicability;
    case "in-place greedy realization matches the copying one"
      test_greedy_matches_copying;
    case "mine-pump greedy, greedy-trap exact" test_greedy_extraction_pins;
    prop_class_schedules_certify;
    prop_discrete_implies_class;
    prop_subsume_verdict_agreement;
  ]
