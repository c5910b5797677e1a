(* The portfolio chain (pre-pass, discrete/fifo, classes): the winner
   must certify, runs are deterministic, the members run in a pinned
   order, and the class member's exhaustion alone proves
   infeasibility. *)

module Translate = Ezrt_blocks.Translate
module Search = Ezrt_sched.Search
module Schedule = Ezrt_sched.Schedule
module Timeline = Ezrt_sched.Timeline
module Validator = Ezrt_sched.Validator
module Priority = Ezrt_sched.Priority
module Portfolio = Ezrt_sched.Portfolio
module Task = Ezrt_spec.Task
module Spec = Ezrt_spec.Spec
module Dsl = Ezrt_spec.Dsl
module Case_studies = Ezrt_spec.Case_studies
open Test_util

let certify name model schedule =
  let final = Schedule.replay model.Translate.net schedule in
  check_bool (name ^ " replay reaches MF") true (Translate.is_final model final);
  match Validator.check model (Timeline.of_schedule model schedule) with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "%s: %s" name (Validator.violation_to_string (List.hd vs))

let test_mine_pump_wins () =
  let model = Translate.translate Case_studies.mine_pump in
  let result = Portfolio.find_schedule model in
  match result.Portfolio.outcome with
  | Ok schedule ->
    certify "portfolio mine-pump" model schedule;
    check_bool "has a winner" true (result.Portfolio.winner <> None)
  | Error f -> Alcotest.failf "mine-pump: %s" (Search.failure_to_string f)

let test_all_case_studies () =
  List.iter
    (fun (name, spec) ->
      if name <> "greedy-trap" then begin
        let model = Translate.translate spec in
        match (Portfolio.find_schedule model).Portfolio.outcome with
        | Ok schedule -> certify name model schedule
        | Error f -> Alcotest.failf "%s: %s" name (Search.failure_to_string f)
      end)
    Case_studies.all

(* greedy-trap needs idle time at t=0; the portfolio must still find
   and certify a schedule *)
let test_greedy_trap () =
  let model = Translate.translate Case_studies.greedy_trap in
  let result = Portfolio.find_schedule model in
  match result.Portfolio.outcome with
  | Ok schedule ->
    certify "greedy-trap" model schedule;
    check_bool "feasible outcome names a winner" true
      (result.Portfolio.winner <> None)
  | Error f -> Alcotest.failf "greedy-trap: %s" (Search.failure_to_string f)

let test_sequential_deterministic () =
  let model = Translate.translate Case_studies.mine_pump in
  let run () = Portfolio.find_schedule model in
  let a = run () and b = run () in
  match (a.Portfolio.outcome, b.Portfolio.outcome) with
  | Ok s1, Ok s2 ->
    check_bool "same schedule on both runs" true
      (s1.Schedule.entries = s2.Schedule.entries);
    check_bool "same winner" true (a.Portfolio.winner = b.Portfolio.winner);
    (* the chain stops at the first feasible member *)
    check_bool "winner is the first attempt" true
      (match a.Portfolio.attempts with
      | first :: _ -> Result.is_ok first.Portfolio.outcome
      | [] -> false)
  | _ -> Alcotest.fail "the portfolio should be feasible"

let unschedulable_pair =
  Spec.make ~name:"tight"
    ~tasks:
      [
        Task.make ~name:"a" ~wcet:5 ~deadline:5 ~period:10 ();
        Task.make ~name:"b" ~wcet:5 ~deadline:6 ~period:10 ();
      ]
    ()

(* the member list is fixed, the same for every spec: discrete/fifo
   then classes *)
let test_default_configs_pinned () =
  let expected = [ "discrete/fifo"; "classes" ] in
  Alcotest.(check (list string))
    "members" expected
    (List.map Portfolio.config_to_string Portfolio.members);
  let model = Translate.translate unschedulable_pair in
  let result = Portfolio.find_schedule ~analysis:false model in
  Alcotest.(check (list string))
    "attempt order" expected
    (List.map
       (fun (a : Portfolio.attempt) -> Portfolio.config_to_string a.config)
       result.Portfolio.attempts)

(* with an ample budget both members exhaust on an unschedulable spec,
   so the Infeasible verdict is unanimous; the class member's vote is
   the one that decides (see the budget test below) *)
let test_infeasible_unanimous () =
  let model = Translate.translate unschedulable_pair in
  (* analysis off: the pre-pass would demand-reject this spec before
     any member starts (covered by the prepass tests below) *)
  let result = Portfolio.find_schedule ~analysis:false model in
  (match result.Portfolio.outcome with
  | Error Search.Infeasible -> ()
  | Error Search.Budget_exhausted -> Alcotest.fail "expected a full verdict"
  | Ok _ -> Alcotest.fail "unschedulable pair got a schedule");
  check_bool "no winner" true (result.Portfolio.winner = None);
  check_bool "prepass off" true (result.Portfolio.prepass = Portfolio.Prepass_off);
  check_int "every member finished"
    (List.length Portfolio.members)
    (List.length result.Portfolio.attempts);
  List.iter
    (fun (a : Portfolio.attempt) ->
      check_bool
        (Portfolio.config_to_string a.config ^ " voted Infeasible")
        true
        (a.outcome = Error Search.Infeasible))
    result.Portfolio.attempts

(* Under a budget of 28 stored nodes, discrete/fifo gives up on the
   infeasible corpus spec (it needs 32) while the class engine proves
   it (25): the class member's exhaustion alone decides. *)
let test_class_exhaustion_decides () =
  let spec =
    match Dsl.load_file (Filename.concat "corpus" "infeasible.xml") with
    | Ok spec -> spec
    | Error e -> Alcotest.fail (Dsl.error_to_string e)
  in
  let model = Translate.translate spec in
  let result = Portfolio.find_schedule ~analysis:false ~max_stored:28 model in
  (match result.Portfolio.outcome with
  | Error Search.Infeasible -> ()
  | Error Search.Budget_exhausted ->
    Alcotest.fail "class exhaustion is a proof"
  | Ok _ -> Alcotest.fail "infeasible spec got a schedule");
  match result.Portfolio.attempts with
  | [ fifo; classes ] ->
    check_bool "discrete/fifo ran out of budget" true
      (fifo.Portfolio.outcome = Error Search.Budget_exhausted);
    check_bool "classes proved infeasibility" true
      (classes.Portfolio.outcome = Error Search.Infeasible)
  | _ -> Alcotest.fail "expected both members to run"

(* the same spec with the pre-pass on: the demand-bound witness decides
   before any member starts *)
let test_prepass_rejects () =
  let model = Translate.translate unschedulable_pair in
  let result = Portfolio.find_schedule model in
  (match result.Portfolio.outcome with
  | Error Search.Infeasible -> ()
  | Error Search.Budget_exhausted | Ok _ ->
    Alcotest.fail "prepass should prove infeasibility");
  (match result.Portfolio.prepass with
  | Portfolio.Prepass_rejected w ->
    check_bool "witness re-evaluates to true" true
      (Ezrt_analysis.Schedulability.witness_holds unschedulable_pair w)
  | p -> Alcotest.failf "expected a rejection, got %s"
           (Portfolio.prepass_to_string p));
  check_int "no member started" 0 result.Portfolio.configs_started;
  check_bool "no attempts" true (result.Portfolio.attempts = [])

(* an independent preemptive set inside the analytic fragment: the EDF
   quick-accept decides with a certified schedule and no search *)
let test_prepass_accepts () =
  let spec = List.assoc "fig8" Case_studies.all in
  let model = Translate.translate spec in
  let result = Portfolio.find_schedule model in
  check_bool "accepted" true
    (result.Portfolio.prepass = Portfolio.Prepass_accepted);
  check_bool "no winner member" true (result.Portfolio.winner = None);
  check_int "no member started" 0 result.Portfolio.configs_started;
  match result.Portfolio.outcome with
  | Ok schedule -> certify "prepass fig8" model schedule
  | Error f -> Alcotest.failf "fig8 prepass: %s" (Search.failure_to_string f)

(* --no-analysis: the same spec must search and still find a schedule *)
let test_no_analysis_races () =
  let spec = List.assoc "fig8" Case_studies.all in
  let model = Translate.translate spec in
  let result = Portfolio.find_schedule ~analysis:false model in
  check_bool "prepass off" true
    (result.Portfolio.prepass = Portfolio.Prepass_off);
  match result.Portfolio.outcome with
  | Ok schedule ->
    certify "no-analysis fig8" model schedule;
    check_bool "a member wins" true (result.Portfolio.winner <> None)
  | Error f -> Alcotest.failf "fig8 search: %s" (Search.failure_to_string f)

(* the discrete member is the plain search under FIFO ordering *)
let test_fifo_member_matches_search () =
  let model = Translate.translate Case_studies.quickstart in
  let result = Portfolio.find_schedule ~analysis:false model in
  check_bool "discrete/fifo wins" true
    (result.Portfolio.winner = Some Portfolio.Discrete);
  let options = { Search.default_options with policy = Priority.Fifo } in
  let direct, _ = Search.find_schedule ~options model in
  match (result.Portfolio.outcome, direct) with
  | Ok schedule, Ok direct ->
    check_bool "matches the FIFO search" true
      (direct.Schedule.entries = schedule.Schedule.entries)
  | _ -> Alcotest.fail "quickstart should be feasible"

let suite =
  [
    case "mine-pump: portfolio wins and certifies" test_mine_pump_wins;
    slow_case "all case studies certify" test_all_case_studies;
    case "greedy-trap certifies" test_greedy_trap;
    case "sequential mode is deterministic" test_sequential_deterministic;
    case "infeasible needs a unanimous verdict" test_infeasible_unanimous;
    case "class exhaustion proves infeasibility" test_class_exhaustion_decides;
    case "prepass quick-reject decides without a race" test_prepass_rejects;
    case "prepass quick-accept certifies without a race" test_prepass_accepts;
    case "no-analysis escape hatch races" test_no_analysis_races;
    case "fifo member matches the FIFO search" test_fifo_member_matches_search;
    case "default configs are pinned" test_default_configs_pinned;
  ]
