(* Parallel portfolio search: the winner must certify, sequential mode
   must be deterministic, infeasibility needs every config's vote, and
   the default config list depends on the model alone. *)

module Translate = Ezrt_blocks.Translate
module Search = Ezrt_sched.Search
module Schedule = Ezrt_sched.Schedule
module Timeline = Ezrt_sched.Timeline
module Validator = Ezrt_sched.Validator
module Priority = Ezrt_sched.Priority
module Portfolio = Ezrt_sched.Portfolio
module Task = Ezrt_spec.Task
module Spec = Ezrt_spec.Spec
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
    check_bool "has a winner" true (result.Portfolio.winner <> None);
    check_bool "used at least one domain" true
      (result.Portfolio.domains_used >= 1)
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
   and certify a schedule whichever config gets there first *)
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
  let run () = Portfolio.find_schedule ~domains:1 model in
  let a = run () and b = run () in
  match (a.Portfolio.outcome, b.Portfolio.outcome) with
  | Ok s1, Ok s2 ->
    check_bool "same schedule on both runs" true
      (s1.Schedule.entries = s2.Schedule.entries);
    check_bool "same winner" true (a.Portfolio.winner = b.Portfolio.winner);
    (* sequentially, the race stops at the first feasible config *)
    check_bool "winner is the first attempt" true
      (match a.Portfolio.attempts with
      | first :: _ -> Result.is_ok first.Portfolio.outcome
      | [] -> false)
  | _ -> Alcotest.fail "sequential portfolio should be feasible"

let unschedulable_pair =
  Spec.make ~name:"tight"
    ~tasks:
      [
        Task.make ~name:"a" ~wcet:5 ~deadline:5 ~period:10 ();
        Task.make ~name:"b" ~wcet:5 ~deadline:6 ~period:10 ();
      ]
    ()

let test_infeasible_unanimous () =
  let model = Translate.translate unschedulable_pair in
  (* analysis off: this test is about the race's unanimity requirement,
     and the pre-pass would demand-reject this spec before any config
     starts (covered by the prepass tests below) *)
  let result = Portfolio.find_schedule ~analysis:false model in
  (match result.Portfolio.outcome with
  | Error Search.Infeasible -> ()
  | Error Search.Budget_exhausted -> Alcotest.fail "expected a full verdict"
  | Ok _ -> Alcotest.fail "unschedulable pair got a schedule");
  check_bool "no winner" true (result.Portfolio.winner = None);
  check_bool "prepass off" true (result.Portfolio.prepass = Portfolio.Prepass_off);
  (* infeasibility is a proof: every config must have voted *)
  check_int "all configs finished"
    (List.length (Portfolio.default_configs model))
    (List.length result.Portfolio.attempts)

(* the same spec with the pre-pass on: the demand-bound witness decides
   the race before any configuration starts *)
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
  check_int "no config started" 0 result.Portfolio.configs_started;
  check_bool "no attempts" true (result.Portfolio.attempts = [])

(* an independent preemptive set inside the analytic fragment: the EDF
   quick-accept decides with a certified schedule and no search *)
let test_prepass_accepts () =
  let spec = List.assoc "fig8" Case_studies.all in
  let model = Translate.translate spec in
  let result = Portfolio.find_schedule model in
  check_bool "accepted" true
    (result.Portfolio.prepass = Portfolio.Prepass_accepted);
  check_bool "no winner config" true (result.Portfolio.winner = None);
  check_int "no config started" 0 result.Portfolio.configs_started;
  match result.Portfolio.outcome with
  | Ok schedule -> certify "prepass fig8" model schedule
  | Error f -> Alcotest.failf "fig8 prepass: %s" (Search.failure_to_string f)

(* --no-analysis: the same spec must race and still find a schedule *)
let test_no_analysis_races () =
  let spec = List.assoc "fig8" Case_studies.all in
  let model = Translate.translate spec in
  let result = Portfolio.find_schedule ~analysis:false ~domains:1 model in
  check_bool "prepass off" true
    (result.Portfolio.prepass = Portfolio.Prepass_off);
  match result.Portfolio.outcome with
  | Ok schedule ->
    certify "no-analysis fig8" model schedule;
    check_bool "race names a winner" true (result.Portfolio.winner <> None)
  | Error f -> Alcotest.failf "fig8 race: %s" (Search.failure_to_string f)

let test_custom_configs () =
  let model = Translate.translate Case_studies.quickstart in
  let configs =
    [
      {
        Portfolio.engine = Portfolio.Discrete;
        policy = Priority.Edf;
        latest_release = false;
      };
    ]
  in
  let result = Portfolio.find_schedule ~configs model in
  match result.Portfolio.outcome with
  | Ok schedule ->
    (* a single-config portfolio must agree with the plain search *)
    let direct, _ = Search.find_schedule model in
    (match direct with
    | Ok s ->
      check_bool "matches direct search" true
        (s.Schedule.entries = schedule.Schedule.entries)
    | Error _ -> Alcotest.fail "direct search disagrees")
  | Error f -> Alcotest.failf "quickstart: %s" (Search.failure_to_string f)

(* The default race is a pure function of the model: the same configs
   in the same order on every host, whatever its domain count.  The
   latest-release members appear only when some release window is
   wider than a point — as on mine-pump, and not on a set of
   zero-laxity tasks. *)
let test_default_configs_pinned () =
  let names spec =
    List.map Portfolio.config_to_string
      (Portfolio.default_configs (Translate.translate spec))
  in
  let base =
    [ "discrete/fifo"; "discrete/edf"; "discrete/rm"; "discrete/dm";
      "discrete/continuity" ]
  in
  Alcotest.(check (list string))
    "mine-pump"
    (base
    @ [ "discrete/edf+latest-release"; "discrete/continuity+latest-release";
        "classes" ])
    (names Case_studies.mine_pump);
  let zero_laxity =
    Spec.make ~name:"zero-laxity"
      ~tasks:
        [
          Task.make ~name:"a" ~wcet:2 ~deadline:2 ~period:10 ();
          Task.make ~name:"b" ~wcet:3 ~deadline:3 ~period:10 ();
        ]
      ()
  in
  Alcotest.(check (list string))
    "zero-laxity" (base @ [ "classes" ]) (names zero_laxity)

let suite =
  [
    case "mine-pump: portfolio wins and certifies" test_mine_pump_wins;
    slow_case "all case studies certify" test_all_case_studies;
    case "greedy-trap certifies" test_greedy_trap;
    case "sequential mode is deterministic" test_sequential_deterministic;
    case "infeasible needs a unanimous verdict" test_infeasible_unanimous;
    case "prepass quick-reject decides without a race" test_prepass_rejects;
    case "prepass quick-accept certifies without a race" test_prepass_accepts;
    case "no-analysis escape hatch races" test_no_analysis_races;
    case "custom single-config portfolio" test_custom_configs;
    case "default configs are pinned" test_default_configs_pinned;
  ]
