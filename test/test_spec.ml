module Task = Ezrt_spec.Task
module Spec = Ezrt_spec.Spec
module Message = Ezrt_spec.Message
module Case_studies = Ezrt_spec.Case_studies
open Test_util

let test_task_defaults () =
  let t = Task.make ~name:"T" ~wcet:2 ~deadline:5 ~period:10 () in
  check_string "id defaults to name" "T" t.Task.id;
  check_int "phase" 0 t.Task.phase;
  check_int "release" 0 t.Task.release;
  check_bool "mode" true (t.Task.mode = Task.Non_preemptive);
  check_string "processor" "cpu0" t.Task.processor;
  check_bool "no code" true (t.Task.code = None)

let test_scheduling_mode_strings () =
  check_string "NP" "NP" (Task.scheduling_mode_to_string Task.Non_preemptive);
  check_string "P" "P" (Task.scheduling_mode_to_string Task.Preemptive);
  check_bool "parse NP" true
    (Task.scheduling_mode_of_string "NP" = Some Task.Non_preemptive);
  check_bool "parse preemptive" true
    (Task.scheduling_mode_of_string "preemptive" = Some Task.Preemptive);
  check_bool "parse junk" true (Task.scheduling_mode_of_string "x" = None)

let test_instances_in () =
  let t = Task.make ~name:"T" ~wcet:1 ~deadline:5 ~period:80 () in
  check_int "375 instances in 30000" 375 (Task.instances_in t 30000);
  check_int "1 instance in its period" 1 (Task.instances_in t 80)

let test_hyperperiod_mine_pump () =
  check_int "H = 30000" 30000 (Spec.hyperperiod Case_studies.mine_pump);
  check_int "782 instances (section 5)" 782
    (Spec.total_instances Case_studies.mine_pump)

let test_hyperperiod_simple () =
  let tasks =
    [
      Task.make ~name:"a" ~wcet:1 ~deadline:4 ~period:4 ();
      Task.make ~name:"b" ~wcet:1 ~deadline:6 ~period:6 ();
    ]
  in
  check_int "lcm(4,6)" 12 (Spec.hyperperiod (Spec.make ~name:"s" ~tasks ()))

let test_hyperperiod_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Spec.hyperperiod: no tasks")
    (fun () -> ignore (Spec.hyperperiod (Spec.make ~name:"e" ~tasks:[] ())))

let test_utilization () =
  let u = Spec.utilization Case_studies.mine_pump in
  check_bool "mine pump ~0.3045" true (abs_float (u -. 0.3045) < 0.0001)

let test_find_task () =
  let spec = Case_studies.mine_pump in
  check_bool "finds PMC" true (Spec.find_task spec "PMC" <> None);
  check_bool "by name" true
    (List.exists (fun (t : Task.t) -> t.Task.name = "SDL") spec.Spec.tasks);
  check_bool "missing" true (Spec.find_task spec "NOPE" = None);
  check_int "ten distinct ids" 10
    (List.length
       (List.sort_uniq compare
          (List.map (fun (t : Task.t) -> t.Task.id) spec.Spec.tasks)))

let test_exclusion_normalization () =
  let spec =
    Spec.make ~name:"x"
      ~tasks:
        [
          Task.make ~name:"a" ~wcet:1 ~deadline:5 ~period:5 ();
          Task.make ~name:"b" ~wcet:1 ~deadline:5 ~period:5 ();
        ]
      ~exclusions:[ ("b", "a"); ("a", "b") ]
      ()
  in
  check_int "deduplicated" 1 (List.length spec.Spec.exclusions);
  check_bool "normalized" true (List.hd spec.Spec.exclusions = ("a", "b"));
  check_bool "symmetric query" true (Spec.excludes spec "b" "a")

let test_precedes () =
  let spec = Case_studies.fig3_precedence in
  check_bool "T1 precedes T2" true (Spec.precedes spec "T1" "T2");
  check_bool "not reflexive" false (Spec.precedes spec "T2" "T1")

let test_message_defaults () =
  let m = Message.make ~name:"m" ~sender:"a" ~receiver:"b" () in
  check_string "bus" "bus0" m.Message.bus;
  check_int "duration" 1 (Message.duration m);
  let m2 =
    Message.make ~name:"m2" ~sender:"a" ~receiver:"b" ~grant_time:2
      ~comm_time:3 ()
  in
  check_int "duration sums" 5 (Message.duration m2)

let prop_hyperperiod_divisible =
  qcheck "every period divides the hyper-period" arbitrary_spec (fun spec ->
      let h = Spec.hyperperiod spec in
      List.for_all
        (fun (t : Task.t) -> h mod t.Task.period = 0)
        spec.Spec.tasks)

let prop_total_instances =
  qcheck "total instances = sum of H/p" arbitrary_spec (fun spec ->
      let h = Spec.hyperperiod spec in
      Spec.total_instances spec
      = List.fold_left
          (fun acc (t : Task.t) -> acc + (h / t.Task.period))
          0 spec.Spec.tasks)

let suite =
  [
    case "task defaults" test_task_defaults;
    case "scheduling mode strings" test_scheduling_mode_strings;
    case "instances_in" test_instances_in;
    case "mine pump hyper-period and instances" test_hyperperiod_mine_pump;
    case "hyper-period lcm" test_hyperperiod_simple;
    case "empty spec rejected" test_hyperperiod_empty_rejected;
    case "utilization" test_utilization;
    case "find task" test_find_task;
    case "exclusion normalization" test_exclusion_normalization;
    case "precedes" test_precedes;
    case "message defaults" test_message_defaults;
    prop_hyperperiod_divisible;
    prop_total_instances;
  ]
