module Sensitivity = Ezrt_sched.Sensitivity
module Task = Ezrt_spec.Task
module Spec = Ezrt_spec.Spec
module Case_studies = Ezrt_spec.Case_studies
open Test_util

let analyze_exn ?limit_factor spec =
  match Sensitivity.analyze ?limit_factor spec with
  | Ok t -> t
  | Error msg -> Alcotest.failf "sensitivity: %s" msg

let test_single_task_margin () =
  (* one task, c=2, d=10, r=0: feasible up to c=10 exactly *)
  let spec =
    Spec.make ~name:"solo"
      ~tasks:[ Task.make ~name:"a" ~wcet:2 ~deadline:10 ~period:10 () ]
      ()
  in
  let t = analyze_exn spec in
  let row = List.hd t.Sensitivity.rows in
  check_int "max wcet is the window" 10 row.Sensitivity.max_wcet;
  check_int "margin" 8 row.Sensitivity.margin

let test_contention_shrinks_margin () =
  let spec =
    Spec.make ~name:"pair"
      ~tasks:
        [
          Task.make ~name:"a" ~wcet:2 ~deadline:10 ~period:10 ();
          Task.make ~name:"b" ~wcet:3 ~deadline:10 ~period:10 ();
        ]
      ()
  in
  let t = analyze_exn spec in
  let margin name =
    (List.find (fun r -> r.Sensitivity.task = name) t.Sensitivity.rows)
      .Sensitivity.max_wcet
  in
  (* both must fit in the same 10-unit window: a can grow to 10-3=7,
     b to 10-2=8 *)
  check_int "a bounded by b" 7 (margin "a");
  check_int "b bounded by a" 8 (margin "b")

let test_quickstart_chain () =
  let t = analyze_exn Case_studies.quickstart in
  (* precedence chain sample -> filter -> actuate with deadlines
     10/16/20 constrains every margin *)
  List.iter
    (fun row ->
      check_bool (row.Sensitivity.task ^ " has nonnegative margin") true
        (row.Sensitivity.margin >= 0);
      check_bool (row.Sensitivity.task ^ " stays below its window") true
        (row.Sensitivity.max_wcet <= 20))
    t.Sensitivity.rows;
  check_bool "binary search was frugal" true (t.Sensitivity.syntheses < 60)

let test_infeasible_rejected () =
  let spec =
    Spec.make ~name:"tight"
      ~tasks:
        [
          Task.make ~name:"a" ~wcet:5 ~deadline:5 ~period:10 ();
          Task.make ~name:"b" ~wcet:5 ~deadline:6 ~period:10 ();
        ]
      ()
  in
  check_bool "not schedulable as given" true
    (Result.is_error (Sensitivity.analyze spec))

let test_invalid_rejected () =
  check_bool "invalid spec" true
    (Result.is_error (Sensitivity.analyze (Spec.make ~name:"e" ~tasks:[] ())))

let test_limit_factor () =
  let spec =
    Spec.make ~name:"solo"
      ~tasks:[ Task.make ~name:"a" ~wcet:1 ~deadline:100 ~period:100 () ]
      ()
  in
  let t = analyze_exn ~limit_factor:4 spec in
  check_int "probe capped at limit_factor * wcet" 4
    (List.hd t.Sensitivity.rows).Sensitivity.max_wcet

let test_pp () =
  let t = analyze_exn Case_studies.quickstart in
  check_bool "renders" true
    (String.length (Format.asprintf "%a" Sensitivity.pp t) > 50)

let test_deadline_margins_solo () =
  (* a lone task's minimum deadline is its WCET *)
  let spec =
    Spec.make ~name:"solo"
      ~tasks:[ Task.make ~name:"a" ~wcet:3 ~deadline:12 ~period:12 () ]
      ()
  in
  match Sensitivity.deadline_margins spec with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
    let row = List.hd t.Sensitivity.d_rows in
    check_int "min deadline = wcet" 3 row.Sensitivity.min_deadline;
    check_int "margin" 9 row.Sensitivity.d_margin

let test_deadline_margins_contention () =
  (* two same-period tasks: one must wait for the other, so one of the
     minimum deadlines includes the other's computation *)
  let spec =
    Spec.make ~name:"pair"
      ~tasks:
        [
          Task.make ~name:"a" ~wcet:2 ~deadline:10 ~period:10 ();
          Task.make ~name:"b" ~wcet:3 ~deadline:10 ~period:10 ();
        ]
      ()
  in
  match Sensitivity.deadline_margins spec with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
    let min_of name =
      (List.find (fun r -> r.Sensitivity.d_task = name) t.Sensitivity.d_rows)
        .Sensitivity.min_deadline
    in
    (* each task alone can go first: its own wcet is achievable *)
    check_int "a can go first" 2 (min_of "a");
    check_int "b can go first" 3 (min_of "b")

let test_deadline_margins_chain () =
  (* the precedence chain forces actuate's response to include the
     whole pipeline: sample(2) + filter(4) + actuate(3) = 9 *)
  match Sensitivity.deadline_margins Case_studies.quickstart with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
    let min_of name =
      (List.find (fun r -> r.Sensitivity.d_task = name) t.Sensitivity.d_rows)
        .Sensitivity.min_deadline
    in
    check_int "sample" 2 (min_of "sample");
    check_int "filter (after sample)" 6 (min_of "filter");
    check_int "actuate (whole chain)" 9 (min_of "actuate")

let test_deadline_margins_rejects () =
  check_bool "invalid rejected" true
    (Result.is_error
       (Sensitivity.deadline_margins (Spec.make ~name:"e" ~tasks:[] ())))

let test_pp_deadlines () =
  match Sensitivity.deadline_margins Case_studies.quickstart with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
    check_bool "renders" true
      (String.length (Format.asprintf "%a" Sensitivity.pp_deadlines t) > 40)

let suite =
  [
    case "deadline margins: solo task" test_deadline_margins_solo;
    case "deadline margins: contention" test_deadline_margins_contention;
    case "deadline margins: precedence chain" test_deadline_margins_chain;
    case "deadline margins: invalid rejected" test_deadline_margins_rejects;
    case "deadline report renders" test_pp_deadlines;
    case "single-task margin" test_single_task_margin;
    case "contention shrinks margins" test_contention_shrinks_margin;
    case "quickstart precedence chain" test_quickstart_chain;
    case "unschedulable input rejected" test_infeasible_rejected;
    case "invalid input rejected" test_invalid_rejected;
    case "limit factor caps probing" test_limit_factor;
    case "report renders" test_pp;
  ]
