open Ezrealtime
open Test_util

let test_synthesize_case_studies () =
  List.iter
    (fun (name, spec) ->
      if name <> "greedy-trap" then begin
        match synthesize spec with
        | Ok artifact ->
          check_bool (name ^ " schedule nonempty") true
            (Schedule.length artifact.schedule > 0);
          check_bool (name ^ " c program") true
            (String.length artifact.c_program > 500);
          check_bool (name ^ " table matches segments") true
            (List.length artifact.table = List.length artifact.segments)
        | Error e -> Alcotest.failf "%s: %s" name (error_to_string e)
      end)
    Case_studies.all

let test_invalid_spec_error () =
  match synthesize (Spec.make ~name:"e" ~tasks:[] ()) with
  | Error (Invalid_spec _) -> ()
  | Error _ -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "expected failure"

let test_infeasible_error () =
  let spec =
    Spec.make ~name:"tight"
      ~tasks:
        [
          Task.make ~name:"a" ~wcet:5 ~deadline:5 ~period:10 ();
          Task.make ~name:"b" ~wcet:5 ~deadline:6 ~period:10 ();
        ]
      ()
  in
  match synthesize spec with
  | Error (No_schedule (Search.Infeasible, metrics)) ->
    check_bool "metrics carried" true (metrics.Search.stored > 0)
  | Error e -> Alcotest.failf "wrong error: %s" (error_to_string e)
  | Ok _ -> Alcotest.fail "expected failure"

let test_search_options_pass_through () =
  let search = { Search.default_options with latest_release = true } in
  match synthesize ~search Case_studies.greedy_trap with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "greedy trap: %s" (error_to_string e)

let test_target_pass_through () =
  match synthesize ~target:Target.arm9 Case_studies.quickstart with
  | Ok artifact ->
    check_bool "arm9 code" true
      (String.length artifact.c_program > 0
       &&
       let rec contains i =
         i + 4 <= String.length artifact.c_program
         && (String.sub artifact.c_program i 4 = "arm9" || contains (i + 1))
       in
       contains 0)
  | Error e -> Alcotest.failf "%s" (error_to_string e)

let test_synthesize_exn () =
  let artifact = synthesize_exn Case_studies.quickstart in
  check_bool "ok" true (Schedule.length artifact.schedule > 0);
  Alcotest.check_raises "raises on bad spec"
    (Failure "invalid specification: specification has no tasks") (fun () ->
      ignore (synthesize_exn (Spec.make ~name:"e" ~tasks:[] ())))

let test_report_renders () =
  let artifact = synthesize_exn Case_studies.fig8_preemptive in
  let s = Format.asprintf "%a" report artifact in
  List.iter
    (fun needle ->
      let rec contains i =
        i + String.length needle <= String.length s
        && (String.sub s i (String.length needle) = needle || contains (i + 1))
      in
      check_bool needle true (contains 0))
    [ "specification"; "search"; "schedule table"; "preempts" ]

let test_error_strings () =
  let strings =
    [
      error_to_string (Invalid_spec [ Validate.No_tasks ]);
      error_to_string
        (No_schedule
           ( Search.Infeasible,
             {
               Search.stored = 1; visited = 1; eager = 0; backtracks = 1;
               subsumed = 0; max_depth = 1; elapsed_s = 0.1; por_reduced = 0;
               por_fallback = 0; por_skipped = 0;
             } ));
      error_to_string (Not_certified []);
    ]
  in
  List.iter (fun s -> check_bool "non-empty" true (String.length s > 0)) strings

let prop_synthesize_total =
  qcheck ~count:40 "synthesize never raises on generated specs"
    arbitrary_spec (fun spec ->
      match synthesize spec with Ok _ | Error _ -> true)

let suite =
  [
    case "case studies synthesize" test_synthesize_case_studies;
    case "invalid spec error" test_invalid_spec_error;
    case "infeasible error" test_infeasible_error;
    case "search options pass through" test_search_options_pass_through;
    case "target pass through" test_target_pass_through;
    case "synthesize_exn" test_synthesize_exn;
    case "report renders" test_report_renders;
    case "error strings" test_error_strings;
    prop_synthesize_total;
  ]
