(* Whole-pipeline matrix: every case study through both search engines,
   with every verification stage applied — the end-to-end contract in
   one parametric test per (spec, engine) pair. *)

open Ezrealtime
open Test_util

let stages name model schedule =
  (* 1. semantic replay *)
  let final = Schedule.replay model.Translate.net schedule in
  check_bool (name ^ ": replay reaches MF") true (Translate.is_final model final);
  (* 2. independent validation *)
  let segments = Timeline.of_schedule model schedule in
  (match Validator.check model segments with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "%s: %s" name (Validator.violation_to_string (List.hd vs)));
  (* 3. table/segment consistency *)
  let table = Table.of_segments segments in
  check_int (name ^ ": one row per segment") (List.length segments)
    (List.length table);
  (* 4. virtual-machine execution *)
  let outcome = Vm.execute ~overhead:0 model table in
  check_bool (name ^ ": vm reproduces the plan") true
    (outcome.Vm.segments = segments);
  check_int (name ^ ": no overruns") 0 outcome.Vm.overruns;
  (* 5. quality metrics are internally consistent *)
  let q = Quality.of_timeline model segments in
  check_int (name ^ ": busy time agrees") (Timeline.busy_time segments)
    q.Quality.busy;
  check_int
    (name ^ ": completed instances")
    (Array.fold_left ( + ) 0 model.Translate.instance_counts)
    outcome.Vm.completed;
  (* 6. schedule fits the cycle (the watchdog guarantees it) *)
  check_bool (name ^ ": fits the hyper-period") true
    (q.Quality.makespan <= model.Translate.horizon);
  (* 7. code generation succeeds in both layouts for every target *)
  List.iter
    (fun (tname, target) ->
      let program = Emit.program ~target model table in
      check_bool (name ^ "/" ^ tname ^ ": emits") true
        (String.length program > 400))
    Target.all

let engine_discrete model =
  match Search.find_schedule model with
  | Ok schedule, _ -> Some schedule
  | Error _, _ -> None

let engine_classes model =
  match Class_search.find_schedule model with
  | Ok schedule, _ -> Some schedule
  | Error _, _ -> None

let matrix_case (engine_name, engine) (spec_name, spec) () =
  let model = Translate.translate spec in
  match engine model with
  | Some schedule -> stages (spec_name ^ "/" ^ engine_name) model schedule
  | None -> Alcotest.failf "%s/%s: infeasible" spec_name engine_name

(* Verdicts without a schedule: a tiny budget stops every engine with
   the typed [Budget_exhausted] reason, worded as each engine words it,
   and a cancel hook that always holds turns the same stop into
   [Timed_out]. *)
let test_budget_and_cancel () =
  let model = Translate.translate Case_studies.mine_pump in
  let check_engine :
      type r. string -> r Pipeline.engine -> string -> unit =
   fun name engine text ->
    (match Pipeline.solve ~engine model with
    | Ok { verdict = Undecided Budget_exhausted as v; _ } ->
      check_string (name ^ ": engine's own words") text
        (Pipeline.verdict_to_string engine v)
    | Ok { verdict; _ } ->
      Alcotest.failf "%s: %s, not a budget stop" name
        (Pipeline.verdict_to_string engine verdict)
    | Error e -> Alcotest.fail (Pipeline.error_to_string e));
    match Pipeline.solve ~engine ~cancel:(fun () -> true) model with
    | Ok { verdict = Timed_out; _ } -> ()
    | Ok { verdict; _ } ->
      Alcotest.failf "%s cancelled: %s, not timed out" name
        (Pipeline.verdict_to_string engine verdict)
    | Error e -> Alcotest.fail (Pipeline.error_to_string e)
  in
  check_engine "discrete"
    (Pipeline.Discrete { Search.default_options with max_stored = 2 })
    "stored-state budget exhausted";
  check_engine "classes"
    (Pipeline.Classes { subsume = true; max_stored = 2 })
    "stored-class budget exhausted";
  check_engine "portfolio"
    (Pipeline.Portfolio { analysis = true; max_stored = 2 })
    "stored-state budget exhausted"

let suite =
  case "budget and cancel verdicts" test_budget_and_cancel
  :: List.concat_map
    (fun ((engine_name, _) as engine) ->
      List.map
        (fun ((spec_name, _) as spec) ->
          let kind =
            (* the mine pump through the class engine takes seconds *)
            if spec_name = "mine-pump" then slow_case else case
          in
          kind
            (Printf.sprintf "%s via %s" spec_name engine_name)
            (matrix_case engine spec))
        Case_studies.all)
    [ ("discrete", engine_discrete); ("classes", engine_classes) ]
