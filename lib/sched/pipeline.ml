(* Specification → time Petri net → engine → certified verdict.  The
   one place where an engine's answer becomes a verdict, and where
   every schedule is certified before anyone sees it. *)

module Validate = Ezrt_spec.Validate
module Translate = Ezrt_blocks.Translate

type _ engine =
  | Discrete : Search.options -> Search.metrics engine
  | Classes : { subsume : bool; max_stored : int } -> Search.metrics engine
  | Portfolio : { analysis : bool; max_stored : int } -> Portfolio.t engine

type reason = Budget_exhausted | Extraction_failed

type verdict =
  | Certified of { schedule : Schedule.t; segments : Timeline.segment list }
  | Infeasible of Ezrt_analysis.Schedulability.witness option
  | Timed_out
  | Undecided of reason

type 'run t = { model : Translate.t; verdict : verdict; run : 'run }

type error =
  | Invalid_spec of Validate.error list
  | Not_certified of Validator.violation list

let verdict_to_string : type run. run engine -> verdict -> string =
 fun engine verdict ->
  let failure search classes =
    match engine with
    | Classes _ -> Class_search.failure_to_string classes
    | Discrete _ | Portfolio _ -> Search.failure_to_string search
  in
  match verdict with
  | Certified { schedule; _ } ->
    Printf.sprintf "feasible (%d firings)" (Schedule.length schedule)
  | Infeasible (Some w) ->
    "analysis pre-pass decided: infeasible — "
    ^ Ezrt_analysis.Schedulability.witness_to_string w
  | Infeasible None -> failure Search.Infeasible Class_search.Infeasible
  | Timed_out -> "timed out"
  | Undecided Budget_exhausted ->
    failure Search.Budget_exhausted Class_search.Budget_exhausted
  | Undecided Extraction_failed ->
    Class_search.failure_to_string Class_search.Extraction_failed

let error_to_string = function
  | Invalid_spec errors ->
    Printf.sprintf "invalid specification: %s"
      (String.concat "; " (List.map Validate.error_to_string errors))
  | Not_certified violations ->
    Printf.sprintf "schedule failed certification: %s"
      (String.concat "; " (List.map Validator.violation_to_string violations))

let translate spec =
  match (Validate.check spec).Validate.errors with
  | [] -> Ok (Translate.translate spec)
  | errors -> Error (Invalid_spec errors)

(* an engine that gives up while the caller's cancel hook holds was
   cancelled, whatever budget it names *)
let gave_up ~cancel reason = if cancel () then Timed_out else Undecided reason

let search_verdict ~cancel witness = function
  | Search.Infeasible -> Infeasible witness
  | Search.Budget_exhausted -> gave_up ~cancel Budget_exhausted

let run_engine :
    type run.
    run engine -> cancel:(unit -> bool) -> Translate.t ->
    (Schedule.t, verdict) result * run =
 fun engine ~cancel model ->
  match engine with
  | Discrete options ->
    let outcome, metrics = Search.find_schedule ~options ~cancel model in
    (Result.map_error (search_verdict ~cancel None) outcome, metrics)
  | Classes { subsume; max_stored } ->
    let outcome, metrics =
      Class_search.find_schedule ~max_stored ~subsume ~cancel model
    in
    ( Result.map_error
        (function
          | Class_search.Infeasible -> Infeasible None
          | Class_search.Budget_exhausted -> gave_up ~cancel Budget_exhausted
          | Class_search.Extraction_failed ->
            gave_up ~cancel Extraction_failed)
        outcome,
      metrics )
  | Portfolio { analysis; max_stored } ->
    let p = Portfolio.find_schedule ~max_stored ~analysis ~cancel model in
    let witness =
      match p.Portfolio.prepass with
      | Portfolio.Prepass_rejected w -> Some w
      | _ -> None
    in
    (Result.map_error (search_verdict ~cancel witness) p.Portfolio.outcome, p)

let solve ~engine ?(cancel = Search.no_cancel) model =
  match run_engine engine ~cancel model with
  | Error verdict, run -> Ok { model; verdict; run }
  | Ok schedule, run -> (
    match
      Ezrt_obs.Trace.with_span ~cat:"pipeline"
        (fun () ->
          let segments = Timeline.of_schedule model schedule in
          Result.map (fun () -> segments) (Validator.check model segments))
        "certify"
    with
    | Ok segments ->
      Ok { model; verdict = Certified { schedule; segments }; run }
    | Error violations -> Error (Not_certified violations))
