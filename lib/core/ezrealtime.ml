module Xml = Ezrt_xml.Doc
module Xml_parser = Ezrt_xml.Parser
module Interval = Ezrt_tpn.Time_interval
module Pnet = Ezrt_tpn.Pnet
module State = Ezrt_tpn.State
module Packed_state = Ezrt_tpn.Packed_state
module Tlts = Ezrt_tpn.Tlts
module Analysis = Ezrt_tpn.Analysis
module Invariants = Ezrt_tpn.Invariants
module Dbm = Ezrt_tpn.Dbm
module State_class = Ezrt_tpn.State_class
module Dot = Ezrt_tpn.Dot
module Tina = Ezrt_tpn.Tina
module Query = Ezrt_tpn.Query
module Task = Ezrt_spec.Task
module Processor = Ezrt_spec.Processor
module Message = Ezrt_spec.Message
module Spec = Ezrt_spec.Spec
module Validate = Ezrt_spec.Validate
module Dsl = Ezrt_spec.Dsl
module Stats = Ezrt_spec.Stats
module Case_studies = Ezrt_spec.Case_studies
module Pnml = Ezrt_pnml.Pnml
module Blocks = Ezrt_blocks.Blocks
module Relations = Ezrt_blocks.Relations
module Meaning = Ezrt_blocks.Meaning
module Translate = Ezrt_blocks.Translate
module Lint = Ezrt_lint.Lint

(* [Analysis] is taken by the TPN-level reachability module above *)
module Schedulability = Ezrt_analysis.Schedulability
module Priority = Ezrt_sched.Priority
module Search = Ezrt_sched.Search
module Schedule = Ezrt_sched.Schedule
module Timeline = Ezrt_sched.Timeline
module Table = Ezrt_sched.Table
module Validator = Ezrt_sched.Validator
module Chart = Ezrt_sched.Chart
module Quality = Ezrt_sched.Quality
module Sensitivity = Ezrt_sched.Sensitivity
module Vcd = Ezrt_sched.Vcd
module Class_search = Ezrt_sched.Class_search
module Portfolio = Ezrt_sched.Portfolio
module Pipeline = Ezrt_sched.Pipeline
module Class_store = Ezrt_tpn.Class_store
module Target = Ezrt_codegen.Target
module Emit = Ezrt_codegen.Emit
module Vm = Ezrt_runtime.Vm
module Baseline_sim = Ezrt_baseline.Sim
module Baseline_compare = Ezrt_baseline.Compare
module Rta = Ezrt_baseline.Rta
module Rng = Ezrt_gen.Rng
module Spec_gen = Ezrt_gen.Spec_gen
module Differ = Ezrt_gen.Differ
module Shrink = Ezrt_gen.Shrink
module Fuzz = Ezrt_gen.Fuzz
module Obs_trace = Ezrt_obs.Trace
module Obs_metrics = Ezrt_obs.Metrics
module Obs_progress = Ezrt_obs.Progress
module Obs_json = Ezrt_obs.Json
module Spec_digest = Ezrt_service.Spec_digest
module Result_cache = Ezrt_service.Cache
module Server = Ezrt_service.Server

type artifact = {
  spec : Spec.t;
  model : Translate.t;
  schedule : Schedule.t;
  segments : Timeline.segment list;
  table : Table.item list;
  c_program : string;
  metrics : Search.metrics;
}

type error =
  | Invalid_spec of Validate.error list
  | No_schedule of Search.failure * Search.metrics
  | Not_certified of Validator.violation list

let error_to_string = function
  | Invalid_spec errors ->
    Pipeline.error_to_string (Pipeline.Invalid_spec errors)
  | No_schedule (f, m) ->
    Printf.sprintf "no schedule: %s (after %d states, %.1f ms)"
      (Search.failure_to_string f) m.Search.stored
      (m.Search.elapsed_s *. 1000.)
  | Not_certified violations ->
    Pipeline.error_to_string (Pipeline.Not_certified violations)

let version = "1.0.0"

let synthesize ?(search = Search.default_options) ?cancel
    ?(target = Target.hosted) spec =
  Obs_trace.with_span ~cat:"synthesize"
    ~args:[ ("spec", Obs_trace.Str spec.Spec.name) ]
    (fun () ->
      match
        Result.bind (Pipeline.translate spec)
          (Pipeline.solve ~engine:(Pipeline.Discrete search) ?cancel)
      with
      | Error (Pipeline.Invalid_spec errors) -> Error (Invalid_spec errors)
      | Error (Pipeline.Not_certified violations) ->
        Error (Not_certified violations)
      | Ok { verdict = Certified { schedule; segments }; model; run = metrics }
        ->
        let table = Table.of_segments segments in
        let c_program = Emit.program ~target model table in
        Ok { spec; model; schedule; segments; table; c_program; metrics }
      | Ok { verdict = Infeasible _; run = metrics; _ } ->
        Error (No_schedule (Search.Infeasible, metrics))
      | Ok { verdict = Timed_out | Undecided _; run = metrics; _ } ->
        Error (No_schedule (Search.Budget_exhausted, metrics)))
    "synthesize"

let synthesize_exn ?search ?cancel ?target spec =
  match synthesize ?search ?cancel ?target spec with
  | Ok artifact -> artifact
  | Error e -> failwith (error_to_string e)

let report fmt artifact =
  let model = artifact.model in
  Format.fprintf fmt "specification : %a@." Spec.pp artifact.spec;
  Format.fprintf fmt "net           : %a@." Pnet.pp_summary model.Translate.net;
  Format.fprintf fmt
    "search        : %d states stored (%d visited, %d pruned eagerly), %d \
     backtracks, %.1f ms@."
    artifact.metrics.Search.stored artifact.metrics.Search.visited
    artifact.metrics.Search.eager artifact.metrics.Search.backtracks
    (artifact.metrics.Search.elapsed_s *. 1000.);
  Format.fprintf fmt "schedule      : %d firings, makespan %d, %d table rows@."
    (Schedule.length artifact.schedule)
    (Schedule.makespan artifact.schedule)
    (List.length artifact.table);
  Format.fprintf fmt "schedule table:@.%a" (Table.pp model) artifact.table
