(** ezRealtime: embedded hard real-time software synthesis.

    One-call pipeline over the underlying libraries (all re-exported
    below): a specification is validated, translated to a time Petri
    net by building-block composition, a feasible pre-runtime schedule
    is found by depth-first search over the net's timed transition
    system, certified by an independent validator, and turned into a
    schedule table plus scheduled C code.

    {[
      let artifact =
        Ezrealtime.synthesize_exn Ezrt_spec.Case_studies.quickstart in
      print_string artifact.Ezrealtime.c_program
    ]} *)

(** {1 Re-exported subsystems} *)

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

module Schedulability = Ezrt_analysis.Schedulability
(** Analytic schedulability verdicts — spec-level quick-reject with
    machine-checkable witnesses and a certified EDF quick-accept
    ([Analysis] above is the TPN reachability module). *)

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
(** Validate → translate → engine → certify, shared by {!synthesize},
    [ezrt schedule] and {!Server.solve}. *)

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

(** Observability (see [docs/OBSERVABILITY.md]): install an
    {!Obs_trace} sink before synthesizing to capture Chrome-trace
    spans of every pipeline phase, dump {!Obs_metrics} counters after
    a run, or install an {!Obs_progress} reporter for a throttled
    status line on stderr.  {!Obs_json} is the JSON codec behind the
    trace, lint reports, the service protocol and cache entries. *)

module Obs_trace = Ezrt_obs.Trace
module Obs_metrics = Ezrt_obs.Metrics
module Obs_progress = Ezrt_obs.Progress
module Obs_json = Ezrt_obs.Json

(** The synthesis service (see [docs/SERVICE.md]): content-addressed
    result caching with re-validation on every hit, and the concurrent
    job server behind [ezrt serve] / [ezrt batch]. *)

module Spec_digest = Ezrt_service.Spec_digest
module Result_cache = Ezrt_service.Cache
module Server = Ezrt_service.Server

(** {1 The synthesis pipeline} *)

type artifact = {
  spec : Spec.t;
  model : Translate.t;  (** the composed time Petri net *)
  schedule : Schedule.t;  (** the feasible firing schedule *)
  segments : Timeline.segment list;
  table : Table.item list;  (** the Fig 8 schedule table *)
  c_program : string;  (** scheduled C for the requested target *)
  metrics : Search.metrics;
}

type error =
  | Invalid_spec of Validate.error list
  | No_schedule of Search.failure * Search.metrics
  | Not_certified of Validator.violation list
      (** the search returned a schedule the independent validator
          rejects — a library bug, surfaced rather than swallowed *)

val error_to_string : error -> string

val synthesize :
  ?search:Search.options ->
  ?cancel:(unit -> bool) ->
  ?target:Target.t ->
  Spec.t ->
  (artifact, error) result
(** [target] defaults to {!Target.hosted}.  [cancel] is the search's
    cancellation hook (polled at every node): when it returns [true]
    the search unwinds and this returns
    [Error (No_schedule (Budget_exhausted, _))] — how [--timeout]
    maps wall-clock deadlines onto the discrete engine. *)

val synthesize_exn :
  ?search:Search.options ->
  ?cancel:(unit -> bool) ->
  ?target:Target.t ->
  Spec.t ->
  artifact

val report : Format.formatter -> artifact -> unit
(** Human-readable synthesis summary: net size, search statistics,
    schedule table. *)

val version : string
