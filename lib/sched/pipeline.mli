(** The synthesis pipeline from a specification to a certified verdict:
    validate, translate to a time Petri net, run the engine the caller
    picks, and certify every schedule with {!Validator.check}.

    [ezrt schedule] (every [--engine]), [Ezrealtime.synthesize], the
    service's [Server.solve], the differential fuzzer's search rows and
    the bench harness all go through it, so a schedule reaches a user,
    a C program, the result cache or a cross-check only after
    certification.
    The service runs {!translate} and {!solve} apart to consult its
    cache on the translated model in between. *)

(** Which engine {!solve} runs; the type parameter is the engine's own
    record of its run. *)
type _ engine =
  | Discrete : Search.options -> Search.metrics engine
      (** {!Search.find_schedule}; the options carry the budget *)
  | Classes : { subsume : bool; max_stored : int } -> Search.metrics engine
      (** {!Class_search.find_schedule} *)
  | Portfolio : { analysis : bool; max_stored : int } -> Portfolio.t engine
      (** {!Portfolio.find_schedule}: the analytic pre-pass (unless
          [analysis] is false), then its members *)

(** Why an engine gave up without a verdict of its own. *)
type reason =
  | Budget_exhausted  (** its stored-state or stored-class budget ran out *)
  | Extraction_failed
      (** the class engine found a class path it could not realize at
          integer times *)

type verdict =
  | Certified of { schedule : Schedule.t; segments : Timeline.segment list }
      (** the engine's schedule and the timeline that passed
          {!Validator.check} *)
  | Infeasible of Ezrt_analysis.Schedulability.witness option
      (** proved infeasible: by the portfolio's analytic pre-pass, with
          its witness, or by an engine's exhaustive search, with none *)
  | Timed_out  (** the engine gave up and [cancel ()] holds *)
  | Undecided of reason  (** the engine gave up on its own *)

type 'run t = {
  model : Ezrt_blocks.Translate.t;
  verdict : verdict;
  run : 'run;
}

type error =
  | Invalid_spec of Ezrt_spec.Validate.error list
  | Not_certified of Validator.violation list
      (** an engine returned a schedule the independent validator
          rejects: a library bug, surfaced rather than reported as
          feasible *)

val verdict_to_string : 'run engine -> verdict -> string
(** The verdict in the engine's own words: a verdict without a schedule
    reads as the engine's failure text ({!Search.failure_to_string} or
    {!Class_search.failure_to_string}), or as the pre-pass's witness;
    [Certified] reads ["feasible (N firings)"]. *)

val error_to_string : error -> string

val translate : Ezrt_spec.Spec.t -> (Ezrt_blocks.Translate.t, error) result
(** Validate, then translate: [Error (Invalid_spec _)] on an invalid
    specification, which {!Ezrt_blocks.Translate.translate} would
    reject with an exception. *)

val solve :
  engine:'run engine ->
  ?cancel:(unit -> bool) ->
  Ezrt_blocks.Translate.t ->
  ('run t, error) result
(** Run [engine] on the model and certify its schedule, if any, inside
    a [pipeline/certify] trace span.  [cancel] (default: never) is the
    engines' cancellation hook, polled at every search node. *)
