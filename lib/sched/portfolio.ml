(* The portfolio: the analytic pre-pass, then the discrete search under
   FIFO ordering, then the dense-time class engine, on the calling
   domain.

   The discrete member is cheap and finds the schedule on every
   feasible spec the corpus and the fuzz campaigns have produced; the
   class member is complete (the differential fuzzer enforces that
   anything a discrete search schedules, classes schedules too), so its
   exhaustion alone proves infeasibility.  The discrete member's
   exhaustion proves nothing: it explores a work-conserving subset. *)

type config =
  | Discrete
  | Classes

let config_to_string = function
  | Discrete -> "discrete/fifo"
  | Classes -> "classes"

let members = [ Discrete; Classes ]

type attempt = {
  config : config;
  outcome : (Schedule.t, Search.failure) result;
  metrics : Search.metrics;
}

type prepass =
  | Prepass_off
  | Prepass_unknown of string
  | Prepass_rejected of Ezrt_analysis.Schedulability.witness
  | Prepass_accepted
  | Prepass_uncertified of string

let prepass_to_string = function
  | Prepass_off -> "off"
  | Prepass_unknown why -> Printf.sprintf "unknown (%s)" why
  | Prepass_rejected w ->
    Printf.sprintf "rejected (%s)"
      (Ezrt_analysis.Schedulability.witness_to_string w)
  | Prepass_accepted -> "accepted (EDF certificate certified)"
  | Prepass_uncertified why -> Printf.sprintf "uncertified (%s)" why

type t = {
  outcome : (Schedule.t, Search.failure) result;
  winner : config option;
  attempts : attempt list;
  configs_started : int;
  elapsed_s : float;
  prepass : prepass;
}

(* an unrealized class path is inconclusive, not a proof *)
let class_outcome = function
  | Ok schedule -> Ok schedule
  | Error Class_search.Infeasible -> Error Search.Infeasible
  | Error (Class_search.Budget_exhausted | Class_search.Extraction_failed) ->
    Error Search.Budget_exhausted

let run_member ~max_stored ~cancel model config =
  let name = config_to_string config in
  Ezrt_obs.Trace.begin_span ~cat:"portfolio" "portfolio-member"
    ~args:[ ("config", Ezrt_obs.Trace.Str name) ];
  let outcome, metrics =
    match config with
    | Discrete ->
      let options =
        { Search.default_options with policy = Priority.Fifo; max_stored }
      in
      Search.find_schedule ~options ~cancel model
    | Classes ->
      let outcome, metrics =
        Class_search.find_schedule ~max_stored ~cancel model
      in
      (class_outcome outcome, metrics)
  in
  Ezrt_obs.Trace.end_span ~cat:"portfolio" "portfolio-member"
    ~args:
      [
        ("config", Ezrt_obs.Trace.Str name);
        ( "outcome",
          Ezrt_obs.Trace.Str
            (match outcome with
            | Ok _ -> "feasible"
            | Error f -> Search.failure_to_string f) );
      ];
  { config; outcome; metrics }

(* Portfolio-level accounting, so losers' work — invisible in the
   returned schedule — still shows up in the metrics dump. *)
let obs_flush ~winner attempts =
  let open Ezrt_obs in
  Metrics.incr
    (Metrics.counter ~help:"Portfolio races run" "ezrt_portfolio_races_total");
  List.iter
    (fun (a : attempt) ->
      let won = Some a.config = winner in
      Metrics.incr
        (Metrics.counter
           ~help:"Portfolio member verdicts by race outcome"
           ~labels:
             [
               ("config", config_to_string a.config);
               ("outcome", if won then "winner" else "loser");
             ]
           "ezrt_portfolio_members_total");
      if not won then
        Metrics.add
          (Metrics.counter
             ~help:"Search nodes stored by losing portfolio members"
             "ezrt_portfolio_loser_stored_states_total")
          a.metrics.Search.stored)
    attempts

let count_prepass outcome =
  Ezrt_obs.Metrics.incr
    (Ezrt_obs.Metrics.counter
       ~help:"Portfolio analytic pre-pass outcomes"
       ~labels:[ ("outcome", outcome) ]
       "ezrt_analysis_prepass_total")

(* The analytic pre-pass: a witnessed quick-reject skips the search with
   an [Infeasible] verdict, a certified EDF quick-accept skips it with
   the certificate as the schedule.  Acceptance is gated on
   [Validator.certify] — an uncertified analytic schedule falls
   through to the members instead of being trusted. *)
let run_prepass model =
  let module A = Ezrt_analysis.Schedulability in
  match A.analyze model with
  | A.Infeasible w ->
    count_prepass "reject";
    (Prepass_rejected w, None)
  | A.Feasible actions -> (
    let schedule = Schedule.of_actions actions in
    match Validator.certify model schedule with
    | Ok segments ->
      count_prepass "accept";
      (Prepass_accepted, Some (schedule, segments))
    | Error f ->
      count_prepass "uncertified";
      ( Prepass_uncertified (Validator.certification_failure_to_string f),
        None ))
  | A.Unknown why ->
    count_prepass "unknown";
    (Prepass_unknown why, None)

let find_schedule ?(max_stored = 500_000) ?domains:_ ?(analysis = true)
    ?(cancel = Search.no_cancel) model =
  let started_at = Unix.gettimeofday () in
  let prepass, certificate =
    if analysis then run_prepass model
    else begin
      count_prepass "off";
      (Prepass_off, None)
    end
  in
  let decided =
    match (prepass, certificate) with
    | Prepass_rejected _, _ -> Some (Error Search.Infeasible)
    | _, Some (schedule, _) -> Some (Ok schedule)
    | _, None -> None
  in
  let finish outcome winner attempts =
    {
      outcome;
      winner;
      attempts;
      configs_started = List.length attempts;
      elapsed_s = Unix.gettimeofday () -. started_at;
      prepass;
    }
  in
  match decided with
  | Some outcome ->
    Ezrt_obs.Trace.instant ~cat:"portfolio" "prepass-decided"
      ~args:[ ("outcome", Ezrt_obs.Trace.Str (prepass_to_string prepass)) ];
    finish outcome None []
  | None ->
    Ezrt_obs.Trace.begin_span ~cat:"portfolio"
      ~args:[ ("configs", Ezrt_obs.Trace.Int (List.length members)) ]
      "portfolio";
    (* members run in order until one schedules; a cancelled caller
       starts no further member *)
    let rec run acc = function
      | config :: rest when not (cancel ()) ->
        let a = run_member ~max_stored ~cancel model config in
        if Result.is_ok a.outcome then a :: acc else run (a :: acc) rest
      | _ -> acc
    in
    let latest_first = run [] members in
    let attempts = List.rev latest_first in
    let outcome, winner =
      match latest_first with
      | ({ outcome = Ok _; _ } as a) :: _ -> (a.outcome, Some a.config)
      (* only the complete class member's exhaustion is a proof *)
      | { config = Classes; outcome = Error Search.Infeasible; _ } :: _ ->
        (Error Search.Infeasible, None)
      | _ -> (Error Search.Budget_exhausted, None)
    in
    obs_flush ~winner attempts;
    Ezrt_obs.Trace.end_span ~cat:"portfolio"
      ~args:
        [
          ( "winner",
            Ezrt_obs.Trace.Str
              (match winner with
              | Some cfg -> config_to_string cfg
              | None -> "none") );
          ("finished", Ezrt_obs.Trace.Int (List.length attempts));
        ]
      "portfolio";
    finish outcome winner attempts
