(* Parallel portfolio search: race independent search configurations
   (branch-ordering policy x inserted-idle branching x engine) on
   OCaml 5 domains and return the first feasible schedule.

   Which configuration wins a hard instance is unpredictable — EDF
   ordering backtracks where continuity sails through, the class engine
   beats the discrete one on wide windows — so racing them bounds the
   wall-clock by the best config instead of a guessed one.  Losing
   configurations are stopped through the search's [cancel] hook; the
   translated model is shared read-only across domains, every search
   owns its engine and tables. *)

open Ezrt_tpn
module Translate = Ezrt_blocks.Translate
module Meaning = Ezrt_blocks.Meaning

type engine =
  | Discrete
  | Classes

type config = {
  engine : engine;
  policy : Priority.policy;
  latest_release : bool;
}

let config_to_string c =
  match c.engine with
  | Classes -> "classes"
  | Discrete ->
    Printf.sprintf "discrete/%s%s"
      (Priority.to_string c.policy)
      (if c.latest_release then "+latest-release" else "")

type attempt = {
  config : config;
  outcome : (Schedule.t, Search.failure) result;
  metrics : Search.metrics;
  cancelled : bool;
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
  attempts : attempt list;  (** configurations that ran to a verdict *)
  configs_started : int;
  domains_used : int;
  elapsed_s : float;
  prepass : prepass;
}

(* Inserted-idle branching only widens the choice space when some
   release window is wider than a point; otherwise the latest-release
   configs replicate the plain ones and would waste domains. *)
let has_release_window model =
  let net = model.Translate.net in
  let wide = ref false in
  Array.iteri
    (fun tid m ->
      if Meaning.is_release m
         && not (Time_interval.is_point (Pnet.interval net tid))
      then wide := true)
    model.Translate.meanings;
  !wide

let default_configs model =
  let discrete policy latest_release =
    { engine = Discrete; policy; latest_release }
  in
  let base = List.map (fun (_, p) -> discrete p false) Priority.all in
  let idle =
    if has_release_window model then
      [ discrete Priority.Edf true; discrete Priority.Continuity true ]
    else []
  in
  base @ idle
  @ [ { engine = Classes; policy = Priority.Edf; latest_release = false } ]

(* an unrealized class path is inconclusive, not a proof *)
let class_outcome = function
  | Ok schedule -> Ok schedule
  | Error Class_search.Infeasible -> Error Search.Infeasible
  | Error (Class_search.Budget_exhausted | Class_search.Extraction_failed) ->
    Error Search.Budget_exhausted

let run_config ~max_stored ~cancel model cfg =
  match cfg.engine with
  | Discrete ->
    let options =
      { Search.default_options with
        policy = cfg.policy;
        latest_release = cfg.latest_release;
        max_stored }
    in
    let outcome, metrics = Search.find_schedule ~options ~cancel model in
    { config = cfg; outcome; metrics; cancelled = false }
  | Classes ->
    let outcome, metrics =
      Class_search.find_schedule ~max_stored ~cancel model
    in
    { config = cfg; outcome = class_outcome outcome; metrics;
      cancelled = false }

(* Race-level accounting: one bulk registry update after the join, so
   losers' work — invisible in the returned schedule — still shows up
   in the metrics dump. *)
let obs_flush ~winner attempts =
  let open Ezrt_obs in
  Metrics.incr
    (Metrics.counter ~help:"Portfolio races run" "ezrt_portfolio_races_total");
  List.iter
    (fun (a : attempt) ->
      let outcome =
        if Some a.config = winner then "winner"
        else if a.cancelled then "cancelled"
        else "loser"
      in
      Metrics.incr
        (Metrics.counter
           ~help:"Portfolio member verdicts by race outcome"
           ~labels:
             [
               ("config", config_to_string a.config); ("outcome", outcome);
             ]
           "ezrt_portfolio_members_total");
      if Some a.config <> winner then
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

(* The analytic pre-pass: a witnessed quick-reject skips the race with
   an [Infeasible] verdict, a certified EDF quick-accept skips it with
   the certificate as the schedule.  Acceptance is gated on
   [Validator.certify] — an uncertified analytic schedule falls
   through to the race instead of being trusted. *)
let run_prepass model =
  let module A = Ezrt_analysis.Schedulability in
  match A.analyze model with
  | A.Infeasible w ->
    count_prepass "reject";
    (Prepass_rejected w, Some (Error Search.Infeasible))
  | A.Feasible actions -> (
    let schedule = Schedule.of_actions actions in
    match Validator.certify model schedule with
    | Ok _ ->
      count_prepass "accept";
      (Prepass_accepted, Some (Ok schedule))
    | Error f ->
      count_prepass "uncertified";
      ( Prepass_uncertified (Validator.certification_failure_to_string f),
        None ))
  | A.Unknown why ->
    count_prepass "unknown";
    (Prepass_unknown why, None)

let find_schedule ?configs ?(max_stored = 500_000) ?domains ?(analysis = true)
    ?(cancel = Search.no_cancel) model =
  let started_at = Unix.gettimeofday () in
  let prepass, decided =
    if analysis then run_prepass model
    else begin
      count_prepass "off";
      (Prepass_off, None)
    end
  in
  match decided with
  | Some outcome ->
    Ezrt_obs.Trace.instant ~cat:"portfolio" "prepass-decided"
      ~args:[ ("outcome", Ezrt_obs.Trace.Str (prepass_to_string prepass)) ];
    {
      outcome;
      winner = None;
      attempts = [];
      configs_started = 0;
      domains_used = 0;
      elapsed_s = Unix.gettimeofday () -. started_at;
      prepass;
    }
  | None ->
  let configs =
    match configs with Some cs -> cs | None -> default_configs model
  in
  if configs = [] then invalid_arg "Portfolio.find_schedule: no configurations";
  let cfgs = Array.of_list configs in
  let n = Array.length cfgs in
  let workers =
    match domains with
    | Some d -> max 1 (min d n)
    | None -> max 1 (min n (Domain.recommended_domain_count () - 1))
  in
  Ezrt_obs.Trace.begin_span ~cat:"portfolio"
    ~args:[ ("configs", Ezrt_obs.Trace.Int n) ]
    "portfolio";
  let stop = Atomic.make false in
  let next = Atomic.make 0 in
  let results = Array.make n None in
  (* members that actually began a search, as opposed to queue slots
     claimed-then-abandoned because the race was already decided; and
     which worker domains ran at least one of them ([worked.(w)] is
     written only by worker [w], read after the join) *)
  let started = Atomic.make 0 in
  let worked = Array.make workers false in
  (* each worker drains the config queue until a winner appears; slot
     [i] is written by exactly one domain and read only after join *)
  let worker wid =
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n || Atomic.get stop || cancel () then continue := false
      else begin
        Atomic.incr started;
        worked.(wid) <- true;
        let name = "member:" ^ config_to_string cfgs.(i) in
        (* the span opens on the worker domain, so each member gets its
           own track in the trace viewer *)
        Ezrt_obs.Trace.begin_span ~cat:"portfolio" "portfolio-member"
          ~args:[ ("config", Ezrt_obs.Trace.Str name) ];
        let saw_cancel = ref false in
        let member_cancel () =
          (* the race's own stop signal, ORed with the caller's
             deadline/cancellation hook *)
          let c = Atomic.get stop || cancel () in
          if c && not !saw_cancel then begin
            saw_cancel := true;
            Ezrt_obs.Trace.instant ~cat:"portfolio" "member-cancelled"
              ~args:[ ("config", Ezrt_obs.Trace.Str name) ]
          end;
          c
        in
        let (attempt : attempt) =
          run_config ~max_stored ~cancel:member_cancel model cfgs.(i)
        in
        let attempt = { attempt with cancelled = !saw_cancel } in
        Ezrt_obs.Trace.end_span ~cat:"portfolio" "portfolio-member"
          ~args:
            [
              ("config", Ezrt_obs.Trace.Str name);
              ( "outcome",
                Ezrt_obs.Trace.Str
                  (match attempt.outcome with
                  | Ok _ -> "feasible"
                  | Error f -> Search.failure_to_string f) );
            ];
        results.(i) <- Some attempt;
        match attempt.outcome with
        | Ok _ ->
          Atomic.set stop true;
          Ezrt_obs.Trace.instant ~cat:"portfolio" "race-decided"
            ~args:[ ("config", Ezrt_obs.Trace.Str name) ]
        | Error _ -> ()
      end
    done
  in
  if workers = 1 then worker 0
  else begin
    let spawned =
      List.init (workers - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    List.iter Domain.join spawned
  end;
  let attempts =
    Array.to_list results |> List.filter_map (fun a -> a)
  in
  let winner =
    (* lowest config index with a feasible outcome, for determinism
       given the set of finished attempts *)
    List.find_opt (fun (a : attempt) -> Result.is_ok a.outcome) attempts
  in
  let outcome, winner_cfg =
    match winner with
    | Some (a : attempt) -> (a.outcome, Some a.config)
    | None ->
      (* a proof of infeasibility requires every config to have run to
         exhaustion; any budget/cancel verdict leaves it open *)
      let verdict =
        if
          List.length attempts = n
          && List.for_all
               (fun (a : attempt) -> a.outcome = Error Search.Infeasible)
               attempts
        then Search.Infeasible
        else Search.Budget_exhausted
      in
      (Error verdict, None)
  in
  obs_flush ~winner:winner_cfg attempts;
  Ezrt_obs.Trace.end_span ~cat:"portfolio"
    ~args:
      [
        ( "winner",
          Ezrt_obs.Trace.Str
            (match winner_cfg with
            | Some cfg -> config_to_string cfg
            | None -> "none") );
        ("finished", Ezrt_obs.Trace.Int (List.length attempts));
      ]
    "portfolio";
  {
    outcome;
    winner = winner_cfg;
    attempts;
    configs_started = Atomic.get started;
    domains_used = Array.fold_left (fun n w -> if w then n + 1 else n) 0 worked;
    elapsed_s = Unix.gettimeofday () -. started_at;
    prepass;
  }
