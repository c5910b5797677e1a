module Spec = Ezrt_spec.Spec
module Validate = Ezrt_spec.Validate
module Translate = Ezrt_blocks.Translate
module Search = Ezrt_sched.Search
module Portfolio = Ezrt_sched.Portfolio
module Pipeline = Ezrt_sched.Pipeline
module Schedule = Ezrt_sched.Schedule
module Validator = Ezrt_sched.Validator
module Sim = Ezrt_baseline.Sim
module Rta = Ezrt_baseline.Rta
module Schedulability = Ezrt_analysis.Schedulability
module Lint = Ezrt_lint.Lint
module Invariants = Ezrt_tpn.Invariants
module Tlts = Ezrt_tpn.Tlts
module State = Ezrt_tpn.State
module Pnet = Ezrt_tpn.Pnet

type engine_result = {
  engine : string;
  verdict : Pipeline.verdict;
}

type divergence =
  | Invalid_input of string
  | Translation_crash of string
  | Verdict_mismatch of {
      engine_a : string;
      verdict_a : string;
      engine_b : string;
      verdict_b : string;
      reason : string;
    }
  | Schedule_mismatch of { engine_a : string; engine_b : string }
  | Uncertified of { engine : string; failure : string }
  | Extraction_failed
  | Runtime_beats_synthesis of { policy : string }
  | Rta_beats_synthesis
  | Overutilized_feasible of float
  | Engine_crash of { engine : string; exn : string }
  | Analysis_witness_invalid of string
  | Lint_crash of string
  | Lint_dead_scheduled of { engine : string; transition : string }
  | Lint_certificate_violated of string
  | Lint_gate_mismatch of string
  | Lint_shrink_regression of { dropped_task : string; diagnostic : string }

let divergence_to_string = function
  | Invalid_input msg -> Printf.sprintf "spec does not validate: %s" msg
  | Translation_crash msg -> Printf.sprintf "translation crashed: %s" msg
  | Verdict_mismatch { engine_a; verdict_a; engine_b; verdict_b; reason } ->
    Printf.sprintf "%s says %s but %s says %s (%s)" engine_a verdict_a
      engine_b verdict_b reason
  | Schedule_mismatch { engine_a; engine_b } ->
    Printf.sprintf "%s and %s found different schedules (must be \
                    action-identical)" engine_a engine_b
  | Uncertified { engine; failure } ->
    Printf.sprintf "%s produced an uncertified schedule: %s" engine failure
  | Extraction_failed -> "class engine failed to extract a concrete schedule"
  | Runtime_beats_synthesis { policy } ->
    Printf.sprintf
      "exhaustive search says infeasible but a certified %s simulation \
       meets every deadline"
      policy
  | Rta_beats_synthesis ->
    "exhaustive search says infeasible but response-time analysis proves \
     the task set schedulable"
  | Overutilized_feasible u ->
    Printf.sprintf "feasible verdict at utilization %.3f > 1" u
  | Engine_crash { engine; exn } ->
    Printf.sprintf "%s raised %s" engine exn
  | Analysis_witness_invalid w ->
    Printf.sprintf
      "analysis emitted a quick-reject witness that does not re-evaluate \
       to true: %s" w
  | Lint_crash exn -> Printf.sprintf "structural lint crashed: %s" exn
  | Lint_dead_scheduled { engine; transition } ->
    Printf.sprintf
      "lint proved %s structurally dead, yet %s's feasible schedule fires it"
      transition engine
  | Lint_certificate_violated msg ->
    Printf.sprintf
      "a lint P-invariant certificate fails on a reachable state: %s" msg
  | Lint_gate_mismatch msg ->
    Printf.sprintf "lint gate-explain disagrees with the live gate: %s" msg
  | Lint_shrink_regression { dropped_task; diagnostic } ->
    Printf.sprintf
      "lint-clean spec stops being clean after dropping task %s: %s"
      dropped_task diagnostic

type report = {
  results : engine_result list;
  divergences : divergence list;
}

(* a verdict as divergence messages quote it *)
let describe = function
  | Pipeline.Certified { schedule; _ } ->
    Printf.sprintf "feasible (%d firings)" (Schedule.length schedule)
  | Pipeline.Infeasible _ -> "infeasible"
  | Pipeline.Timed_out | Pipeline.Undecided _ -> "unknown"

let builtin_engines =
  [ "reference"; "incremental"; "latest-release"; "classes"; "portfolio";
    "analysis" ]

let check ?(max_stored = 50_000) ?engines ?(extra = []) spec =
  (match engines with
  | Some names ->
    List.iter
      (fun n ->
        if not (List.mem n builtin_engines) then
          invalid_arg
            (Printf.sprintf
               "Differ.check: unknown engine %S (known: %s)" n
               (String.concat ", " builtin_engines)))
      names
  | None -> ());
  match Pipeline.translate spec with
  | Error e ->
    let msg = Pipeline.error_to_string e in
    { results = []; divergences = [ Invalid_input msg ] }
  | exception exn ->
    let msg = Printexc.to_string exn in
    { results = []; divergences = [ Translation_crash msg ] }
  | Ok model ->
    let divergences = ref [] in
    let flag d = divergences := d :: !divergences in
    (* (a), first half: every schedule the pipeline reports passed
       the spec-level validator, and none it rejected may exist *)
    let pipeline engine name =
      match Pipeline.solve ~engine model with
      | Ok r -> Some r.Pipeline.verdict
      | Error e ->
        let failure = Pipeline.error_to_string e in
        flag (Uncertified { engine = name; failure });
        None
    in
    let discrete incremental latest_release =
      pipeline
        (Pipeline.Discrete
           { Search.default_options with
             incremental; latest_release; max_stored })
    in
    let analysis name =
      match Portfolio.run_prepass model with
      | Portfolio.Prepass_rejected w, _ ->
        (* rejection is never taken on faith either: the witness must
           re-evaluate to true against the spec, independently of the
           analyzer *)
        if Schedulability.witness_holds spec w then
          Some (Pipeline.Infeasible (Some w))
        else begin
          flag (Analysis_witness_invalid (Schedulability.witness_to_string w));
          None
        end
      | _, Some (schedule, segments) ->
        Some (Pipeline.Certified { schedule; segments })
      | Portfolio.Prepass_uncertified failure, None ->
        flag (Uncertified { engine = name; failure });
        None
      | _, None -> None
    in
    let builtins =
      [
        ("reference", discrete false false);
        ("incremental", discrete true false);
        ("latest-release", discrete true true);
        ("classes", pipeline (Pipeline.Classes { subsume = true; max_stored }));
        (* analysis off: keep this row a pure search result so the
           analysis row is checked against real searches, not against
           itself through the pre-pass *)
        ( "portfolio",
          pipeline (Pipeline.Portfolio { analysis = false; max_stored }) );
        ("analysis", analysis);
      ]
    in
    (* one row per engine that reaches a verdict; a crash is a
       divergence and leaves no row *)
    let results =
      List.filter_map
        (fun (name, row) ->
          match row name with
          | v -> Option.map (fun v -> (name, v)) v
          | exception exn ->
            flag (Engine_crash { engine = name; exn = Printexc.to_string exn });
            None)
        (List.filter
           (fun (name, _) ->
             Option.fold ~none:true ~some:(List.mem name) engines)
           builtins
        @ List.map
            (fun (name, f) -> (name, fun _ -> Some (f ~max_stored model)))
            extra)
    in
    let verdict name = List.assoc_opt name results in
    (* (a), second half: every certified schedule also replays
       through the TPN semantics to the final marking *)
    let uncertified engine failure =
      let failure = Validator.certification_failure_to_string failure in
      flag (Uncertified { engine; failure })
    in
    List.iter
      (fun (engine, v) ->
        match v with
        | Pipeline.Certified { schedule; _ } -> (
          match Schedule.replay model.Translate.net schedule with
          | exception Invalid_argument msg ->
            uncertified engine (Validator.Replay_error msg)
          | final ->
            if not (Translate.is_final model final) then
              uncertified engine Validator.Wrong_final_marking)
        | Pipeline.Undecided Pipeline.Extraction_failed ->
          flag Extraction_failed
        | Pipeline.Infeasible _ | Pipeline.Timed_out
        | Pipeline.Undecided Pipeline.Budget_exhausted -> ())
      results;
    let mismatch a va b vb reason =
      flag
        (Verdict_mismatch
           {
             engine_a = a;
             verdict_a = describe va;
             engine_b = b;
             verdict_b = describe vb;
             reason;
           })
    in
    (* [a] schedules what [b] claims to have proved infeasible *)
    let implies a b reason =
      match (verdict a, verdict b) with
      | Some (Pipeline.Certified _ as va), Some (Pipeline.Infeasible _ as vb) ->
        mismatch a va b vb reason
      | _ -> ()
    in
    (* (b) the reference and incremental engines walk the identical
       tree: verdicts and schedules must match exactly *)
    (match (verdict "reference", verdict "incremental") with
    | Some (Pipeline.Certified a), Some (Pipeline.Certified b) ->
      if a.schedule.Schedule.entries <> b.schedule.Schedule.entries then
        flag
          (Schedule_mismatch
             { engine_a = "reference"; engine_b = "incremental" })
    | Some a, Some b when describe a <> describe b ->
      mismatch "reference" a "incremental" b
        "the two discrete engines must explore the same tree"
    | _ -> ());
    (* extra engines claim default discrete semantics *)
    List.iter
      (fun (name, _) ->
        let reason = "engine claims default discrete search semantics" in
        implies "reference" name reason;
        implies name "reference" reason)
      extra;
    (* (c) implication lattice between decisive verdicts *)
    implies "reference" "classes" "dense-time state classes are complete";
    implies "latest-release" "classes" "dense-time state classes are complete";
    implies "reference" "latest-release"
      "latest-release branching explores a superset";
    let reason =
      "the portfolio is infeasible exactly when its class member is"
    in
    implies "portfolio" "classes" reason;
    implies "classes" "portfolio" reason;
    (* (d) feasibility is impossible above full utilization *)
    let u = Spec.utilization spec in
    if u > 1.0 +. 1e-9
       && List.exists
            (function _, Pipeline.Certified _ -> true | _ -> false)
            results
    then flag (Overutilized_feasible u);
    (* (e) infeasible verdicts of the exhaustive engines against the
       constructive and analytic baselines.  Gated on the class
       engine's verdict: it is the complete one, so a certified
       witness against it is a contradiction, never noise (the
       work-conserving discrete engines may legitimately miss
       schedules that need inserted idle time). *)
    (match verdict "classes" with
    | Some (Pipeline.Infeasible _) -> (
      (match Sim.any_feasible spec with
      | Some (policy, result) -> (
        (* only a simulation the independent validator certifies is a
           witness; Sim-internal quirks must not create noise *)
        match Validator.check model result.Sim.segments with
        | Ok () ->
          flag
            (Runtime_beats_synthesis { policy = Sim.policy_to_string policy })
        | Error _ -> ())
      | None -> ());
      match Rta.analyze spec with
      | Ok report when report.Rta.all_schedulable -> flag Rta_beats_synthesis
      | Ok _ | Error _ -> ())
    | _ -> ());
    (* (f) the analytic pre-pass against every search engine.  Its
       quick-reject conditions are necessary, so an analysis
       [Infeasible] contradicts any engine's feasible schedule; its
       quick-accept certificate is built from discrete [dlb] firings,
       so it lies inside every engine's branch space and contradicts
       any engine's exhaustive [Infeasible].  An analysis that
       decides nothing has no row and disagrees with no one.  (The
       analysis row's schedule is replayed by (a) like everyone
       else's.) *)
    List.iter
      (fun (name, _) ->
        if name <> "analysis" then begin
          implies name "analysis"
            "quick-reject is a necessary condition: no engine may \
             schedule past a true witness";
          implies "analysis" name
            "a certified analytic schedule lies in every engine's branch \
             space"
        end)
      results;
    (* (g)-(i) structural-lint theorems.  Lint is a static oracle:
       its claims must be consistent with what the engines actually
       did on this very spec. *)
    let lint_report =
      match Lint.check_model model with
      | r -> Some r
      | exception exn ->
        flag (Lint_crash (Printexc.to_string exn));
        None
    in
    (match lint_report with
    | None -> ()
    | Some lr ->
      let net = model.Translate.net in
      (* (g) a transition lint proved structurally dead can never
         appear in any engine's feasible schedule *)
      let dead = Lint.structurally_dead net in
      if dead <> [] then
        List.iter
          (fun (engine, v) ->
            match v with
            | Pipeline.Certified { schedule = s; _ } ->
              List.iter
                (fun (e : Schedule.entry) ->
                  if List.mem e.Schedule.tid dead then
                    flag
                      (Lint_dead_scheduled
                         {
                           engine;
                           transition =
                             Pnet.transition_name net e.Schedule.tid;
                         }))
                s.Schedule.entries
            | Pipeline.Infeasible _ | Pipeline.Timed_out
            | Pipeline.Undecided _ -> ())
          results;
      (* (h) every P-invariant certificate in the report conserves
         its constant on every state of a bounded TLTS walk *)
      let consts =
        List.map
          (fun y -> (y, Invariants.weighted_tokens y net.Pnet.m0))
          lr.Lint.certificates
      in
      let bad = ref None in
      ignore
        (Tlts.explore ~max_states:(min 2_000 max_stored)
           ~on_state:(fun s ->
             if !bad = None then
               List.iter
                 (fun (y, c) ->
                   let v = Invariants.weighted_tokens y s.State.marking in
                   if v <> c then bad := Some (y, c, v))
                 consts)
           net);
      (match !bad with
      | Some (y, c, v) ->
        flag
          (Lint_certificate_violated
             (Printf.sprintf
                "certificate over {%s} should conserve %d but a reachable \
                 state holds %d"
                (String.concat ", "
                   (List.map (Pnet.place_name net) (Invariants.support y)))
                c v))
      | None -> ());
      (* gate-explain must agree with the live gate (L013 never fires) *)
      List.iter
        (fun (d : Lint.diagnostic) ->
          if String.equal d.Lint.code "EZRT-L013" then
            flag (Lint_gate_mismatch d.Lint.message))
        lr.Lint.diagnostics;
      (* (i) lint cleanliness is monotone under the shrinker's task
         dropping: removing a task from a clean spec cannot introduce
         an error or warning (otherwise shrinking a divergent spec
         could drift into lint noise unrelated to the divergence) *)
      if (not (Lint.deny_hit ~deny:Lint.Warning lr))
         && List.length spec.Spec.tasks > 1
      then
        List.iter
          (fun (t : Ezrt_spec.Task.t) ->
            let shrunk = Spec.drop_task spec t.Ezrt_spec.Task.id in
            if (Validate.check shrunk).Validate.errors = [] then
              match Lint.check_model (Translate.translate shrunk) with
              | shrunk_report ->
                List.iter
                  (fun (d : Lint.diagnostic) ->
                    if
                      Lint.severity_rank d.Lint.severity
                      >= Lint.severity_rank Lint.Warning
                    then
                      flag
                        (Lint_shrink_regression
                           {
                             dropped_task = t.Ezrt_spec.Task.id;
                             diagnostic =
                               d.Lint.code ^ " " ^ d.Lint.subject ^ ": "
                               ^ d.Lint.message;
                           }))
                  shrunk_report.Lint.diagnostics
              | exception exn ->
                flag (Lint_crash (Printexc.to_string exn)))
          spec.Spec.tasks);
    {
      results = List.map (fun (engine, verdict) -> { engine; verdict }) results;
      divergences = List.rev !divergences;
    }
