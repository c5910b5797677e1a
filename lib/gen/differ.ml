module Spec = Ezrt_spec.Spec
module Validate = Ezrt_spec.Validate
module Translate = Ezrt_blocks.Translate
module Search = Ezrt_sched.Search
module Class_search = Ezrt_sched.Class_search
module Portfolio = Ezrt_sched.Portfolio
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

type verdict =
  | Feasible of Schedule.t
  | Infeasible
  | Unknown of string

let verdict_to_string = function
  | Feasible s -> Printf.sprintf "feasible (%d firings)" (Schedule.length s)
  | Infeasible -> "infeasible"
  | Unknown why -> Printf.sprintf "unknown (%s)" why

type engine_result = {
  engine : string;
  verdict : verdict;
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

let of_search = function
  | Ok s -> Feasible s
  | Error Search.Infeasible -> Infeasible
  | Error Search.Budget_exhausted -> Unknown "stored-state budget exhausted"

let feasible = function Feasible _ -> true | Infeasible | Unknown _ -> false

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
  match (Validate.check spec).Validate.errors with
  | e :: _ -> {
      results = [];
      divergences = [ Invalid_input (Validate.error_to_string e) ];
    }
  | [] -> (
    match Translate.translate spec with
    | exception exn ->
      { results = []; divergences = [ Translation_crash (Printexc.to_string exn) ] }
    | model ->
      let divergences = ref [] in
      let flag d = divergences := d :: !divergences in
      let guard engine f =
        match f () with
        | v -> v
        | exception exn ->
          flag (Engine_crash { engine; exn = Printexc.to_string exn });
          Unknown "crashed"
      in
      let discrete ~incremental ~latest_release () =
        of_search
          (fst
             (Search.find_schedule
                ~options:
                  {
                    Search.default_options with
                    incremental;
                    latest_release;
                    max_stored;
                  }
                model))
      in
      let want name =
        match engines with None -> true | Some names -> List.mem name names
      in
      let run name f = if want name then Some (guard name f) else None in
      let reference =
        run "reference" (discrete ~incremental:false ~latest_release:false)
      in
      let incremental =
        run "incremental" (discrete ~incremental:true ~latest_release:false)
      in
      let latest =
        run "latest-release" (discrete ~incremental:true ~latest_release:true)
      in
      let of_class = function
        | Ok s -> Feasible s
        | Error Class_search.Infeasible -> Infeasible
        | Error Class_search.Budget_exhausted ->
          Unknown "stored-state budget exhausted"
        | Error Class_search.Extraction_failed ->
          flag Extraction_failed;
          Unknown "extraction failed"
      in
      let classes =
        run "classes" (fun () ->
            of_class (fst (Class_search.find_schedule ~max_stored model)))
      in
      let portfolio =
        (* analysis off: keep this row a pure race result so the
           analysis row below is checked against real searches, not
           against itself through the pre-pass *)
        run "portfolio" (fun () ->
            match
              (Portfolio.find_schedule ~max_stored ~domains:1 ~analysis:false
                 model)
                .Portfolio.outcome
            with
            | Ok s -> Feasible s
            | Error Search.Infeasible -> Infeasible
            | Error Search.Budget_exhausted ->
              Unknown "stored-state budget exhausted")
      in
      let analysis =
        run "analysis" (fun () ->
            match Schedulability.analyze model with
            | Schedulability.Infeasible w ->
              (* acceptance is never taken on faith and neither is
                 rejection: the witness must re-evaluate to true
                 against the spec, independently of the analyzer *)
              if Schedulability.witness_holds spec w then Infeasible
              else begin
                flag
                  (Analysis_witness_invalid (Schedulability.witness_to_string w));
                Unknown "invalid quick-reject witness"
              end
            | Schedulability.Feasible actions ->
              Feasible (Schedule.of_actions actions)
            | Schedulability.Unknown why -> Unknown why)
      in
      let extra_results =
        List.map
          (fun (name, run) -> (name, guard name (fun () -> run ~max_stored model)))
          extra
      in
      let results =
        List.filter_map
          (fun (name, v) -> Option.map (fun v -> (name, v)) v)
          [
            ("reference", reference);
            ("incremental", incremental);
            ("latest-release", latest);
            ("classes", classes);
            ("portfolio", portfolio);
            ("analysis", analysis);
          ]
        @ extra_results
      in
      (* (a) every feasible schedule must be certified independently *)
      List.iter
        (fun (engine, verdict) ->
          match verdict with
          | Feasible schedule -> (
            match Validator.certify model schedule with
            | Ok _ -> ()
            | Error failure ->
              flag
                (Uncertified
                   {
                     engine;
                     failure = Validator.certification_failure_to_string failure;
                   }))
          | Infeasible | Unknown _ -> ())
        results;
      (* (b) the reference and incremental engines walk the identical
         tree: verdicts and schedules must match exactly *)
      let mismatch a va b vb reason =
        flag
          (Verdict_mismatch
             {
               engine_a = a;
               verdict_a = verdict_to_string va;
               engine_b = b;
               verdict_b = verdict_to_string vb;
               reason;
             })
      in
      let feasible_o = function Some v -> feasible v | None -> false in
      let getv = function Some v -> v | None -> Unknown "skipped" in
      (match reference, incremental with
      | Some (Feasible a), Some (Feasible b) ->
        if a.Schedule.entries <> b.Schedule.entries then
          flag
            (Schedule_mismatch
               { engine_a = "reference"; engine_b = "incremental" })
      | Some Infeasible, Some Infeasible -> ()
      | Some (Unknown _), Some (Unknown _) -> ()
      | Some a, Some b ->
        mismatch "reference" a "incremental" b
          "the two discrete engines must explore the same tree"
      | None, _ | _, None -> ());
      (* extra engines claim default discrete semantics *)
      List.iter
        (fun (name, verdict) ->
          match reference, verdict with
          | Some (Feasible _), Infeasible | Some Infeasible, Feasible _ ->
            mismatch "reference" (getv reference) name verdict
              "engine claims default discrete search semantics"
          | _ -> ())
        extra_results;
      (* (c) implication lattice between decisive verdicts *)
      if feasible_o reference && classes = Some Infeasible then
        mismatch "reference" (getv reference) "classes" Infeasible
          "dense-time state classes are complete";
      if feasible_o latest && classes = Some Infeasible then
        mismatch "latest-release" (getv latest) "classes" Infeasible
          "dense-time state classes are complete";
      if feasible_o reference && latest = Some Infeasible then
        mismatch "reference" (getv reference) "latest-release" Infeasible
          "latest-release branching explores a superset";
      if
        (feasible_o reference || feasible_o latest || feasible_o classes)
        && portfolio = Some Infeasible
      then
        mismatch "portfolio" Infeasible "classes" (getv classes)
          "the portfolio races all of these configurations";
      if
        feasible_o portfolio && reference = Some Infeasible
        && latest = Some Infeasible && classes = Some Infeasible
      then
        mismatch "portfolio" (getv portfolio) "classes" Infeasible
          "the portfolio has no engine outside these configurations";
      (* (d) feasibility is impossible above full utilization *)
      let u = Spec.utilization spec in
      if u > 1.0 +. 1e-9 && List.exists (fun (_, v) -> feasible v) results then
        flag (Overutilized_feasible u);
      (* (e) infeasible verdicts of the exhaustive engines against the
         constructive and analytic baselines.  Gated on the class
         engine's verdict: it is the complete one, so a certified
         witness against it is a contradiction, never noise (the
         work-conserving discrete engines may legitimately miss
         schedules that need inserted idle time). *)
      if classes = Some Infeasible then begin
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
        | Ok _ | Error _ -> ()
      end;
      (* (f) the analytic pre-pass against every search engine.  Its
         quick-reject conditions are necessary, so an analysis
         [Infeasible] contradicts any engine's feasible schedule; its
         quick-accept certificate is built from discrete [dlb] firings,
         so it lies inside every engine's branch space and contradicts
         any engine's exhaustive [Infeasible].  [Unknown] is the only
         analysis verdict allowed to disagree.  (The analysis row's
         feasible schedules are certified by (a) like everyone else's.) *)
      (match analysis with
      | Some Infeasible ->
        List.iter
          (fun (name, v) ->
            match v with
            | Feasible _ when name <> "analysis" ->
              mismatch "analysis" Infeasible name v
                "quick-reject is a necessary condition: no engine may \
                 schedule past a true witness"
            | _ -> ())
          results
      | Some (Feasible _ as a) ->
        List.iter
          (fun (name, v) ->
            match v with
            | Infeasible when name <> "analysis" ->
              mismatch "analysis" a name v
                "a certified analytic schedule lies in every engine's \
                 branch space"
            | _ -> ())
          results
      | Some (Unknown _) | None -> ());
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
              | Feasible s ->
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
              | Infeasible | Unknown _ -> ())
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
      })

let failing ?max_stored spec = (check ?max_stored spec).divergences <> []
