(* Benchmark harness: regenerates every measurable table and figure of
   the paper (see DESIGN.md's experiment index) and runs one Bechamel
   micro-benchmark per experiment.

   Sections E1-E7 print paper-reported versus measured values;
   sections A1-A6 are the ablations DESIGN.md calls out. *)

open Ezrealtime

let line = String.make 72 '-'

let section id title =
  Format.printf "@.%s@.%s  %s@.%s@." line id title line

let solve ?options spec =
  let model = Translate.translate spec in
  let outcome, metrics = Search.find_schedule ?options model in
  (model, outcome, metrics)

let ms metrics = metrics.Search.elapsed_s *. 1000.

(* --- machine-readable output (BENCH_search.json) --------------------- *)
(* Besides the pretty tables, every search experiment appends a record
   here; the file lets CI track the perf trajectory across PRs. *)

let json_entries : (string * string) list ref = ref []

let add_json key fields =
  let body =
    String.concat ",\n    "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  in
  json_entries := (key, Printf.sprintf "{\n    %s\n  }" body) :: !json_entries

let jint = string_of_int
let jfloat f = Printf.sprintf "%.3f" f
let jbool = string_of_bool
let jstr s = Printf.sprintf "%S" s

(* Run metadata, first entry in the file: lets CI distinguish schema
   revisions and attribute a perf trajectory to the machine and
   compiler that produced it. *)
let record_meta () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  let generated_utc =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  add_json "meta"
    [
      ("schema_version", jint 2);
      ("generated_utc", jstr generated_utc);
      ("hostname", jstr (Unix.gethostname ()));
      ("ocaml_version", jstr Sys.ocaml_version);
      ("ezrt_version", jstr version);
    ]

let states_per_s metrics =
  float_of_int metrics.Search.visited /. max 1e-9 metrics.Search.elapsed_s

let record_search exp ?options (name, spec) =
  let _, outcome, metrics = solve ?options spec in
  add_json exp
    [
      ("spec", jstr name);
      ("feasible", jbool (Result.is_ok outcome));
      ("stored_states", jint metrics.Search.stored);
      ("visited_states", jint metrics.Search.visited);
      ("elapsed_ms", jfloat (ms metrics));
      ("states_per_s", jfloat (states_per_s metrics));
    ]

let write_json path =
  let oc = open_out path in
  output_string oc "{\n";
  let entries = List.rev !json_entries in
  List.iteri
    (fun i (key, value) ->
      Printf.fprintf oc "  %S: %s%s\n" key value
        (if i = List.length entries - 1 then "" else ","))
    entries;
  output_string oc "}\n";
  close_out oc

(* --- E1: Table 1 + the quantitative case-study paragraph ----------- *)

let e1 () =
  section "E1" "Mine pump case study (Table 1, section 5)";
  let spec = Case_studies.mine_pump in
  Format.printf "%-6s %11s %8s %6s %9s@." "task" "computation" "deadline"
    "period" "instances";
  List.iter2
    (fun (t : Task.t) (_, n) ->
      Format.printf "%-6s %11d %8d %6d %9d@." t.Task.name t.Task.wcet
        t.Task.deadline t.Task.period n)
    spec.Spec.tasks
    (Spec.instance_counts spec);
  let model, outcome, metrics = solve spec in
  let feasible, certified =
    match outcome with
    | Ok schedule ->
      let segments = Timeline.of_schedule model schedule in
      (true, Result.is_ok (Validator.check model segments))
    | Error _ -> (false, false)
  in
  Format.printf "@.%-34s %14s %14s@." "" "paper (2008)" "measured";
  Format.printf "%-34s %14d %14d@." "task instances" 782
    (Spec.total_instances spec);
  Format.printf "%-34s %14d %14d@." "hyper-period" 30000
    (Spec.hyperperiod spec);
  Format.printf "%-34s %14d %14d@." "states searched" 3268
    metrics.Search.stored;
  Format.printf "%-34s %14d %14d@." "minimum states (see DESIGN.md)" 3130
    (Translate.minimum_states model);
  Format.printf "%-34s %14.0f %14.1f@." "search time (ms)" 330. (ms metrics);
  Format.printf "%-34s %14s %14b@." "feasible schedule found" "yes" feasible;
  Format.printf "%-34s %14s %14b@." "independently certified" "n/a" certified;
  record_search "E1" ("mine-pump", spec);
  (* seed (copy-based) engine versus the incremental engine on the same
     search, with per-fire state-vector writes from the State counters *)
  let run incremental =
    State.reset_write_counters ();
    let t0 = Unix.gettimeofday () in
    let outcome, m =
      Search.find_schedule
        ~options:{ Search.default_options with incremental }
        model
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let copy_w, incr_w, fires = State.write_counters () in
    (outcome, m, elapsed, (if incremental then incr_w else copy_w), fires)
  in
  let seed_outcome, seed_m, seed_t, seed_writes, seed_fires = run false in
  let incr_outcome, incr_m, incr_t, incr_writes, incr_fires = run true in
  let writes_per_fire w f = float_of_int w /. float_of_int (max 1 f) in
  let seed_wpf = writes_per_fire seed_writes seed_fires in
  let incr_wpf = writes_per_fire incr_writes incr_fires in
  let identical =
    match (seed_outcome, incr_outcome) with
    | Ok a, Ok b -> a.Schedule.entries = b.Schedule.entries
    | Error a, Error b -> a = b
    | _ -> false
  in
  let speedup = seed_t /. max 1e-9 incr_t in
  Format.printf "@.engine comparison (seed copy-based vs incremental):@.";
  Format.printf "%-34s %14s %14s@." "" "seed" "incremental";
  Format.printf "%-34s %14.1f %14.1f@." "search time (ms)" (seed_t *. 1000.)
    (incr_t *. 1000.);
  Format.printf "%-34s %14.1f %14.1f@." "state-vector writes per fire"
    seed_wpf incr_wpf;
  Format.printf "%-34s %14d %14d@." "firings" seed_fires incr_fires;
  Format.printf "write reduction: %.1fx   speedup: %.2fx   schedules identical: %b@."
    (seed_wpf /. max 1e-9 incr_wpf) speedup identical;
  add_json "E1_engine_comparison"
    [
      ("spec", jstr "mine-pump");
      ("seed_elapsed_ms", jfloat (seed_t *. 1000.));
      ("incremental_elapsed_ms", jfloat (incr_t *. 1000.));
      ("seed_states_per_s", jfloat (states_per_s seed_m));
      ("incremental_states_per_s", jfloat (states_per_s incr_m));
      ("seed_writes_per_fire", jfloat seed_wpf);
      ("incremental_writes_per_fire", jfloat incr_wpf);
      ("write_reduction", jfloat (seed_wpf /. max 1e-9 incr_wpf));
      ("speedup", jfloat speedup);
      ("schedules_identical", jbool identical);
    ]

(* --- E2: the Fig 8 schedule table ----------------------------------- *)

let e2 () =
  section "E2" "Preemptive schedule table (Fig 8)";
  let artifact = synthesize_exn Case_studies.fig8_preemptive in
  print_string (Emit.schedule_table artifact.model artifact.table);
  let resumes =
    List.length (List.filter (fun i -> i.Table.resumed) artifact.table)
  in
  let preempts =
    List.length
      (List.filter (fun i -> i.Table.preempts <> None) artifact.table)
  in
  Format.printf "@.%-34s %14s %14s@." "" "paper (Fig 8)" "measured";
  Format.printf "%-34s %14d %14d@." "table rows" 11
    (List.length artifact.table);
  Format.printf "%-34s %14d %14d@." "resume rows (flag=true)" 5 resumes;
  Format.printf "%-34s %14d %14d@." "preempting rows" 5 preempts;
  Format.printf "%-34s %14s %14s@." "row vocabulary"
    "start/preempt/resume" "same";
  record_search "E2" ("fig8-preemptive", Case_studies.fig8_preemptive)

(* --- E3 / E4: relation models (Figs 3 and 4) ------------------------ *)

let relation_report spec expectations =
  let model, outcome, metrics = solve spec in
  let net = model.Translate.net in
  Format.printf "net: %a@." Pnet.pp_summary net;
  List.iter
    (fun node ->
      Format.printf "  figure node %-16s present: %b@." node
        (Pnet.find_transition_opt net node <> None
         || Pnet.find_place_opt net node <> None))
    expectations;
  match outcome with
  | Ok schedule ->
    let segments = Timeline.of_schedule model schedule in
    Format.printf "feasible schedule (%d states, %.1f ms); timeline:@.%a"
      metrics.Search.stored (ms metrics)
      (Timeline.pp model) segments;
    (match Validator.check model segments with
    | Ok () -> Format.printf "certified: every relation constraint holds@."
    | Error vs ->
      List.iter
        (fun v ->
          Format.printf "VIOLATION: %s@." (Validator.violation_to_string v))
        vs)
  | Error f -> Format.printf "NO SCHEDULE: %s@." (Search.failure_to_string f)

let e3 () =
  section "E3" "Precedence relation model (Fig 3)";
  relation_report Case_studies.fig3_precedence
    [ "tprec_T1_T2"; "pwp_T1_T2"; "pprec_T1_T2"; "tr_T1"; "tc_T2"; "td_T2" ];
  record_search "E3" ("fig3-precedence", Case_studies.fig3_precedence)

let e4 () =
  section "E4" "Exclusion relation model (Fig 4)";
  relation_report Case_studies.fig4_exclusion
    [ "pexcl_T0_T2"; "te_T0"; "te_T2"; "tr_T0"; "tf_T2" ];
  let model = Translate.translate Case_studies.fig4_exclusion in
  let report =
    Analysis.reachability_report ~max_states:50_000 model.Translate.net
  in
  Format.printf
    "reachability: %d states, resource places 1-safe everywhere: %b@."
    report.Analysis.reachable_states
    (List.for_all
       (fun p -> Analysis.is_safe_place report p)
       model.Translate.resource_places);
  record_search "E4" ("fig4-exclusion", Case_studies.fig4_exclusion)

(* --- E5: building-block inventory (Figs 1-2) ------------------------ *)

let e5 () =
  section "E5" "Building blocks (Figs 1 and 2)";
  let fig8 = Translate.translate Case_studies.fig8_preemptive in
  let mine = Translate.translate Case_studies.mine_pump in
  Format.printf
    "non-preemptive task cost: 10 places + 8 transitions per task (plus a \
     wait stage when r > 0)@.";
  Format.printf "  mine pump: 10 tasks + pproc/pstart/pend + cycle watchdog \
                 -> |P| = %d, |T| = %d@."
    (Pnet.place_count mine.Translate.net)
    (Pnet.transition_count mine.Translate.net);
  Format.printf "  fig8 (preemptive): 4 tasks -> |P| = %d, |T| = %d@."
    (Pnet.place_count fig8.Translate.net)
    (Pnet.transition_count fig8.Translate.net);
  Format.printf "block inventory (paper Figs 1-2 vs constructed):@.";
  List.iter
    (fun (block, paper_nodes, ours) ->
      Format.printf "  %-24s figure: %-12s ours: %s@." block paper_nodes ours)
    [
      ("fork", "1 pl + 1 tr", "pstart, tstart [0,0]");
      ("join", "1 pl + 1 tr", "pend, tend [0,0], weighted N(ti) inputs");
      ("periodic arrival", "2 pl + 2 tr", "tph [ph,ph], ta [p,p], pwa weight N-1");
      ("deadline checking", "3 pl + 2 tr", "td [d,d], tpc [0,0]");
      ("np task structure", "5 pl + 4 tr", "tr [r,d-c], tg [0,0], tc [c,c], tf [0,0]");
      ("preemptive structure", "5 pl + 4 tr", "tc [1,1] per unit, tf weight c");
      ("processor", "1 marked pl", "pproc, 1-safe (E4 check)");
    ];
  record_search "E5" ("flight-control", Case_studies.flight_control)

(* --- E6: the DSL document (Fig 7) ----------------------------------- *)

let e6 () =
  section "E6" "XML DSL (Fig 7)";
  let spec = Case_studies.mine_pump in
  let doc = Dsl.to_string spec in
  Format.printf "mine-pump document: %d bytes@." (String.length doc);
  (match Dsl.of_string doc with
  | Ok spec' ->
    Format.printf "round-trip: %d tasks parsed back, hyper-periods equal: %b@."
      (List.length spec'.Spec.tasks)
      (Spec.hyperperiod spec' = Spec.hyperperiod spec)
  | Error e -> Format.printf "ROUND-TRIP FAILED: %s@." (Dsl.error_to_string e));
  Format.printf "fig3 document (compare paper Fig 7):@.%s"
    (Dsl.to_string Case_studies.fig3_precedence);
  record_search "E6" ("quickstart", Case_studies.quickstart)

(* --- E7: PNML export (section 4.1) ----------------------------------- *)

let e7 () =
  section "E7" "PNML export/import (ISO/IEC 15909-2)";
  List.iter
    (fun (name, spec) ->
      let net = (Translate.translate spec).Translate.net in
      let doc = Pnml.to_string net in
      match Pnml.of_string doc with
      | Ok net' ->
        Format.printf
          "%-12s |P|=%-3d |T|=%-3d document: %6d bytes, round-trip equal: %b@."
          name (Pnet.place_count net)
          (Pnet.transition_count net)
          (String.length doc)
          (Pnet.place_count net' = Pnet.place_count net
           && Pnet.transition_count net' = Pnet.transition_count net
           && Pnet.arc_count net' = Pnet.arc_count net)
      | Error e ->
        Format.printf "%-12s FAILED: %s@." name (Pnml.error_to_string e))
    Case_studies.all;
  record_search "E7"
    ~options:{ Search.default_options with latest_release = true }
    ("greedy-trap", Case_studies.greedy_trap)

(* --- E8: property checking (abstract: "checking properties") --------- *)

let e8 () =
  section "E8" "Property checking (reachability queries on the models)";
  List.iter
    (fun (name, spec, queries) ->
      let model = Translate.translate spec in
      Format.printf "%s:@." name;
      List.iter
        (fun q ->
          match Query.parse q with
          | Error msg -> Format.printf "  %-44s syntax error: %s@." q msg
          | Ok query -> (
            match Query.check ~max_states:100_000 model.Translate.net query with
            | Ok verdict ->
              let shown =
                match verdict with
                | Query.Holds [] -> "holds"
                | Query.Holds w ->
                  Printf.sprintf "holds (witness: %d firings)" (List.length w)
                | Query.Fails [] -> "does not hold"
                | Query.Fails w ->
                  Printf.sprintf "FAILS (counterexample: %d firings)"
                    (List.length w)
                | Query.Unknown -> "unknown"
              in
              Format.printf "  %-44s %s@." q shown
            | Error msg -> Format.printf "  %-44s %s@." q msg))
        queries)
    [
      ( "fig3",
        Case_studies.fig3_precedence,
        [
          "AG pproc <= 1";
          "AG pdm_T1 = 0 && pdm_T2 = 0";
          "EF pend >= 1";
          "AG (pwc_T2 = 0 || pf_T1 + pe_T1 >= 1)";
        ] );
      ( "fig4",
        Case_studies.fig4_exclusion,
        [
          "AG pexcl_T0_T2 <= 1";
          "AG pwx_T0 + pwx_T2 <= 1";
          "EF pend >= 1";
        ] );
      ( "quickstart",
        Case_studies.quickstart,
        [ "EF pend >= 1"; "EF deadlock"; "AG pproc <= 1" ] );
    ]

(* --- A1: partial-order pruning ablation ------------------------------ *)

let a1 () =
  section "A1" "Ablation: partial-order reduction (section 4.4.1)";
  Format.printf "%-12s %26s %26s@." "spec" "with pruning" "without pruning";
  List.iter
    (fun (name, spec) ->
      let run partial_order =
        let options = { Search.default_options with partial_order } in
        let _, outcome, metrics = solve ~options spec in
        match outcome with
        | Ok _ ->
          Printf.sprintf "%d states / %.1f ms" metrics.Search.stored
            (ms metrics)
        | Error f -> Search.failure_to_string f
      in
      Format.printf "%-12s %26s %26s@." name (run true) (run false))
    [
      ("mine-pump", Case_studies.mine_pump);
      ("fig8", Case_studies.fig8_preemptive);
      ("fig4", Case_studies.fig4_exclusion);
    ]

(* --- A2: branch-ordering policies ------------------------------------ *)

let a2 () =
  section "A2" "Ablation: search ordering policy (mine pump)";
  Format.printf "%-8s %12s %12s %12s %10s@." "policy" "states" "backtracks"
    "time (ms)" "feasible";
  List.iter
    (fun (name, policy) ->
      let options =
        { Search.default_options with policy; max_stored = 200_000 }
      in
      let _, outcome, metrics = solve ~options Case_studies.mine_pump in
      Format.printf "%-8s %12d %12d %12.1f %10s@." name metrics.Search.stored
        metrics.Search.backtracks (ms metrics)
        (match outcome with
        | Ok _ -> "yes"
        | Error Search.Infeasible -> "no"
        | Error Search.Budget_exhausted -> "budget"))
    Priority.all

(* --- A3: pre-runtime vs runtime scheduling --------------------------- *)

let a3 () =
  section "A3" "Pre-runtime synthesis vs runtime policies (motivation)";
  List.iter
    (fun (name, spec, search) ->
      Format.printf "%s:@.%a" name Baseline_compare.pp
        (Baseline_compare.run_all ?search spec))
    [
      ("mine-pump (np-EDF anomaly)", Case_studies.mine_pump, None);
      ( "greedy-trap (inserted idle time)",
        Case_studies.greedy_trap,
        Some { Search.default_options with latest_release = true } );
      ("fig4 (exclusion)", Case_studies.fig4_exclusion, None);
    ]

(* --- A4: scaling sweep ------------------------------------------------ *)

let scaling_family ~preemptive n =
  let periods = [| 20; 40; 80 |] in
  let tasks =
    List.init n (fun i ->
        Task.make
          ~name:(Printf.sprintf "s%d" i)
          ~wcet:(1 + (i mod 2))
          ~deadline:periods.(i mod 3)
          ~period:periods.(i mod 3)
          ~mode:(if preemptive then Task.Preemptive else Task.Non_preemptive)
          ())
  in
  Spec.make ~name:(Printf.sprintf "family-%d" n) ~tasks ()

let a4 () =
  section "A4" "Scaling sweep: task-set size vs search cost (non-preemptive)";
  Format.printf "%-6s %6s %10s %12s %12s %10s@." "tasks" "U" "instances"
    "states" "time (ms)" "feasible";
  List.iter
    (fun n ->
      let spec = scaling_family ~preemptive:false n in
      let _, outcome, metrics = solve spec in
      Format.printf "%-6d %6.2f %10d %12d %12.2f %10s@." n
        (Spec.utilization spec)
        (Spec.total_instances spec)
        metrics.Search.stored (ms metrics)
        (match outcome with
        | Ok _ -> "yes"
        | Error Search.Infeasible -> "no"
        | Error Search.Budget_exhausted -> "budget"))
    [ 2; 4; 6; 8; 10; 12 ]

(* --- A5: preemptive vs non-preemptive state cost ---------------------- *)

let a5 () =
  section "A5" "Preemptive vs non-preemptive state-space cost";
  Format.printf "%-6s %22s %22s@." "tasks" "non-preemptive" "preemptive";
  List.iter
    (fun n ->
      let run preemptive =
        let _, outcome, metrics = solve (scaling_family ~preemptive n) in
        match outcome with
        | Ok _ ->
          Printf.sprintf "%d st / %.1f ms" metrics.Search.stored (ms metrics)
        | Error Search.Infeasible -> "infeasible"
        | Error Search.Budget_exhausted -> "budget"
      in
      Format.printf "%-6d %22s %22s@." n (run false) (run true))
    [ 2; 4; 6; 8 ]

(* --- A6: dispatcher overhead (dispOveh) -------------------------------- *)

let a6 () =
  section "A6" "Dispatcher overhead absorption (metamodel dispOveh)";
  Format.printf "%-14s %26s@." "spec" "max tolerable overhead";
  List.iter
    (fun (name, spec) ->
      match synthesize spec with
      | Ok artifact ->
        Format.printf "%-14s %26d@." name
          (Vm.max_tolerable_overhead artifact.model artifact.table)
      | Error e -> Format.printf "%-14s %26s@." name (error_to_string e))
    [
      ("mine-pump", Case_studies.mine_pump);
      ("quickstart", Case_studies.quickstart);
      ("fig8", Case_studies.fig8_preemptive);
      ("fig3", Case_studies.fig3_precedence);
    ]

(* --- A7: analytic schedulability vs exhaustive synthesis -------------- *)

let a7 () =
  section "A7" "Response-time analysis vs simulation vs synthesis";
  Format.printf "%-6s %6s %10s %14s %14s %14s@." "tasks" "U" "LL-bound"
    "RTA (DM)" "DM simulation" "DFS synthesis";
  List.iter
    (fun n ->
      let spec = scaling_family ~preemptive:true n in
      let rta =
        match Rta.analyze ~policy:Rta.Deadline_monotonic spec with
        | Ok report ->
          ( report.Rta.liu_layland_bound,
            if report.Rta.all_schedulable then "schedulable" else "miss" )
        | Error msg -> (nan, msg)
      in
      let sim =
        if (Baseline_sim.simulate Baseline_sim.Dm spec).Baseline_sim.feasible
        then "feasible"
        else "infeasible"
      in
      let dfs =
        match solve spec with
        | _, Ok _, _ -> "feasible"
        | _, Error _, _ -> "infeasible"
      in
      Format.printf "%-6d %6.2f %10.3f %14s %14s %14s@." n
        (Spec.utilization spec) (fst rta) (snd rta) sim dfs)
    [ 2; 4; 6; 8; 10 ];
  (* RTA's blocking bound is pessimistic: a preemptive task over a long
     non-preemptive one is declared a miss analytically, while both the
     simulation (synchronous phasing) and the exhaustive synthesis
     schedule it. *)
  let mixed =
    Spec.make ~name:"mixed"
      ~tasks:
        [
          Task.make ~name:"hi" ~wcet:2 ~deadline:6 ~period:10
            ~mode:Task.Preemptive ();
          Task.make ~name:"lo" ~wcet:5 ~deadline:20 ~period:20 ();
        ]
      ()
  in
  let rta_verdict =
    match Rta.analyze mixed with
    | Ok r -> if r.Rta.all_schedulable then "schedulable" else "miss (B=5)"
    | Error msg -> msg
  in
  let sim_verdict =
    if (Baseline_sim.simulate Baseline_sim.Dm mixed).Baseline_sim.feasible
    then "feasible" else "infeasible"
  in
  let dfs_verdict =
    match solve mixed with _, Ok _, _ -> "feasible" | _, Error _, _ -> "infeasible"
  in
  Format.printf
    "mixed np/preemptive pessimism:      %14s %14s %14s@."
    rta_verdict sim_verdict dfs_verdict

(* --- A8: discrete TLTS engine vs dense-time state-class engine ------- *)

let a8 () =
  section "A8" "Search engine: discrete states vs dense-time state classes";
  Format.printf "%-14s %24s %24s@." "spec" "discrete (states/ms)"
    "classes (nodes/ms)";
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let discrete =
        match Search.find_schedule model with
        | Ok _, m ->
          Printf.sprintf "%d / %.1f" m.Search.stored (m.Search.elapsed_s *. 1000.)
        | Error f, _ -> Search.failure_to_string f
      in
      let classes =
        match Class_search.find_schedule model with
        | Ok _, m ->
          Printf.sprintf "%d / %.1f" m.Class_search.stored
            (m.Class_search.elapsed_s *. 1000.)
        | Error f, _ -> Class_search.failure_to_string f
      in
      Format.printf "%-14s %24s %24s@." name discrete classes)
    [
      ("mine-pump", Case_studies.mine_pump);
      ("flight-control", Case_studies.flight_control);
      ("fig8", Case_studies.fig8_preemptive);
      ("greedy-trap", Case_studies.greedy_trap);
    ];
  Format.printf
    "note: the class engine needs no inserted-idle option on the greedy \
     trap@.";
  (* class-graph sizes versus discrete reachability on the relation
     models *)
  Format.printf "@.full graph sizes (reachability, not search):@.";
  List.iter
    (fun (name, spec) ->
      let net = (Translate.translate spec).Translate.net in
      let classes = State_class.explore ~max_classes:50_000 net in
      let included =
        State_class.explore ~max_classes:50_000 ~inclusion:true net
      in
      let states = Tlts.explore ~max_states:50_000 net in
      let cmp = State_class.compare_reachable_markings ~max_states:50_000 net in
      Format.printf
        "  %-12s classes=%-6d with-inclusion=%-6d discrete=%-6d shared \
         markings=%d dense-only=%d@."
        name classes.State_class.classes included.State_class.classes
        states.Tlts.states cmp.State_class.common
        cmp.State_class.classes_only)
    [
      ("fig3", Case_studies.fig3_precedence);
      ("fig4", Case_studies.fig4_exclusion);
      ("quickstart", Case_studies.quickstart);
    ]

(* --- A9: WCET sensitivity margins ------------------------------------- *)

let a9 () =
  section "A9" "WCET sensitivity (largest schedulable WCET per task)";
  (* probes against near-infeasible variants can backtrack heavily, so
     each probe gets a bounded state budget; budget-exhausted probes
     count as infeasible, making the reported margins conservative *)
  let options = { Search.default_options with max_stored = 25_000 } in
  List.iter
    (fun (name, spec) ->
      Format.printf "%s:@." name;
      match Sensitivity.analyze ~options spec with
      | Ok t -> Format.printf "%a" Sensitivity.pp t
      | Error msg -> Format.printf "  %s@." msg)
    [
      ("quickstart", Case_studies.quickstart);
      ("flight-control", Case_studies.flight_control);
      ("mine-pump", Case_studies.mine_pump);
    ];
  Format.printf
    "@.deadline margins (smallest schedulable deadline = exact \
     best-achievable response bound):@.";
  List.iter
    (fun (name, spec) ->
      Format.printf "%s:@." name;
      match Sensitivity.deadline_margins ~options spec with
      | Ok t -> Format.printf "%a" Sensitivity.pp_deadlines t
      | Error msg -> Format.printf "  %s@." msg)
    [
      ("quickstart", Case_studies.quickstart);
      ("flight-control", Case_studies.flight_control);
    ]

(* --- A10: schedule quality -------------------------------------------- *)

let a10 () =
  section "A10" "Schedule quality (responses, jitter, preemptions)";
  List.iter
    (fun (name, spec) ->
      match synthesize spec with
      | Ok artifact ->
        Format.printf "%s:@.%a@." name Quality.pp
          (Quality.of_timeline artifact.model artifact.segments)
      | Error e -> Format.printf "%s: %s@." name (error_to_string e))
    [
      ("fig8", Case_studies.fig8_preemptive);
      ("flight-control", Case_studies.flight_control);
    ];
  (* preemption counts per ordering policy on fig8, against the exact
     branch-and-bound optimum *)
  Format.printf "preemptions by policy (fig8):@.";
  List.iter
    (fun (name, policy) ->
      let options = { Search.default_options with policy } in
      match solve ~options Case_studies.fig8_preemptive with
      | model, Ok schedule, _ ->
        let segments = Timeline.of_schedule model schedule in
        let q = Quality.of_timeline model segments in
        Format.printf "  %-12s %d preemptions, %d rows@." name
          q.Quality.total_preemptions q.Quality.context_switches
      | _, Error f, _ ->
        Format.printf "  %-12s %s@." name (Search.failure_to_string f))
    Priority.all;
  (match
     Optimize.min_preemptions (Translate.translate Case_studies.fig8_preemptive)
   with
  | Ok o ->
    Format.printf
      "  %-12s %d preemptions (proven minimum, %d B&B nodes)@." "exact"
      o.Optimize.preemptions o.Optimize.explored
  | Error f ->
    Format.printf "  %-12s %s@." "exact" (Search.failure_to_string f))

(* --- A11: schedulability vs utilization (random campaign) ------------- *)

(* Deterministic LCG so the campaign is reproducible run to run. *)
let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state mod bound

let random_spec rand ~target_u ~n_tasks =
  let periods = [| 10; 20; 40 |] in
  let tasks =
    List.init n_tasks (fun i ->
        let period = periods.(rand 3) in
        let share = target_u /. float_of_int n_tasks in
        let wcet =
          max 1
            (int_of_float (share *. float_of_int period)
            + (rand 3 - 1))
        in
        let wcet = min wcet period in
        let slack = rand (period - wcet + 1) in
        Task.make
          ~name:(Printf.sprintf "r%d" i)
          ~wcet ~deadline:(wcet + slack) ~period ())
  in
  Spec.make ~name:"campaign" ~tasks ()

let a11 () =
  section "A11" "Schedulability vs utilization (random non-preemptive sets)";
  let trials = 40 in
  Format.printf "%d random 5-task sets per bucket; %% schedulable@." trials;
  Format.printf "%-8s %8s %8s %8s %8s@." "target U" "DFS" "EDF sim" "RM sim"
    "RTA(DM)";
  List.iter
    (fun target_u ->
      let rand = lcg (int_of_float (target_u *. 1000.)) in
      let dfs = ref 0 and edf = ref 0 and rm = ref 0 and rta = ref 0 in
      let valid = ref 0 in
      let attempts = ref 0 in
      while !valid < trials && !attempts < trials * 20 do
        incr attempts;
        let spec = random_spec rand ~target_u ~n_tasks:5 in
        if Validate.is_valid spec then begin
          incr valid;
          (match solve spec with _, Ok _, _ -> incr dfs | _, Error _, _ -> ());
          if (Baseline_sim.simulate Baseline_sim.Edf spec).Baseline_sim.feasible
          then incr edf;
          if (Baseline_sim.simulate Baseline_sim.Rm spec).Baseline_sim.feasible
          then incr rm;
          match Rta.analyze spec with
          | Ok r when r.Rta.all_schedulable -> incr rta
          | Ok _ | Error _ -> ()
        end
      done;
      let pct x = 100. *. float_of_int x /. float_of_int (max 1 !valid) in
      Format.printf "%-8.2f %7.0f%% %7.0f%% %7.0f%% %7.0f%%@." target_u
        (pct !dfs) (pct !edf) (pct !rm) (pct !rta))
    [ 0.3; 0.5; 0.7; 0.9 ];
  Format.printf
    "(DFS dominates: it subsumes every priority-driven schedule and adds \
     inserted-idle and non-greedy orders; RTA is sufficient-only and \
     penalizes np blocking)@."

(* --- A12: temporal isolation under WCET overruns ----------------------- *)

(* The blocker has ample slack; the victim arrives at t=1 with a tight
   deadline.  A fault on the blocker makes priority-driven execution
   push the victim past its deadline, while the time-driven table cuts
   the blocker at its slot boundary. *)
let overrun_pair =
  Spec.make ~name:"overrun-pair"
    ~tasks:
      [
        Task.make ~name:"blocker" ~wcet:2 ~deadline:20 ~period:20 ();
        Task.make ~name:"victim" ~phase:1 ~wcet:3 ~deadline:6 ~period:20 ();
      ]
    ()

let a12 () =
  section "A12" "Temporal isolation under WCET overruns (fault injection)";
  (match synthesize overrun_pair with
  | Error e -> Format.printf "synthesis failed: %s@." (error_to_string e)
  | Ok artifact ->
    Format.printf "planned table:@.%a" (Table.pp artifact.model) artifact.table;
    List.iter
      (fun extra ->
        let vm_faults = [ { Vm.f_task = 0; f_instance = 0; f_extra = extra } ] in
        let table_verdict =
          match Vm.isolation_check ~faults:vm_faults artifact.model artifact.table with
          | Ok overruns ->
            Printf.sprintf "isolated (%d overrun event(s) on the faulty instance)"
              overruns
          | Error vs ->
            Printf.sprintf "LEAKED: %s"
              (Validator.violation_to_string (List.hd vs))
        in
        let sim_faults =
          [ { Baseline_sim.f_task = 0; f_instance = 0; f_extra = extra } ]
        in
        let edf_verdict =
          match
            (Baseline_sim.simulate ~faults:sim_faults Baseline_sim.Edf
               overrun_pair)
              .Baseline_sim.first_miss
          with
          | None -> "absorbed"
          | Some m ->
            Printf.sprintf "cascading miss on %s#%d at t=%d"
              (Array.of_list overrun_pair.Spec.tasks).(m.Baseline_sim.task)
                .Task.name m.Baseline_sim.instance m.Baseline_sim.time
        in
        Format.printf "blocker overrun +%d:  table-driven: %-55s EDF: %s@."
          extra table_verdict edf_verdict)
      [ 0; 1; 3; 6 ]);
  Format.printf
    "(the table confines the damage to the faulty instance; data-flow \
     consequences of its truncation are the application's concern)@."

(* --- A13: schedule-table ROM footprint per target ---------------------- *)

let a13 () =
  section "A13" "Schedule-table ROM footprint (per code-generation target)";
  Format.printf
    "%-14s %6s | %s@." "spec" "rows"
    (String.concat " | "
       (List.map (fun (name, _) -> Printf.sprintf "%10s" name) Target.all));
  List.iter
    (fun (name, spec) ->
      match synthesize spec with
      | Error e -> Format.printf "%-14s %s@." name (error_to_string e)
      | Ok artifact ->
        let cells =
          List.map
            (fun (_, target) ->
              let fp = Emit.table_footprint target artifact.table in
              Printf.sprintf "%7d B%s" fp.Emit.table_bytes
                (match fp.Emit.fits_flash with
                | Some true -> "  "
                | Some false -> " !"
                | None -> "  "))
            Target.all
        in
        Format.printf "%-14s %6d | %s@." name
          (List.length artifact.table)
          (String.concat " | " cells))
    [
      ("quickstart", Case_studies.quickstart);
      ("fig8", Case_studies.fig8_preemptive);
      ("flight-control", Case_studies.flight_control);
      ("mine-pump", Case_studies.mine_pump);
    ];
  Format.printf
    "('!' = exceeds the profile's typical flash budget)@.";
  (* the compact layout (16-bit deltas + packed flag/task byte) is the
     future-work "optimize the generated code" answer *)
  (match synthesize Case_studies.mine_pump with
  | Error e -> Format.printf "%s@." (error_to_string e)
  | Ok artifact ->
    let s = Emit.table_footprint Target.i8051 artifact.table in
    let c =
      Emit.table_footprint ~layout:Emit.Compact_table Target.i8051
        artifact.table
    in
    Format.printf
      "mine-pump on the 8051: struct layout %d B (exceeds 4096), compact \
       layout %d B (fits: %b) — the same dispatcher semantics, verified by \
       the generated-code tests@."
      s.Emit.table_bytes c.Emit.table_bytes
      (c.Emit.fits_flash = Some true))

(* --- A14: parallel portfolio race -------------------------------------- *)

let a14 () =
  section "A14" "Parallel portfolio race (OCaml 5 domains)";
  Format.printf "recommended domains on this machine: %d@."
    (Domain.recommended_domain_count ());
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let result = Portfolio.find_schedule model in
      let winner =
        match result.Portfolio.winner with
        | Some cfg -> Portfolio.config_to_string cfg
        | None -> "-"
      in
      let cancelled =
        List.length
          (List.filter
             (fun (a : Portfolio.attempt) -> a.Portfolio.cancelled)
             result.Portfolio.attempts)
      in
      let loser_stored =
        List.fold_left
          (fun acc (a : Portfolio.attempt) ->
            if Some a.Portfolio.config = result.Portfolio.winner then acc
            else acc + a.Portfolio.metrics.Search.stored)
          0 result.Portfolio.attempts
      in
      (* per-member records: losers' and cancelled members' work used to
         be invisible here, underreporting what the race actually cost *)
      let member_json (a : Portfolio.attempt) =
        Printf.sprintf
          "{\"config\": %S, \"outcome\": %S, \"stored\": %d, \"visited\": \
           %d, \"elapsed_ms\": %.3f, \"cancelled\": %b}"
          (Portfolio.config_to_string a.Portfolio.config)
          (match a.Portfolio.outcome with
          | Ok _ -> "feasible"
          | Error f -> Search.failure_to_string f)
          a.Portfolio.metrics.Search.stored a.Portfolio.metrics.Search.visited
          (a.Portfolio.metrics.Search.elapsed_s *. 1000.)
          a.Portfolio.cancelled
      in
      Format.printf
        "%-14s %s on %d domain(s), %d config(s) started, %d finished (%d \
         cancelled, %d loser states), %.1f ms (winner: %s)@."
        name
        (match result.Portfolio.outcome with
        | Ok _ -> "feasible"
        | Error f -> Search.failure_to_string f)
        result.Portfolio.domains_used result.Portfolio.configs_started
        (List.length result.Portfolio.attempts)
        cancelled loser_stored
        (result.Portfolio.elapsed_s *. 1000.)
        winner;
      add_json ("A14_portfolio_" ^ name)
        [
          ("spec", jstr name);
          ("feasible", jbool (Result.is_ok result.Portfolio.outcome));
          ("winner", jstr winner);
          ("domains_used", jint result.Portfolio.domains_used);
          ("configs_started", jint result.Portfolio.configs_started);
          ("configs_finished", jint (List.length result.Portfolio.attempts));
          ("configs_cancelled", jint cancelled);
          ("loser_stored_states", jint loser_stored);
          ("elapsed_ms", jfloat (result.Portfolio.elapsed_s *. 1000.));
          ( "members",
            "["
            ^ String.concat ", "
                (List.map member_json result.Portfolio.attempts)
            ^ "]" );
        ])
    [
      ("mine-pump", Case_studies.mine_pump);
      ("flight-control", Case_studies.flight_control);
      ("greedy-trap", Case_studies.greedy_trap);
    ]

(* --- A17: subsumption-pruned symbolic class engine ---------------------- *)

(* A deterministic generated spec whose search is large: tight deadlines
   force heavy backtracking into an exhaustive infeasibility proof. *)
let large_tight_spec =
  let periods = [| 25; 50; 100 |] in
  let tasks =
    List.init 8 (fun i ->
        let period = periods.(i mod 3) in
        let wcet = 2 * (2 + (i mod 3)) in
        Task.make
          ~name:(Printf.sprintf "t%d" i)
          ~wcet
          ~deadline:(min period (wcet + 2 + (i mod 4)))
          ~period ())
  in
  Spec.make ~name:"large-tight-8" ~tasks ()

(* Relation-heavy infeasible spec (five tasks, near-complete exclusion
   clique plus one precedence): the search exhausts the class graph,
   where the same marking recurs under nested domains — the workload
   inclusion subsumption exists for.  Mirrors
   Test_class_search.relations_spec. *)
let relations_spec =
  let mk i d =
    Task.make ~name:(Printf.sprintf "q%d" i) ~wcet:7 ~deadline:d ~period:40 ()
  in
  let tasks = [ mk 0 22; mk 1 22; mk 2 26; mk 3 30; mk 4 34 ] in
  let id i = (List.nth tasks i).Task.id in
  let pairs =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if j > i then Some (id i, id j) else None)
          [ 0; 1; 2; 3; 4 ])
      [ 0; 1; 2; 3; 4 ]
  in
  Spec.make ~name:"relations" ~tasks
    ~precedences:[ (id 0, id 1) ]
    ~exclusions:(List.filter (fun p -> p <> (id 0, id 1)) pairs)
    ()

let a17 () =
  section "A17" "Class engine: hash-consed store, subsumption";
  let runs = 3 in
  let min_by_snd xs =
    List.fold_left
      (fun acc x -> if snd x < snd acc then x else acc)
      (List.hd xs) (List.tl xs)
  in
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let cls_ms (m : Class_search.metrics) = m.Class_search.elapsed_s *. 1000. in
      let (outcome, m), on_ms =
        min_by_snd
          (List.init runs (fun _ ->
               let r = Class_search.find_schedule model in
               (r, cls_ms (snd r))))
      in
      let (_, m_off), off_ms =
        min_by_snd
          (List.init runs (fun _ ->
               let r = Class_search.find_schedule ~subsume:false model in
               (r, cls_ms (snd r))))
      in
      let classes_per_s =
        float_of_int m.Class_search.visited /. max 1e-9 m.Class_search.elapsed_s
      in
      Format.printf
        "%-14s %s: %5d stored (%4d subsumed) %8.1f ms, %8.0f classes/s | \
         no-subsume %5d stored %8.1f ms@."
        name
        (if Result.is_ok outcome then "feasible" else "infeasible")
        m.Class_search.stored m.Class_search.subsumed on_ms classes_per_s
        m_off.Class_search.stored off_ms;
      add_json ("A17_class_" ^ name)
        [
          ("spec", jstr name);
          ("feasible", jbool (Result.is_ok outcome));
          ("runs", jint runs);
          ("stored_classes", jint m.Class_search.stored);
          ("visited_classes", jint m.Class_search.visited);
          ("subsumed", jint m.Class_search.subsumed);
          ("stored_classes_no_subsume", jint m_off.Class_search.stored);
          ("classes_per_s", jfloat classes_per_s);
          ("elapsed_ms", jfloat on_ms);
          ("no_subsume_elapsed_ms", jfloat off_ms);
        ])
    [
      ("mine-pump", Case_studies.mine_pump);
      ("large-tight-8", large_tight_spec);
      ("relations", relations_spec);
    ]

(* --- A18: analytic schedulability pre-pass ------------------------------ *)

(* A demand-overloaded pair (quick-reject) and the paper's independent
   preemptive set (quick-accept), each solved twice: pre-pass on versus
   the raced portfolio baseline.  The harness asserts the pre-pass
   actually decided at least one profile — otherwise the record would
   silently measure two identical races. *)
let a18 () =
  section "A18" "Analytic pre-pass (quick-reject / quick-accept vs the race)";
  let overload =
    Spec.make ~name:"demand-overload"
      ~tasks:
        [
          Task.make ~name:"a" ~wcet:5 ~deadline:5 ~period:10 ();
          Task.make ~name:"b" ~wcet:5 ~deadline:6 ~period:10 ();
        ]
      ()
  in
  let decided = ref 0 in
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let with_pre = Portfolio.find_schedule ~domains:1 model in
      let baseline =
        Portfolio.find_schedule ~domains:1 ~analysis:false model
      in
      let pre_decided =
        match with_pre.Portfolio.prepass with
        | Portfolio.Prepass_rejected _ | Portfolio.Prepass_accepted -> true
        | Portfolio.Prepass_off | Portfolio.Prepass_unknown _
        | Portfolio.Prepass_uncertified _ -> false
      in
      if pre_decided then incr decided;
      if
        Result.is_ok with_pre.Portfolio.outcome
        <> Result.is_ok baseline.Portfolio.outcome
      then
        failwith
          ("A18: pre-pass and raced portfolio disagree on " ^ name);
      let pre_ms = with_pre.Portfolio.elapsed_s *. 1000. in
      let base_ms = baseline.Portfolio.elapsed_s *. 1000. in
      Format.printf
        "%-16s %s — pre-pass %s in %.2f ms, raced portfolio %.2f ms \
         (%.0fx)@."
        name
        (match with_pre.Portfolio.outcome with
        | Ok _ -> "feasible"
        | Error f -> Search.failure_to_string f)
        (Portfolio.prepass_to_string with_pre.Portfolio.prepass)
        pre_ms base_ms
        (base_ms /. Float.max 1e-6 pre_ms);
      add_json ("A18_analysis_" ^ name)
        [
          ("spec", jstr name);
          ("prepass", jstr (Portfolio.prepass_to_string with_pre.Portfolio.prepass));
          ("decided_without_search", jbool pre_decided);
          ("feasible", jbool (Result.is_ok with_pre.Portfolio.outcome));
          ("analysis_ms", jfloat pre_ms);
          ("portfolio_ms", jfloat base_ms);
          ("speedup", jfloat (base_ms /. Float.max 1e-6 pre_ms));
        ])
    [
      ("demand-overload", overload);
      ("edf-schedulable", Case_studies.fig8_preemptive);
    ];
  if !decided = 0 then
    failwith "A18: the analytic pre-pass decided no profile";
  Format.printf "pre-pass decided %d/2 profiles without any search@." !decided

(* --- A19: synthesis service result cache -------------------------------- *)

(* The same corpus solved twice through the service path: a cold run
   populating the on-disk content-addressed cache, then a warm run with
   a fresh cache instance over the same directory, so every hit travels
   decode -> replay -> certify.  The verdict lines must be
   byte-identical; the warm run's win is re-validation cost versus
   search cost.  Renamed copies of the case studies are distinct cold
   entries because the specification name participates in the digest. *)
let a19 () =
  section "A19" "Service result cache (cold corpus vs warm re-validated hits)";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ezrt-bench-a19-%d" (Unix.getpid ()))
  in
  let copies n spec =
    List.init n (fun i ->
        { spec with Spec.name = Printf.sprintf "%s#%d" spec.Spec.name i })
  in
  let corpus =
    copies 4 Case_studies.mine_pump
    @ copies 4 Case_studies.greedy_trap
    @ List.init 4 (fun i -> Spec_gen.spec_at ~profile:Spec_gen.smoke ~seed:11 i)
  in
  let run cache =
    let t0 = Unix.gettimeofday () in
    let lines =
      List.map
        (fun spec ->
          match Server.solve ~cache spec with
          | Ok o -> Server.verdict_line o
          | Error msg -> failwith ("A19: solve failed: " ^ msg))
        corpus
    in
    (lines, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let cold_lines, cold_ms = run (Result_cache.create ~dir ()) in
  let warm_cache = Result_cache.create ~dir () in
  let warm_lines, warm_ms = run warm_cache in
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if cold_lines <> warm_lines then
    failwith "A19: warm verdicts diverge from the cold run";
  let k = Result_cache.counters warm_cache in
  if k.Result_cache.hits = 0 then failwith "A19: warm run never hit the cache";
  let speedup = cold_ms /. Float.max 1e-6 warm_ms in
  Format.printf
    "corpus of %d specs: cold %.1f ms, warm %.1f ms (%.1fx; %d hit(s), %d \
     miss(es), %d invalid)@."
    (List.length corpus) cold_ms warm_ms speedup k.Result_cache.hits
    k.Result_cache.misses k.Result_cache.invalid;
  add_json "A19_service_cache"
    [
      ("corpus_specs", jint (List.length corpus));
      ("cold_ms", jfloat cold_ms);
      ("warm_ms", jfloat warm_ms);
      ("warm_speedup", jfloat speedup);
      ("warm_hits", jint k.Result_cache.hits);
      ("warm_misses", jint k.Result_cache.misses);
      ("verdicts_identical", jbool true);
    ]

(* --- A21: structural lint throughput ----------------------------------- *)

(* Lint the 500-spec seed-42 generated corpus (the fuzz campaign's
   corpus) with the full pass — invariants, skeleton, dead structure,
   siphon/trap, gate explain.  The corpus must lint without a single
   error and without a single gate-explain mismatch; throughput is the
   headline number (the lint pass is the service layer's cheap
   pre-search oracle, so specs/s is what matters). *)

let a21 ?(count = 500) () =
  section "A21"
    (Printf.sprintf "Structural lint throughput (%d-spec seeded corpus)"
       count);
  let specs = List.init count (fun i -> Spec_gen.spec_at ~seed:42 i) in
  let started = Unix.gettimeofday () in
  let errors = ref 0 and warnings = ref 0 and infos = ref 0 in
  let truncated = ref 0 and mismatches = ref 0 and certs = ref 0 in
  List.iter
    (fun spec ->
      let r = Lint.check_model (Translate.translate spec) in
      errors := !errors + Lint.count Lint.Error r;
      warnings := !warnings + Lint.count Lint.Warning r;
      infos := !infos + Lint.count Lint.Info r;
      if r.Lint.truncated then incr truncated;
      certs := !certs + List.length r.Lint.certificates;
      List.iter
        (fun (d : Lint.diagnostic) ->
          if String.equal d.Lint.code "EZRT-L013" then incr mismatches)
        r.Lint.diagnostics)
    specs;
  let elapsed = Unix.gettimeofday () -. started in
  let specs_per_s = float_of_int count /. max 1e-9 elapsed in
  if !mismatches > 0 then
    failwith "A21: gate-explain disagreed with a live gate";
  if !errors > 0 then
    failwith "A21: the generated corpus must lint without errors";
  Format.printf
    "%d specs linted in %.2f s (%.0f specs/s) — %d warning(s), %d info(s), \
     %d certificate(s), %d truncated@."
    count elapsed specs_per_s !warnings !infos !certs !truncated;
  add_json "A21_lint"
    [
      ("specs", jint count);
      ("errors", jint !errors);
      ("warnings", jint !warnings);
      ("infos", jint !infos);
      ("certificates", jint !certs);
      ("truncated", jint !truncated);
      ("gate_mismatches", jint !mismatches);
      ("elapsed_s", jfloat elapsed);
      ("specs_per_s", jfloat specs_per_s);
    ]

(* --- A15: differential fuzzing throughput ------------------------------ *)

let a15 () =
  section "A15" "Differential fuzzing throughput (5 engines + oracles per spec)";
  let stats = Fuzz.run ~profile:Spec_gen.smoke ~seed:7 ~count:150 () in
  Format.printf
    "%d specs (seed %d): %d feasible, %d infeasible, %d inconclusive, %d \
     divergent in %.1f s — %.1f specs/s@."
    stats.Fuzz.generated stats.Fuzz.seed stats.Fuzz.feasible
    stats.Fuzz.infeasible stats.Fuzz.unknown
    (List.length stats.Fuzz.divergent)
    stats.Fuzz.elapsed_s (Fuzz.specs_per_s stats);
  add_json "A15_fuzz_differential"
    [
      ("seed", jint stats.Fuzz.seed);
      ("specs", jint stats.Fuzz.generated);
      ("feasible", jint stats.Fuzz.feasible);
      ("infeasible", jint stats.Fuzz.infeasible);
      ("inconclusive", jint stats.Fuzz.unknown);
      ("divergent", jint (List.length stats.Fuzz.divergent));
      ("elapsed_s", jfloat stats.Fuzz.elapsed_s);
      ("specs_per_s", jfloat (Fuzz.specs_per_s stats));
    ]

(* --- Bechamel micro-benchmarks ---------------------------------------- *)

let bechamel_suite () =
  let open Bechamel in
  let mine_model = Translate.translate Case_studies.mine_pump in
  let mine_table =
    match Search.find_schedule mine_model with
    | Ok schedule, _ -> Table.of_schedule mine_model schedule
    | Error _, _ -> failwith "mine pump must be schedulable"
  in
  let mine_pnml = Pnml.to_string mine_model.Translate.net in
  let mine_dsl = Dsl.to_string Case_studies.mine_pump in
  let no_po = { Search.default_options with partial_order = false } in
  let tests =
    [
      Test.make ~name:"e1-mine-pump-schedule"
        (Staged.stage (fun () -> ignore (Search.find_schedule mine_model)));
      Test.make ~name:"e1-mine-pump-translate"
        (Staged.stage (fun () ->
             ignore (Translate.translate Case_studies.mine_pump)));
      Test.make ~name:"e2-fig8-synthesize"
        (Staged.stage (fun () ->
             ignore (synthesize Case_studies.fig8_preemptive)));
      Test.make ~name:"e3-fig3-synthesize"
        (Staged.stage (fun () ->
             ignore (synthesize Case_studies.fig3_precedence)));
      Test.make ~name:"e4-fig4-synthesize"
        (Staged.stage (fun () ->
             ignore (synthesize Case_studies.fig4_exclusion)));
      Test.make ~name:"e6-dsl-roundtrip"
        (Staged.stage (fun () -> ignore (Dsl.of_string mine_dsl)));
      Test.make ~name:"e7-pnml-roundtrip"
        (Staged.stage (fun () -> ignore (Pnml.of_string mine_pnml)));
      Test.make ~name:"a1-search-no-partial-order"
        (Staged.stage (fun () ->
             ignore (Search.find_schedule ~options:no_po mine_model)));
      Test.make ~name:"a3-baseline-edf-mine-pump"
        (Staged.stage (fun () ->
             ignore
               (Baseline_sim.simulate Baseline_sim.Edf Case_studies.mine_pump)));
      Test.make ~name:"vm-execute-mine-pump"
        (Staged.stage (fun () -> ignore (Vm.execute mine_model mine_table)));
      Test.make ~name:"codegen-mine-pump"
        (Staged.stage (fun () -> ignore (Emit.program mine_model mine_table)));
      Test.make ~name:"a8-class-search-mine-pump"
        (Staged.stage (fun () -> ignore (Class_search.find_schedule mine_model)));
      Test.make ~name:"a8-flight-control-synthesize"
        (Staged.stage (fun () ->
             ignore (synthesize Case_studies.flight_control)));
      Test.make ~name:"a10-quality-mine-pump"
        (Staged.stage
           (let segments =
              Timeline.of_schedule mine_model
                (match Search.find_schedule mine_model with
                | Ok s, _ -> s
                | Error _, _ -> assert false)
            in
            fun () -> ignore (Quality.of_timeline mine_model segments)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"ezrealtime" tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let nanos =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | Some [] | None -> nan
        in
        (name, nanos) :: acc)
      results []
  in
  section "BENCH" "Bechamel micro-benchmarks (monotonic clock)";
  List.iter
    (fun (name, nanos) ->
      Format.printf "  %-44s %12.0f ns/run  (%8.3f ms)@." name nanos
        (nanos /. 1e6))
    (List.sort compare rows)

(* --- regression guard (--check BASELINE.json) --------------------------- *)

(* Compares the entries just written against a committed baseline
   (BASELINE.json): verdicts must match exactly; stored_states may grow
   by at most 25% (plus a small absolute allowance for racy portfolio
   counts); states_per_s — and specs_per_s for the lint experiment —
   may drop to no less than 40% of the baseline: hosts differ,
   order-of-magnitude slowdowns are what the guard is for.  Lint
   gate-explain mismatches must stay at zero.  With [require_all] (the full run), baseline keys missing from
   the current run fail too: a renamed experiment must update the
   baseline deliberately.  Any violation exits non-zero so CI blocks
   the regression. *)
let check_against ~require_all ~current path =
  let parse file =
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Service_json.of_string s with
    | Ok (Service_json.Obj fields) -> fields
    | Ok _ -> failwith (file ^ ": expected a JSON object")
    | Error msg -> failwith (file ^ ": " ^ msg)
  in
  let base = parse path and cur = parse current in
  let violations = ref [] in
  let bad fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let compared = ref 0 in
  List.iter
    (fun (key, bentry) ->
      match List.assoc_opt key cur with
      | None ->
        if require_all && key <> "meta" then
          bad "%s: present in %s but missing from the current run" key path
      | Some _ when key = "meta" -> ()
      | Some centry ->
        incr compared;
        let field name entry conv =
          Option.bind (Service_json.member name entry) conv
        in
        let to_bool = function Service_json.Bool b -> Some b | _ -> None in
        (match
           (field "feasible" bentry to_bool, field "feasible" centry to_bool)
         with
        | Some b, Some c when b <> c ->
          bad "%s: verdict changed (baseline feasible=%b, now %b)" key b c
        | _ -> ());
        (match
           ( field "stored_states" bentry Service_json.to_int,
             field "stored_states" centry Service_json.to_int )
         with
        | Some b, Some c when c > (b * 5 / 4) + 64 ->
          bad "%s: stored_states regressed (baseline %d, now %d)" key b c
        | _ -> ());
        (match
           ( field "states_per_s" bentry Service_json.to_num,
             field "states_per_s" centry Service_json.to_num )
         with
        | Some b, Some c when b > 0. && c < 0.4 *. b ->
          bad "%s: states_per_s regressed (baseline %.0f, now %.0f)" key b c
        | _ -> ());
        (match
           ( field "specs_per_s" bentry Service_json.to_num,
             field "specs_per_s" centry Service_json.to_num )
         with
        | Some b, Some c when b > 0. && c < 0.4 *. b ->
          bad "%s: specs_per_s regressed (baseline %.0f, now %.0f)" key b c
        | _ -> ());
        (match
           ( field "gate_mismatches" bentry Service_json.to_int,
             field "gate_mismatches" centry Service_json.to_int )
         with
        | Some 0, Some c when c > 0 ->
          bad "%s: gate-explain mismatches appeared (now %d)" key c
        | _ -> ()))
    base;
  match !violations with
  | [] ->
    Format.printf "check: %d entr%s within tolerance of %s@." !compared
      (if !compared = 1 then "y" else "ies")
      path
  | vs ->
    List.iter (fun v -> Format.printf "check FAILED: %s@." v) (List.rev vs);
    exit 1

(* The harness takes the same observability flags as ezrt: --trace FILE,
   --metrics FILE and --progress — plus
   --smoke (CI subset: E1, A14, A17, A18, A19, A21) and
   --check BASELINE.json (regression guard, applied to the entries the
   run just wrote).  No cmdliner here — a
   hand scan of argv keeps bench dependency-free. *)
let obs_setup () =
  let argv = Sys.argv in
  let n = Array.length argv in
  let value_of flag =
    let found = ref None in
    for i = 1 to n - 2 do
      if String.equal argv.(i) flag then found := Some argv.(i + 1)
    done;
    !found
  in
  let has flag = Array.exists (String.equal flag) argv in
  (match value_of "--trace" with
  | Some path ->
    let sink = Obs_trace.create () in
    Obs_trace.install sink;
    at_exit (fun () ->
        Obs_trace.save_file path sink;
        Format.printf "trace written to %s@." path)
  | None -> ());
  (match value_of "--metrics" with
  | Some path ->
    at_exit (fun () ->
        Obs_metrics.save_file path;
        Format.printf "metrics written to %s@." path)
  | None -> ());
  if has "--progress" then Obs_progress.install (Obs_progress.create ());
  (has "--smoke", value_of "--check")

let () =
  let smoke, check = obs_setup () in
  Format.printf "ezRealtime benchmark harness (paper: DATE 2008)@.";
  record_meta ();
  if smoke then begin
    e1 ();
    a14 ();
    a17 ();
    a18 ();
    a19 ();
    a21 ()
  end
  else begin
    e1 ();
    e2 ();
    e3 ();
    e4 ();
    e5 ();
    e6 ();
    e7 ();
    e8 ();
    a1 ();
    a2 ();
    a3 ();
    a4 ();
    a5 ();
    a6 ();
    a7 ();
    a8 ();
    a9 ();
    a10 ();
    a11 ();
    a12 ();
    a13 ();
    a14 ();
    a15 ();
    a17 ();
    a18 ();
    a19 ();
    a21 ();
    bechamel_suite ()
  end;
  write_json "BENCH_search.json";
  Format.printf "@.wrote BENCH_search.json@.";
  (match check with
  | Some path ->
    check_against ~require_all:(not smoke) ~current:"BENCH_search.json" path
  | None -> ());
  Format.printf "done.@."
