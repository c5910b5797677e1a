(* Benchmark harness: regenerates every measurable table and figure of
   the paper (see DESIGN.md's experiment index).

   Sections E1-E8 print paper-reported versus measured values; A1-A13
   are the ablations DESIGN.md's experiment index and EXPERIMENTS.md
   cite.  Sections that measure a search also append a record to
   BENCH_search.json.  Every search it reports runs through
   [Pipeline.solve], so each schedule it counts as feasible or prints
   is certified.  The harness reports; regression checks live in the
   tests and in perfbench/.

   Run with:  dune exec bench/main.exe *)

open Ezrealtime

let line = String.make 72 '-'

let section id title =
  Format.printf "@.%s@.%s  %s@.%s@." line id title line

(* Validate, translate, search and certify; a spec that does not
   validate or a schedule that fails certification is a bug in the
   harness or the library, not a row of a table. *)
let solve ?(options = Search.default_options)
    ?(engine = Pipeline.Discrete options) spec =
  match Result.bind (Pipeline.translate spec) (Pipeline.solve ~engine) with
  | Ok r -> r
  | Error e -> failwith (Pipeline.error_to_string e)

let feasible r =
  match r.Pipeline.verdict with Pipeline.Certified _ -> true | _ -> false

(* "yes", "no" or "budget" *)
let verdict_cell r =
  match r.Pipeline.verdict with
  | Pipeline.Certified _ -> "yes"
  | Pipeline.Infeasible _ -> "no"
  | Pipeline.Timed_out | Pipeline.Undecided _ -> "budget"

(* a discrete search's verdict in the engine's own words *)
let discrete_why r =
  Pipeline.verdict_to_string (Pipeline.Discrete Search.default_options)
    r.Pipeline.verdict

let ms metrics = metrics.Search.elapsed_s *. 1000.

(* --- machine-readable output (BENCH_search.json) --------------------- *)
(* Besides the pretty tables, those experiments append a record here,
   for tools that read the numbers instead of the tables. *)

module Json = Obs_json

let records : (string * Json.t) list ref = ref []
let add_record key fields = records := (key, Json.Obj fields) :: !records

(* Run metadata, first entry in the file: the schema revision and the
   machine and compiler that produced the numbers. *)
let record_meta () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  let generated_utc =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  add_record "meta"
    [
      ("schema_version", Json.Num 2.);
      ("generated_utc", Json.Str generated_utc);
      ("hostname", Json.Str (Unix.gethostname ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("ezrt_version", Json.Str version);
    ]

let states_per_s metrics =
  float_of_int metrics.Search.visited /. max 1e-9 metrics.Search.elapsed_s

let record_search exp ?options (name, spec) =
  let r = solve ?options spec in
  let metrics = r.Pipeline.run in
  add_record exp
    [
      ("spec", Json.Str name);
      ("feasible", Json.Bool (feasible r));
      ("stored_states", Json.Num (float_of_int metrics.Search.stored));
      ("visited_states", Json.Num (float_of_int metrics.Search.visited));
      ("elapsed_ms", Json.Num (ms metrics));
      ("states_per_s", Json.Num (states_per_s metrics));
    ]

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
  let r = solve spec in
  let model = r.Pipeline.model and metrics = r.Pipeline.run in
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
  Format.printf "%-34s %14s %14b@." "certified schedule found" "yes"
    (feasible r);
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
  add_record "E1_engine_comparison"
    [
      ("spec", Json.Str "mine-pump");
      ("seed_elapsed_ms", Json.Num (seed_t *. 1000.));
      ("incremental_elapsed_ms", Json.Num (incr_t *. 1000.));
      ("seed_states_per_s", Json.Num (states_per_s seed_m));
      ("incremental_states_per_s", Json.Num (states_per_s incr_m));
      ("seed_writes_per_fire", Json.Num seed_wpf);
      ("incremental_writes_per_fire", Json.Num incr_wpf);
      ("write_reduction", Json.Num (seed_wpf /. max 1e-9 incr_wpf));
      ("speedup", Json.Num speedup);
      ("schedules_identical", Json.Bool identical);
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
  let r = solve spec in
  let net = r.Pipeline.model.Translate.net in
  Format.printf "net: %a@." Pnet.pp_summary net;
  List.iter
    (fun node ->
      Format.printf "  figure node %-16s present: %b@." node
        (Pnet.find_transition_opt net node <> None
         || Pnet.find_place_opt net node <> None))
    expectations;
  match r.Pipeline.verdict with
  | Pipeline.Certified { segments; _ } ->
    Format.printf "feasible schedule (%d states, %.1f ms); timeline:@.%a"
      r.Pipeline.run.Search.stored (ms r.Pipeline.run)
      (Timeline.pp r.Pipeline.model) segments;
    Format.printf "certified: every relation constraint holds@."
  | _ -> Format.printf "NO SCHEDULE: %s@." (discrete_why r)

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
        let r = solve ~options spec in
        if feasible r then
          Printf.sprintf "%d states / %.1f ms" r.Pipeline.run.Search.stored
            (ms r.Pipeline.run)
        else discrete_why r
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
      let r = solve ~options Case_studies.mine_pump in
      let metrics = r.Pipeline.run in
      Format.printf "%-8s %12d %12d %12.1f %10s@." name metrics.Search.stored
        metrics.Search.backtracks (ms metrics) (verdict_cell r))
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
      let r = solve spec in
      Format.printf "%-6d %6.2f %10d %12d %12.2f %10s@." n
        (Spec.utilization spec)
        (Spec.total_instances spec)
        r.Pipeline.run.Search.stored (ms r.Pipeline.run) (verdict_cell r))
    [ 2; 4; 6; 8; 10; 12 ]

(* --- A5: preemptive vs non-preemptive state cost ---------------------- *)

let a5 () =
  section "A5" "Preemptive vs non-preemptive state-space cost";
  Format.printf "%-6s %22s %22s@." "tasks" "non-preemptive" "preemptive";
  List.iter
    (fun n ->
      let run preemptive =
        let r = solve (scaling_family ~preemptive n) in
        match r.Pipeline.verdict with
        | Pipeline.Certified _ ->
          Printf.sprintf "%d st / %.1f ms" r.Pipeline.run.Search.stored
            (ms r.Pipeline.run)
        | Pipeline.Infeasible _ -> "infeasible"
        | Pipeline.Timed_out | Pipeline.Undecided _ -> "budget"
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
      let dfs = if feasible (solve spec) then "feasible" else "infeasible" in
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
    if feasible (solve mixed) then "feasible" else "infeasible"
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
      let run engine =
        let r = solve ~engine spec in
        if feasible r then
          Printf.sprintf "%d / %.1f" r.Pipeline.run.Search.stored
            (ms r.Pipeline.run)
        else Pipeline.verdict_to_string engine r.Pipeline.verdict
      in
      Format.printf "%-14s %24s %24s@." name
        (run (Pipeline.Discrete Search.default_options))
        (run (Pipeline.Classes { subsume = true; max_stored = 500_000 })))
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
  (* preemption counts per ordering policy on fig8 *)
  Format.printf "preemptions by policy (fig8):@.";
  List.iter
    (fun (name, policy) ->
      let options = { Search.default_options with policy } in
      let r = solve ~options Case_studies.fig8_preemptive in
      match r.Pipeline.verdict with
      | Pipeline.Certified { segments; _ } ->
        let q = Quality.of_timeline r.Pipeline.model segments in
        Format.printf "  %-12s %d preemptions, %d rows@." name
          q.Quality.total_preemptions q.Quality.context_switches
      | _ -> Format.printf "  %-12s %s@." name (discrete_why r))
    Priority.all

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
          if feasible (solve spec) then incr dfs;
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

(* The harness takes the same observability flags as ezrt: --trace FILE,
   --metrics FILE and --progress.  No cmdliner here — a hand scan of argv
   keeps bench dependency-free.  Any other argument prints the usage and
   exits 2 before a section runs or a file is written; --help prints it
   and exits 0. *)
let usage =
  "usage: bench/main.exe [--trace FILE] [--metrics FILE] [--progress]"

let obs_setup () =
  let progress = ref false in
  let trace = ref None and metrics = ref None in
  let rec scan = function
    | [] -> ()
    | "--help" :: _ ->
      print_endline usage;
      exit 0
    | "--progress" :: rest -> progress := true; scan rest
    | "--trace" :: file :: rest -> trace := Some file; scan rest
    | "--metrics" :: file :: rest -> metrics := Some file; scan rest
    | arg :: _ ->
      Printf.eprintf "bench: unexpected argument %S\n%s\n" arg usage;
      exit 2
  in
  scan (List.tl (Array.to_list Sys.argv));
  (match !trace with
  | Some path ->
    let sink = Obs_trace.create () in
    Obs_trace.install sink;
    at_exit (fun () ->
        Obs_trace.save_file path sink;
        Format.printf "trace written to %s@." path)
  | None -> ());
  (match !metrics with
  | Some path ->
    at_exit (fun () ->
        Obs_metrics.save_file path;
        Format.printf "metrics written to %s@." path)
  | None -> ());
  if !progress then Obs_progress.install (Obs_progress.create ())

let () =
  obs_setup ();
  Format.printf "ezRealtime benchmark harness (paper: DATE 2008)@.";
  record_meta ();
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
  Out_channel.with_open_text "BENCH_search.json" (fun oc ->
      Out_channel.output_string oc
        (Json.to_string (Json.Obj (List.rev !records)) ^ "\n"));
  Format.printf "@.wrote BENCH_search.json@.";
  Format.printf "done.@."
