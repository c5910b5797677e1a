(* ezrt: the ezRealtime command-line tool.

   Mirrors the paper's workflow: check a specification, model it as a
   time Petri net (PNML/DOT), synthesize a feasible pre-runtime
   schedule, generate scheduled C code, simulate the generated table on
   the virtual target, and compare against runtime-scheduling
   baselines. *)

open Ezrealtime
open Cmdliner
open Cli_common

(* --- check ---------------------------------------------------------- *)

let check_cmd =
  let run () file case =
    with_spec file case (fun spec ->
        let outcome = Validate.check spec in
        List.iter
          (fun w ->
            Printf.printf "warning: %s\n" (Validate.warning_to_string w))
          outcome.Validate.warnings;
        match outcome.Validate.errors with
        | [] ->
          Format.printf "%a@." Spec.pp spec;
          print_endline "specification is well-formed"
        | errors ->
          List.iter
            (fun e -> Printf.printf "error: %s\n" (Validate.error_to_string e))
            errors;
          exit 1)
  in
  Cmd.v (Cmd.info "check" ~doc:"Validate a specification.")
    Term.(const run $ obs_term $ file_arg $ case_arg)

(* --- info ----------------------------------------------------------- *)

let info_cmd =
  let digest_arg =
    Arg.(value & flag & info [ "digest" ]
           ~doc:"Print only the specification's content address — the \
                 canonical, order-insensitive digest that keys the \
                 result cache (see docs/SERVICE.md).")
  in
  let run () file case digest =
    (* the digest needs no net, so it works on an invalid spec too *)
    if digest then
      with_spec file case (fun spec -> print_endline (Spec_digest.digest spec))
    else
      with_model file case (fun spec model ->
          Format.printf "%a@." Spec.pp spec;
          List.iter
            (fun (id, n) ->
              match Spec.find_task spec id with
              | Some t -> Format.printf "  %a  instances=%d@." Task.pp t n
              | None -> ())
            (Spec.instance_counts spec);
          Format.printf "@.workload statistics:@.%a@." Stats.pp
            (Stats.compute spec);
          Format.printf "%a@." Translate.pp_inventory model)
  in
  Cmd.v (Cmd.info "info" ~doc:"Print the specification and model summary.")
    Term.(const run $ obs_term $ file_arg $ case_arg $ digest_arg)

(* --- model ---------------------------------------------------------- *)

let model_cmd =
  let pnml_out =
    Arg.(value & opt (some string) None & info [ "o"; "pnml" ] ~docv:"FILE"
           ~doc:"Write the PNML document here.")
  in
  let dot_out =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Write a Graphviz rendering here.")
  in
  let tina_out =
    Arg.(value & opt (some string) None & info [ "tina" ] ~docv:"FILE"
           ~doc:"Write a TINA .net rendering here.")
  in
  let run () file case pnml dot tina =
    with_model file case (fun _ model ->
        Format.printf "%a@." Pnet.pp_summary model.Translate.net;
        (match pnml with
        | Some path ->
          Pnml.save_file path model.Translate.net;
          Printf.printf "PNML written to %s\n" path
        | None ->
          print_string (Pnml.to_string model.Translate.net));
        (match dot with
        | Some path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Dot.to_dot model.Translate.net));
          Printf.printf "DOT written to %s\n" path
        | None -> ());
        match tina with
        | Some path ->
          Tina.save_file path model.Translate.net;
          Printf.printf "TINA .net written to %s\n" path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:"Translate the specification to a time Petri net (PNML).")
    Term.(const run $ obs_term $ file_arg $ case_arg $ pnml_out $ dot_out
          $ tina_out)

(* --- lint ----------------------------------------------------------- *)

let lint_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: $(b,text), $(b,json) or $(b,sarif) (SARIF \
                2.1.0).")
  in
  let deny_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("error", Lint.Error);
               ("warning", Lint.Warning);
               ("info", Lint.Info);
             ])
          Lint.Error
      & info [ "deny" ] ~docv:"SEV"
          ~doc:"Exit 1 when any diagnostic at or above this severity is \
                present (default: $(b,error)).")
  in
  let max_rows_arg =
    Arg.(
      value & opt int Invariants.default_max_rows
      & info [ "max-rows" ] ~docv:"N"
          ~doc:"Farkas row bound for the P-invariant computation; exceeding \
                it degrades boundedness coverage to unknown instead of \
                failing.")
  in
  let run () file case fmt deny max_rows =
    match load_spec file case with
    | Error msg ->
      prerr_endline ("ezrt: " ^ msg);
      exit 2
    | Ok spec -> (
      match Lint.check_spec ~max_rows spec with
      | Error msg ->
        prerr_endline ("ezrt: " ^ msg);
        exit 2
      | Ok report ->
        (match fmt with
        | `Text -> print_string (Lint.to_text report)
        | `Json -> print_endline (Lint.to_json report)
        | `Sarif -> print_endline (Lint.to_sarif ?uri:file report));
        if Lint.deny_hit ~deny report then exit 1)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically lint the compiled net: invariant-certified \
             boundedness, dead structure, siphon/trap hints and \
             gate-explain diagnostics — no state-space search.  Exits 0 \
             when clean, 1 on findings at or above --deny, 2 when the \
             specification cannot be loaded.")
    Term.(
      const run $ obs_term $ file_arg $ case_arg $ format_arg $ deny_arg
      $ max_rows_arg)

(* --- schedule ------------------------------------------------------- *)

let gantt_arg =
  Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart.")

let vcd_arg =
  Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE"
         ~doc:"Write the timeline as a VCD waveform here.")

let schedule_cmd =
  let run () file case policy no_po latest max_states engine no_subsume
      no_analysis timeout gantt vcd =
    with_model file case (fun spec model ->
        (* Structural lint pre-pass: polynomial, no search.  Surfaces
           errors and warnings before any engine runs but never blocks
           synthesis — the subsumption gate falls back on its own,
           and a lint error usually means the search is about to
           prove infeasibility the hard way. *)
        (let lr = Lint.check_model model in
         let e = Lint.count Lint.Error lr
         and w = Lint.count Lint.Warning lr in
         if e + w = 0 then print_endline "lint pre-pass: clean"
         else begin
           Printf.printf
             "lint pre-pass: %d error(s), %d warning(s) — run 'ezrt lint' \
              for details\n"
             e w;
           List.iter
             (fun d ->
               if d.Lint.severity <> Lint.Info then
                 Printf.printf "  %s %s: %s\n" d.Lint.code d.Lint.subject
                   d.Lint.message)
             lr.Lint.diagnostics
         end);
        let cancel = cancel_of_timeout timeout in
        (* print the engine's summary line, the table and the optional
           chart and waveform of a certified schedule, or die with the
           verdict *)
        let solve :
            type r.
            r Pipeline.engine ->
            (r -> Schedule.t -> Table.item list -> string) ->
            unit =
         fun engine summary ->
          match Pipeline.solve ~engine ~cancel model with
          | Error e -> or_die (Error (Pipeline.error_to_string e))
          | Ok { verdict = Certified { schedule; segments }; run; _ } -> (
            let table = Table.of_segments segments in
            Format.printf "%s@.schedule table:@.%a" (summary run schedule table)
              (Table.pp model) table;
            if gantt then Format.printf "@.%s" (Chart.render model segments);
            match vcd with
            | Some path ->
              Vcd.save_file path model segments;
              Printf.printf "VCD written to %s\n" path
            | None -> ())
          | Ok { verdict = Timed_out; _ } -> die_timed_out ()
          | Ok { verdict; _ } ->
            or_die (Error (Pipeline.verdict_to_string engine verdict))
        in
        match engine with
        | `Discrete ->
          solve
            (Pipeline.Discrete (search_options policy no_po latest max_states))
            (fun m schedule table ->
              Format.asprintf
                "specification : %a@.net           : %a@.search        : %d \
                 states stored (%d visited, %d pruned eagerly), %d \
                 backtracks, %.1f ms@.schedule      : %d firings, makespan \
                 %d, %d table rows"
                Spec.pp spec Pnet.pp_summary model.Translate.net
                m.Search.stored m.Search.visited m.Search.eager
                m.Search.backtracks (m.Search.elapsed_s *. 1000.)
                (Schedule.length schedule) (Schedule.makespan schedule)
                (List.length table))
        | `Classes ->
          solve
            (Pipeline.Classes
               { subsume = not no_subsume; max_stored = max_states })
            (fun m _ _ ->
              Printf.sprintf
                "class engine: %d classes stored (%d pruned eagerly, %d \
                 subsumed), %d backtracks, %.1f ms"
                m.Search.stored m.Search.eager m.Search.subsumed
                m.Search.backtracks (m.Search.elapsed_s *. 1000.))
        | `Portfolio ->
          solve
            (Pipeline.Portfolio
               { analysis = not no_analysis; max_stored = max_states })
            (fun p _ _ ->
              match (p.Portfolio.winner, p.Portfolio.prepass) with
              | None, Portfolio.Prepass_accepted ->
                Printf.sprintf
                  "portfolio: analysis pre-pass decided (certified EDF \
                   quick-accept, no search ran), %.1f ms"
                  (p.Portfolio.elapsed_s *. 1000.)
              | winner, _ ->
                Printf.sprintf "portfolio: %s won (%d member(s) run), %.1f ms"
                  (match winner with
                  | Some cfg -> Portfolio.config_to_string cfg
                  | None -> "?")
                  p.Portfolio.configs_started
                  (p.Portfolio.elapsed_s *. 1000.)))
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Synthesize a feasible pre-runtime schedule.")
    Term.(const run $ obs_term $ file_arg $ case_arg $ policy_arg $ no_po_arg
          $ latest_arg $ max_states_arg $ engine_arg $ no_subsume_arg
          $ no_analysis_arg $ timeout_arg $ gantt_arg $ vcd_arg)

(* --- analyze -------------------------------------------------------- *)

let analyze_cmd =
  let sensitivity_arg =
    Arg.(value & flag & info [ "sensitivity" ]
           ~doc:"Also run the WCET sensitivity analysis (one synthesis per \
                 binary-search probe).")
  in
  let spec_only_arg =
    Arg.(value & flag & info [ "spec-only" ]
           ~doc:"Only run the analytic schedulability pre-pass (no search, \
                 no synthesis).  Exit 0 when the verdict is feasible with a \
                 certified schedule, 1 when infeasible with a witness, 2 \
                 when unknown.")
  in
  (* the analytic verdict costs closed-form arithmetic plus at most one
     certified EDF simulation — print it before any search-based
     analysis, and under --spec-only print nothing else *)
  let analytic_verdict = function
    | Error (Pipeline.Invalid_spec (e :: _)) ->
      Format.printf "analytic verdict: unknown (spec does not validate: %s)@."
        (Validate.error_to_string e);
      2
    | Error e -> or_die (Error (Pipeline.error_to_string e))
    | Ok model -> (
      match Portfolio.run_prepass model with
      | Portfolio.Prepass_rejected w, _ ->
        Format.printf "analytic verdict: infeasible@.witness [%s]: %s@."
          (Schedulability.witness_kind w)
          (Schedulability.witness_to_string w);
        1
      | _, Some (schedule, _) ->
        Format.printf
          "analytic verdict: feasible (certified EDF schedule, %d firings)@."
          (Schedule.length schedule);
        0
      | Portfolio.Prepass_uncertified why, None ->
        (* acceptance is never taken on faith: a certificate that
           fails certification downgrades the verdict *)
        Format.printf
          "analytic verdict: unknown (quick-accept certificate failed \
           certification: %s)@."
          why;
        2
      | prepass, None ->
        Format.printf "analytic verdict: %s@."
          (Portfolio.prepass_to_string prepass);
        2)
  in
  let run () file case sensitivity spec_only =
    with_spec file case (fun spec ->
        let translated = Pipeline.translate spec in
        let analytic_code = analytic_verdict translated in
        if spec_only then exit analytic_code;
        let model =
          or_die (Result.map_error Pipeline.error_to_string translated)
        in
        let segments, table = certified_table model in
        Format.printf "schedule quality:@.%a@." Quality.pp
          (Quality.of_timeline model segments);
        (match Rta.analyze spec with
        | Ok rta -> Format.printf "response-time analysis:@.%a@." Rta.pp rta
        | Error msg ->
          Format.printf "response-time analysis: not applicable (%s)@.@." msg);
        Format.printf "max tolerable dispatch overhead: %d@."
          (Vm.max_tolerable_overhead model table);
        if sensitivity then begin
          (match Sensitivity.analyze spec with
          | Ok t -> Format.printf "@.WCET sensitivity:@.%a" Sensitivity.pp t
          | Error msg -> Format.printf "@.WCET sensitivity: %s@." msg);
          match Sensitivity.deadline_margins spec with
          | Ok t ->
            Format.printf "@.deadline margins:@.%a" Sensitivity.pp_deadlines t
          | Error msg -> Format.printf "@.deadline margins: %s@." msg
        end)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Analytic schedulability verdict, then quality, response-time \
             and robustness analysis of the synthesized schedule.")
    Term.(const run $ obs_term $ file_arg $ case_arg $ sensitivity_arg
          $ spec_only_arg)

(* --- model-check ----------------------------------------------------- *)

let model_check_cmd =
  let query_arg =
    Arg.(required & opt (some string) None & info [ "q"; "query" ]
           ~docv:"QUERY"
           ~doc:"Reachability query, e.g. 'AG pproc <= 1' or 'EF pdm_T1 \
                 >= 1'.")
  in
  let max_states_mc =
    Arg.(value & opt int 100_000 & info [ "max-states" ] ~docv:"N"
           ~doc:"State budget for the bounded walk.")
  in
  let classes_flag =
    Arg.(value & flag & info [ "classes" ]
           ~doc:"Check over the dense-time state-class graph instead of \
                 the discrete TLTS.")
  in
  let unprioritized_flag =
    Arg.(value & flag & info [ "unprioritized" ]
           ~doc:"With --classes: drop the FT priority filter (classical \
                 TPN semantics; over-approximates).")
  in
  let run () file case query max_states classes unprioritized =
    with_model file case (fun _ model ->
        match Query.parse query with
        | Error msg ->
          prerr_endline ("ezrt: query syntax: " ^ msg);
          exit 1
        | Ok q -> (
          match
            if classes then
              Query.check_classes ~max_classes:max_states
                ~priorities:(not unprioritized) model.Translate.net q
            else Query.check ~max_states model.Translate.net q
          with
          | Error msg ->
            prerr_endline ("ezrt: " ^ msg);
            exit 1
          | Ok verdict ->
            Printf.printf "%s: %s\n" (Query.to_string q)
              (Query.verdict_to_string verdict);
            (match verdict with
            | Query.Holds _ -> ()
            | Query.Fails _ | Query.Unknown -> exit 1)))
  in
  Cmd.v
    (Cmd.info "model-check"
       ~doc:"Check a reachability property of the translated net (EF/AG \
             over marking atoms).")
    Term.(const run $ obs_term $ file_arg $ case_arg $ query_arg
          $ max_states_mc $ classes_flag $ unprioritized_flag)

(* --- codegen -------------------------------------------------------- *)

let codegen_cmd =
  let target_arg =
    let target_conv = Arg.enum Target.all in
    Arg.(value & opt target_conv Target.hosted & info [ "target" ] ~docv:"TARGET"
           ~doc:"Code generation target: hosted, x86, arm9, 8051 or m68k.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE"
           ~doc:"Write the generated C here (stdout otherwise).")
  in
  let compact_arg =
    Arg.(value & flag & info [ "compact" ]
           ~doc:"Emit the compact table layout (3 bytes per row) for \
                 flash-constrained parts.")
  in
  let run () file case target out compact =
    with_model file case (fun _ model ->
        let _, table = certified_table model in
        let layout = if compact then Emit.Compact_table else Emit.Struct_table in
        let program = Emit.program ~target ~layout model table in
        match out with
        | Some path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc program);
          let fp = Emit.table_footprint ~layout target table in
          Printf.printf "scheduled C written to %s (table: %d rows, %d B%s)\n"
            path fp.Emit.rows fp.Emit.table_bytes
            (match fp.Emit.fits_flash with
            | Some false -> ", EXCEEDS the target's typical flash"
            | Some true | None -> "")
        | None -> print_string program)
  in
  Cmd.v (Cmd.info "codegen" ~doc:"Generate the scheduled C program.")
    Term.(const run $ obs_term $ file_arg $ case_arg $ target_arg $ out_arg
          $ compact_arg)

(* --- simulate ------------------------------------------------------- *)

let simulate_cmd =
  let overhead_arg =
    Arg.(value & opt (some int) None & info [ "overhead" ] ~docv:"N"
           ~doc:"Per-dispatch overhead in time units (defaults to the \
                 specification's dispatcherOverhead).")
  in
  let cycles_arg =
    Arg.(value & opt int 1 & info [ "cycles" ] ~docv:"N"
           ~doc:"Hyper-periods to simulate.")
  in
  let print_trace_arg =
    Arg.(value & flag & info [ "print-trace" ]
           ~doc:"Print the full event trace.")
  in
  let fault_arg =
    Arg.(value & opt_all (t3 ~sep:':' string int int) []
         & info [ "fault" ] ~docv:"TASK:INSTANCE:EXTRA"
             ~doc:"Inject an execution-time overrun (task name, instance \
                   number, extra time units); repeatable.")
  in
  let run () file case overhead cycles print_trace faults =
    with_model file case (fun _ model ->
        let _, table = certified_table model in
        let vm_faults =
          List.map
            (fun (name, instance, extra) ->
              match Translate.task_index model name with
              | index ->
                { Vm.f_task = index; f_instance = instance; f_extra = extra }
              | exception Not_found ->
                prerr_endline ("ezrt: unknown task " ^ name);
                exit 1)
            faults
        in
        let outcome = Vm.execute ?overhead ~cycles ~faults:vm_faults model table in
        if print_trace then
          List.iter
            (fun e -> print_endline (Vm.event_to_string model e))
            outcome.Vm.trace;
        Printf.printf
          "simulated %d hyper-period(s): %d instances completed, %d \
           overruns\n"
          cycles outcome.Vm.completed outcome.Vm.overruns;
        (if vm_faults <> [] then begin
          match Vm.isolation_check ?overhead ~faults:vm_faults model table with
          | Ok overruns ->
            Printf.printf
              "fault isolation: %d overrun(s) confined to the faulty \
               instance(s); healthy instances unaffected\n"
              overruns
          | Error vs ->
            List.iter
              (fun v ->
                Printf.printf "fault LEAKED onto healthy work: %s\n"
                  (Validator.violation_to_string v))
              vs
        end);
        (match Vm.verify ?overhead model table with
        | Ok () -> print_endline "trace satisfies every constraint"
        | Error violations ->
          List.iter
            (fun v ->
              Printf.printf "violation: %s\n"
                (Validator.violation_to_string v))
            violations;
          exit 1);
        Printf.printf "max tolerable dispatch overhead: %d\n"
          (Vm.max_tolerable_overhead model table))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute the schedule table on the virtual target machine.")
    Term.(const run $ obs_term $ file_arg $ case_arg $ overhead_arg
          $ cycles_arg $ print_trace_arg $ fault_arg)

(* --- compare -------------------------------------------------------- *)

let compare_cmd =
  let run () file case =
    with_model file case (fun spec _ ->
        let rows = Baseline_compare.run_all spec in
        Format.printf "%a" Baseline_compare.pp rows)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare runtime scheduling policies against the pre-runtime \
             synthesis.")
    Term.(const run $ obs_term $ file_arg $ case_arg)

(* --- fuzz ----------------------------------------------------------- *)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"PRNG seed; the whole campaign is a pure function of it.")
  in
  let count_arg =
    Arg.(value & opt (some int) None & info [ "count" ] ~docv:"K"
           ~doc:"Number of specifications to generate (default 200, or 60 \
                 with $(b,--smoke)).")
  in
  let smoke_arg =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"Small, fast profile for CI: fewer tasks, lower utilization \
                 and a 60-spec default count.")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Write each shrunken divergent spec to DIR as DSL XML so the \
                 regression suite replays it.")
  in
  let fuzz_max_states_arg =
    Arg.(value & opt int 50_000 & info [ "max-states" ] ~docv:"N"
           ~doc:"Per-engine stored-state budget; exhausting it yields an \
                 inconclusive verdict, not a divergence.")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ]
           ~doc:"Report divergent specs as generated, without minimizing \
                 them first.")
  in
  let engines_arg =
    Arg.(value & opt (some string) None & info [ "engines" ] ~docv:"NAMES"
           ~doc:"Comma-separated engine filter (reference, incremental, \
                 latest-release, classes, portfolio, analysis); \
                 only these engines run and cross-check — e.g. \
                 $(b,--engines analysis,classes,reference) cross-checks the \
                 analytic pre-pass against search engines, and \
                 $(b,--engines classes,reference) bisects class-engine \
                 divergences.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Only print the summary line.")
  in
  let run () seed count smoke corpus max_stored no_shrink engines quiet =
    let profile = if smoke then Spec_gen.smoke else Spec_gen.default in
    let count =
      match count with Some c -> c | None -> if smoke then 60 else 200
    in
    let log =
      if quiet then None
      else
        Some
          (fun index _spec (report : Differ.report) ->
            if report.Differ.divergences <> [] then
              Printf.printf "spec %d: DIVERGENT\n%!" index
            else if (index + 1) mod 50 = 0 then
              Printf.printf "checked %d/%d specs\n%!" (index + 1) count)
    in
    let engines =
      Option.map
        (fun s ->
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun n -> n <> ""))
        engines
    in
    let stats =
      try
        Fuzz.run ~profile ~max_stored ?engines
          ~shrink:(not no_shrink) ?log ~seed ~count ()
      with Invalid_argument msg ->
        prerr_endline ("ezrt: " ^ msg);
        exit 2
    in
    Printf.printf
      "fuzz: seed %d, %d specs in %.1f s (%.1f specs/s) — %d feasible, %d \
       infeasible, %d inconclusive, %d divergent\n"
      stats.Fuzz.seed stats.Fuzz.generated stats.Fuzz.elapsed_s
      (Fuzz.specs_per_s stats) stats.Fuzz.feasible stats.Fuzz.infeasible
      stats.Fuzz.unknown
      (List.length stats.Fuzz.divergent);
    List.iter
      (fun (d : Fuzz.divergent) ->
        Printf.printf "divergence at spec %d (%d tasks, shrunk to %d):\n"
          d.Fuzz.index
          (List.length d.Fuzz.spec.Spec.tasks)
          (List.length d.Fuzz.shrunk.Spec.tasks);
        List.iter
          (fun div ->
            Printf.printf "  - %s\n" (Differ.divergence_to_string div))
          d.Fuzz.divergences)
      stats.Fuzz.divergent;
    (match corpus with
    | Some dir ->
      List.iter
        (fun path -> Printf.printf "wrote %s\n" path)
        (Fuzz.write_corpus ~dir stats)
    | None -> ());
    if stats.Fuzz.divergent <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differentially fuzz the synthesis engines on random \
             specifications.")
    Term.(const run $ obs_term $ seed_arg $ count_arg $ smoke_arg $ corpus_arg
          $ fuzz_max_states_arg $ no_shrink_arg $ engines_arg $ quiet_arg)

(* --- serve ----------------------------------------------------------- *)

let queue_limit_arg =
  Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N"
         ~doc:"Bound on accepted-but-unstarted jobs; submissions beyond \
               it are shed with an explicit overloaded response.")

let serve_timeout_arg =
  Arg.(value & opt (some int) None & info [ "timeout" ] ~docv:"MS"
         ~doc:"Default per-job wall-clock deadline in milliseconds \
               (requests may override with their own timeout_ms field).")

let serve_cmd =
  let socket_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Serve the protocol over a Unix domain socket bound at \
                 PATH instead of stdin/stdout.")
  in
  let run () workers queue_limit cache_dir max_states timeout socket =
    let cache =
      Option.map (fun dir -> Result_cache.create ~dir ()) cache_dir
    in
    let server =
      Server.create ?workers ~queue_limit ?cache ~max_states
        ?default_timeout_ms:timeout ()
    in
    (match socket with
    | Some path ->
      Printf.eprintf "ezrt: serving on %s (send {\"op\":\"shutdown\"} to \
                      stop)\n%!"
        path;
      Server.serve_socket server ~path
    | None -> ignore (Server.serve_channels server stdin stdout));
    Server.shutdown server
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the synthesis job server: newline-delimited JSON \
             requests over stdio or a Unix domain socket, a bounded job \
             queue drained by worker domains, and the content-addressed \
             result cache (see docs/SERVICE.md).")
    Term.(const run $ obs_term $ workers_arg $ queue_limit_arg
          $ cache_dir_arg $ max_states_arg $ serve_timeout_arg $ socket_arg)

(* --- batch ----------------------------------------------------------- *)

let batch_cmd =
  let corpus_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CORPUS"
           ~doc:"A directory of DSL XML specifications (all *.xml files, \
                 sorted), or a manifest file listing one specification \
                 path per line (relative paths resolve against the \
                 manifest's directory).")
  in
  let run () corpus workers cache_dir max_states timeout =
    let files =
      if Sys.is_directory corpus then
        Sys.readdir corpus |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".xml")
        |> List.sort compare
        |> List.map (Filename.concat corpus)
      else
        In_channel.with_open_text corpus In_channel.input_lines
        |> List.map String.trim
        |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
        |> List.map (fun l ->
               if Sys.file_exists l then l
               else Filename.concat (Filename.dirname corpus) l)
    in
    if files = [] then begin
      prerr_endline "ezrt: no specifications in the corpus";
      exit 1
    end;
    let specs =
      List.map
        (fun path ->
          match Dsl.load_file path with
          | Ok spec -> (path, spec)
          | Error e ->
            prerr_endline
              ("ezrt: " ^ path ^ ": " ^ Dsl.error_to_string e);
            exit 1)
        files
    in
    let n = List.length specs in
    let cache =
      Option.map (fun dir -> Result_cache.create ~dir ()) cache_dir
    in
    (* the whole corpus is admitted up front, so the queue bound is the
       corpus size — batch has no load to shed *)
    let server =
      Server.create ?workers ~queue_limit:n ?cache ~max_states
        ?default_timeout_ms:timeout ()
    in
    let started = Unix.gettimeofday () in
    let results = Array.make n None in
    List.iteri
      (fun i (path, spec) ->
        let req =
          { Server.id = Filename.basename path; spec; timeout_ms = None;
            max_states = None }
        in
        match
          Server.submit server req ~on_done:(fun r -> results.(i) <- Some r)
        with
        | `Accepted -> ()
        | `Overloaded ->
          results.(i) <-
            Some { Server.id = req.Server.id; result = Error "overloaded" })
      specs;
    Server.shutdown server;
    let elapsed = Unix.gettimeofday () -. started in
    let errors = ref 0 and timed_out = ref 0 and cached = ref 0 in
    Array.iter
      (fun r ->
        match r with
        | None -> incr errors  (* unreachable: shutdown drains *)
        | Some (r : Server.response) -> (
          match r.Server.result with
          | Ok o ->
            if o.Server.cached then incr cached;
            (match o.Server.verdict with
            | Server.Timed_out -> incr timed_out
            | _ -> ());
            Printf.printf "%s %s\n" r.Server.id (Server.verdict_line o)
          | Error msg ->
            incr errors;
            Printf.printf "%s error\n" r.Server.id;
            Printf.eprintf "ezrt: %s: %s\n" r.Server.id msg))
      results;
    (match cache with
    | Some c ->
      let k = Result_cache.counters c in
      Printf.eprintf
        "cache: %d hit(s), %d miss(es), %d invalid, %d evicted\n"
        k.Result_cache.hits k.Result_cache.misses k.Result_cache.invalid
        k.Result_cache.evictions
    | None -> ());
    Printf.eprintf "batch: %d spec(s) in %.1f s (%.1f specs/s), %d from \
                    cache, %d timed out, %d error(s)\n"
      n elapsed
      (float_of_int n /. Float.max elapsed 1e-9)
      !cached !timed_out !errors;
    if !errors > 0 then exit 1;
    if !timed_out > 0 then exit timeout_exit_code
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Synthesize a whole corpus of specifications through the job \
             pool, one deterministic verdict line per spec on stdout \
             (byte-identical across reruns, so warm-cache runs are \
             diffable against cold ones).")
    Term.(const run $ obs_term $ corpus_arg $ workers_arg $ cache_dir_arg
          $ max_states_arg $ serve_timeout_arg)

(* --- gen ------------------------------------------------------------- *)

let gen_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"PRNG seed; the corpus is a pure function of it.")
  in
  let count_arg =
    Arg.(value & opt int 50 & info [ "count" ] ~docv:"K"
           ~doc:"Number of specifications to write.")
  in
  let smoke_arg =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"Use the generator's small CI profile.")
  in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write the specifications here as DSL XML (created if \
                 missing).")
  in
  let run () seed count smoke out =
    let profile = if smoke then Spec_gen.smoke else Spec_gen.default in
    if not (Sys.file_exists out) then Unix.mkdir out 0o755;
    for i = 0 to count - 1 do
      let spec = Spec_gen.spec_at ~profile ~seed i in
      Dsl.save_file
        (Filename.concat out (Printf.sprintf "spec-%04d.xml" i))
        spec
    done;
    Printf.printf "wrote %d spec(s) to %s (seed %d)\n" count out seed
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Write a seeded corpus of generated specifications — input \
             for $(b,ezrt batch) and the CI service smoke test.")
    Term.(const run $ obs_term $ seed_arg $ count_arg $ smoke_arg $ out_arg)

let main_cmd =
  let doc = "embedded hard real-time software synthesis (ezRealtime)" in
  Cmd.group (Cmd.info "ezrt" ~version ~doc)
    [ check_cmd; info_cmd; model_cmd; lint_cmd; schedule_cmd; analyze_cmd;
      model_check_cmd; codegen_cmd; simulate_cmd; compare_cmd; fuzz_cmd;
      serve_cmd; batch_cmd; gen_cmd ]

let () = exit (Cmd.eval main_cmd)
