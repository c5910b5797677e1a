(* Shared plumbing for every ezrt subcommand: specification loading,
   the common cmdliner argument vocabulary, and the observability
   flags.  Subcommands compose these instead of redeclaring them. *)

open Ezrealtime
open Cmdliner

let load_spec file case =
  match (file, case) with
  | Some path, None -> (
    match Dsl.load_file path with
    | Ok spec -> Ok spec
    | Error e -> Error (Dsl.error_to_string e))
  | None, Some name -> (
    match List.assoc_opt name Case_studies.all with
    | Some spec -> Ok spec
    | None ->
      Error
        (Printf.sprintf "unknown case study %S (available: %s)" name
           (String.concat ", " (List.map fst Case_studies.all))))
  | Some _, Some _ -> Error "pass either FILE or --case, not both"
  | None, None -> Error "pass a specification FILE or --case NAME"

let file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"ezRealtime DSL specification (XML, see Fig 7 of the paper).")

let case_arg =
  Arg.(value & opt (some string) None & info [ "case" ] ~docv:"NAME"
         ~doc:"Use a built-in case study (mine-pump, fig3, fig4, fig8, \
               quickstart).")

let policy_arg =
  let policy_conv = Arg.enum Priority.all in
  Arg.(value & opt policy_conv Priority.Edf & info [ "policy" ] ~docv:"POLICY"
         ~doc:"Branch ordering policy: edf, rm, dm or fifo.")

let no_po_arg =
  Arg.(value & flag & info [ "no-partial-order" ]
         ~doc:"Disable the partial-order state-space pruning.")

let latest_arg =
  Arg.(value & flag & info [ "latest-release" ]
         ~doc:"Also branch on the latest release times (inserted idle \
               time).")

let max_states_arg =
  Arg.(value & opt int 500_000 & info [ "max-states" ] ~docv:"N"
         ~doc:"Stored-state budget for the search.")

let search_options policy no_po latest max_stored =
  { Search.policy; partial_order = not no_po; latest_release = latest;
    max_stored; incremental = true }

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("ezrt: " ^ msg);
    exit 1

let with_spec file case f = f (or_die (load_spec file case))

(* For the commands that need the net: validate and translate once,
   exiting 1 with the validation errors on an invalid spec. *)
let with_model file case f =
  with_spec file case (fun spec ->
      f spec
        (or_die
           (Result.map_error Pipeline.error_to_string (Pipeline.translate spec))))

(* The certified schedule of [model] under the default search, as
   segments and table: what analyze, simulate and codegen run on.  No
   schedule exits 1 with [synthesize]'s error text. *)
let certified_table model =
  let die e =
    prerr_endline ("ezrt: " ^ error_to_string e);
    exit 1
  in
  match
    Pipeline.solve ~engine:(Pipeline.Discrete Search.default_options) model
  with
  | Ok { verdict = Certified { segments; _ }; _ } ->
    (segments, Table.of_segments segments)
  | Ok { verdict = Infeasible _; run; _ } ->
    die (No_schedule (Search.Infeasible, run))
  | Ok { verdict = Timed_out | Undecided _; run; _ } ->
    die (No_schedule (Search.Budget_exhausted, run))
  | Error e -> or_die (Error (Pipeline.error_to_string e))

(* --- engine selection ------------------------------------------------- *)

let engine_arg =
  let engine_conv =
    Arg.enum
      [ ("discrete", `Discrete); ("classes", `Classes);
        ("portfolio", `Portfolio) ]
  in
  Arg.(value & opt engine_conv `Discrete & info [ "engine" ] ~docv:"ENGINE"
         ~doc:"Search engine: discrete (integer-clock TLTS), classes \
               (dense-time state classes), or portfolio (the analytic \
               pre-pass, then discrete search under FIFO ordering, then \
               classes; the first schedule wins and class exhaustion \
               proves infeasibility).")

let no_subsume_arg =
  Arg.(value & flag & info [ "no-subsume" ]
         ~doc:"Disable inclusion-based subsumption in the class engine \
               (exact visited-set pruning only).")

let no_analysis_arg =
  Arg.(value & flag & info [ "no-analysis" ]
         ~doc:"Skip the analytic schedulability pre-pass in the portfolio \
               engine and always run its searches.")

(* --- wall-clock deadlines --------------------------------------------- *)

let timeout_arg =
  Arg.(value & opt (some int) None & info [ "timeout" ] ~docv:"MS"
         ~doc:"Wall-clock deadline in milliseconds, mapped onto the \
               search engines' cancellation hooks.  An expired deadline \
               reports the distinct $(b,timed-out) verdict and exits \
               with code 124.")

(* The deadline is fixed when the engine is about to start; the
   returned closure is what the engines poll at every search node. *)
let cancel_of_timeout = function
  | None -> Search.no_cancel
  | Some ms ->
    let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
    fun () -> Unix.gettimeofday () > deadline

let timeout_exit_code = 124

let die_timed_out () =
  prerr_endline "ezrt: timed-out (wall-clock deadline expired)";
  exit timeout_exit_code

(* --- service flags ---------------------------------------------------- *)

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Enable the on-disk content-addressed result cache under \
               DIR (created if missing).  Every hit is re-validated \
               before being trusted; see docs/SERVICE.md.")

let workers_arg =
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N"
         ~doc:"Worker domains for the job pool (default: the host's \
               recommended domain count minus one).")

(* --- observability flags (accepted by every command) ----------------- *)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record begin/end spans and events of every synthesis phase \
               and write them as Chrome trace-event JSON to FILE on exit \
               (open at chrome://tracing or https://ui.perfetto.dev).")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the counter registry as a Prometheus-style text dump \
               to FILE on exit.")

let progress_arg =
  Arg.(value & flag & info [ "progress" ]
         ~doc:"Print a throttled one-line progress report to stderr while \
               searches and fuzz campaigns run.")

(* Sinks are installed while cmdliner evaluates the term — before the
   command body runs — and flushed via [at_exit] so early [exit 1]
   paths still write their files. *)
let obs_setup trace metrics progress =
  (match trace with
  | Some path ->
    let sink = Obs_trace.create () in
    Obs_trace.install sink;
    at_exit (fun () ->
        Obs_trace.save_file path sink;
        Printf.eprintf "trace written to %s (%d events, %d dropped)\n%!" path
          (min (Obs_trace.written sink) (Obs_trace.capacity sink))
          (Obs_trace.dropped sink))
  | None -> ());
  (match metrics with
  | Some path ->
    at_exit (fun () ->
        Obs_metrics.save_file path;
        Printf.eprintf "metrics written to %s\n%!" path)
  | None -> ());
  if progress then Obs_progress.install (Obs_progress.create ())

let obs_term = Term.(const obs_setup $ trace_arg $ metrics_arg $ progress_arg)
