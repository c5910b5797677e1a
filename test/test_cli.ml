(* End-to-end tests of the ezrt command-line tool: the binary is built
   by dune (declared as a test dependency) and spawned here. *)

open Test_util

let binary =
  lazy
    (let candidates =
       [
         "../bin/ezrt.exe";
         "bin/ezrt.exe";
         "_build/default/bin/ezrt.exe";
         Filename.concat (Filename.dirname Sys.executable_name) "../bin/ezrt.exe";
       ]
     in
     match List.find_opt Sys.file_exists candidates with
     | Some path -> Some path
     | None -> None)

let run args =
  match Lazy.force binary with
  | None -> None
  | Some bin ->
    let cmd =
      Printf.sprintf "%s %s 2>&1" (Filename.quote bin)
        (String.concat " " (List.map Filename.quote args))
    in
    let ic = Unix.open_process_in cmd in
    let output = In_channel.input_all ic in
    let code =
      match Unix.close_process_in ic with
      | Unix.WEXITED n -> n
      | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
    in
    Some (code, output)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let expect args ~code ~needles =
  match run args with
  | None -> ()  (* binary not found in this context: skip *)
  | Some (got_code, output) ->
    Alcotest.(check int)
      (Printf.sprintf "exit code of ezrt %s" (String.concat " " args))
      code got_code;
    List.iter
      (fun needle ->
        if not (contains ~needle output) then
          Alcotest.failf "ezrt %s: output lacks %S:\n%s"
            (String.concat " " args) needle output)
      needles

let test_check () =
  expect [ "check"; "--case"; "mine-pump" ] ~code:0
    ~needles:[ "782 instances"; "well-formed" ]

let test_check_rejects () =
  expect [ "check"; "--case"; "no-such-case" ] ~code:1 ~needles:[ "unknown" ]

let test_info () =
  expect [ "info"; "--case"; "fig3" ] ~code:0
    ~needles:[ "T1"; "T2"; "minimum firings" ]

let test_schedule () =
  expect [ "schedule"; "--case"; "fig8" ] ~code:0
    ~needles:[ "schedule table"; "preempts"; "resumes" ]

let test_schedule_policy_flag () =
  expect [ "schedule"; "--case"; "quickstart"; "--policy"; "rm" ] ~code:0
    ~needles:[ "schedule table" ]

let test_schedule_infeasible_budget () =
  expect [ "schedule"; "--case"; "mine-pump"; "--max-states"; "2" ] ~code:1
    ~needles:[ "budget" ]

let test_latest_release_flag () =
  (* the trap is solvable either way (the DFS can reorder arrivals);
     the flag must at least be accepted and still find the schedule *)
  expect [ "schedule"; "--case"; "greedy-trap" ] ~code:0
    ~needles:[ "schedule table" ];
  expect [ "schedule"; "--case"; "greedy-trap"; "--latest-release" ] ~code:0
    ~needles:[ "schedule table" ]

let test_codegen () =
  expect [ "codegen"; "--case"; "quickstart" ] ~code:0
    ~needles:[ "struct ScheduleItem"; "ezrt_dispatch"; "int main(void)" ]

let test_codegen_target () =
  expect [ "codegen"; "--case"; "quickstart"; "--target"; "8051" ] ~code:0
    ~needles:[ "__interrupt(1)"; "8051" ]

let test_model_pnml () =
  expect [ "model"; "--case"; "fig3" ] ~code:0
    ~needles:[ "<pnml"; "initialMarking"; "toolspecific" ]

let test_simulate () =
  expect [ "simulate"; "--case"; "fig8" ] ~code:0
    ~needles:[ "instances completed"; "satisfies every constraint" ]

let test_compare () =
  expect [ "compare"; "--case"; "greedy-trap" ] ~code:0
    ~needles:[ "INFEASIBLE"; "pre-runtime (dfs)" ]

let test_dsl_file_workflow () =
  match Lazy.force binary with
  | None -> ()
  | Some _ ->
    let path = Filename.temp_file "ezrt_cli" ".xml" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Ezrt_spec.Dsl.save_file path Ezrt_spec.Case_studies.quickstart;
        expect [ "check"; path ] ~code:0 ~needles:[ "well-formed" ];
        expect [ "schedule"; path ] ~code:0 ~needles:[ "schedule table" ])

let test_class_engine () =
  expect [ "schedule"; "--case"; "greedy-trap"; "--engine"; "classes" ]
    ~code:0 ~needles:[ "class engine"; "urgent1 starts" ]

let test_gantt_flag () =
  expect [ "schedule"; "--case"; "quickstart"; "--gantt" ] ~code:0
    ~needles:[ "sample"; "|##" ]

let test_analyze () =
  expect [ "analyze"; "--case"; "fig8" ] ~code:0
    ~needles:
      [ "analytic verdict"; "schedule quality"; "preemptions";
        "dispatch overhead" ]

let test_analyze_spec_only () =
  (* fig8: independent preemptive, inside the accept fragment *)
  expect [ "analyze"; "--case"; "fig8"; "--spec-only" ] ~code:0
    ~needles:[ "analytic verdict: feasible"; "certified EDF schedule" ];
  (* mine-pump has relations: outside the analytic fragment *)
  expect [ "analyze"; "--case"; "mine-pump"; "--spec-only" ] ~code:2
    ~needles:[ "analytic verdict: unknown"; "analytic fragment" ]

let test_analyze_spec_only_rejects () =
  match Lazy.force binary with
  | None -> ()
  | Some _ ->
    (* two five-unit jobs both due within six units: the demand bound
       rejects with a witness, no search runs *)
    let path = Filename.temp_file "ezrt_cli" ".xml" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let spec =
          Ezrt_spec.Spec.make ~name:"tight"
            ~tasks:
              [
                Ezrt_spec.Task.make ~name:"a" ~wcet:5 ~deadline:5 ~period:10 ();
                Ezrt_spec.Task.make ~name:"b" ~wcet:5 ~deadline:6 ~period:10 ();
              ]
            ()
        in
        Ezrt_spec.Dsl.save_file path spec;
        expect [ "analyze"; path; "--spec-only" ] ~code:1
          ~needles:
            [ "analytic verdict: infeasible"; "witness [demand-overload]";
              "demand 10 > capacity" ])

(* specs/quickstart.xml with sample's computing time raised past its
   deadline (12 > 10): every command that translates the spec must
   reject it with an [ezrt:] error, not crash in the translation *)
let test_invalid_spec_rejected () =
  match (Lazy.force binary, Ezrt_spec.Dsl.load_file "../specs/quickstart.xml") with
  | None, _ -> ()
  | Some _, Error e -> Alcotest.fail (Ezrt_spec.Dsl.error_to_string e)
  | Some _, Ok spec ->
    let overrun (t : Ezrt_spec.Task.t) =
      if t.Ezrt_spec.Task.name = "sample" then { t with wcet = 12 } else t
    in
    let path = Filename.temp_file "ezrt_cli" ".xml" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Ezrt_spec.Dsl.save_file path
          { spec with Ezrt_spec.Spec.tasks = List.map overrun spec.tasks };
        (* exit 1, not cmdliner's 125 for an uncaught exception *)
        List.iter
          (fun args ->
            expect (args @ [ path ]) ~code:1
              ~needles:[ "ezrt: invalid specification" ])
          [
            [ "schedule" ];
            [ "schedule"; "--engine"; "classes" ];
            [ "schedule"; "--engine"; "portfolio" ];
            [ "info" ];
            [ "model" ];
            [ "model-check"; "--query"; "EF pend >= 1" ];
            [ "compare" ];
          ])

let test_portfolio_prepass () =
  expect [ "schedule"; "--case"; "fig8"; "--engine"; "portfolio" ] ~code:0
    ~needles:[ "analysis pre-pass decided"; "schedule table" ];
  (* the escape hatch must search and name the winning member *)
  expect
    [ "schedule"; "--case"; "fig8"; "--engine"; "portfolio"; "--no-analysis" ]
    ~code:0
    ~needles:[ "discrete/fifo won"; "schedule table" ]

let test_portfolio_mine_pump () =
  expect [ "schedule"; "--case"; "mine-pump"; "--engine"; "portfolio" ]
    ~code:0
    ~needles:[ "portfolio: discrete/fifo won"; "schedule table" ]

let test_analyze_sensitivity () =
  expect [ "analyze"; "--case"; "quickstart"; "--sensitivity" ] ~code:0
    ~needles:[ "WCET sensitivity"; "margin" ]

let test_vcd_output () =
  match Lazy.force binary with
  | None -> ()
  | Some _ ->
    let path = Filename.temp_file "ezrt_cli" ".vcd" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        expect [ "schedule"; "--case"; "quickstart"; "--vcd"; path ] ~code:0
          ~needles:[ "VCD written" ];
        let contents = In_channel.with_open_text path In_channel.input_all in
        if not (contains ~needle:"$enddefinitions" contents) then
          Alcotest.fail "VCD file lacks its header")

let test_simulate_fault () =
  expect
    [ "simulate"; "--case"; "quickstart"; "--fault"; "sample:0:5" ]
    ~code:0
    ~needles:[ "fault isolation"; "confined" ];
  expect
    [ "simulate"; "--case"; "quickstart"; "--fault"; "ghost:0:5" ]
    ~code:1 ~needles:[ "unknown task" ]

let test_model_check () =
  expect [ "model-check"; "--case"; "fig4"; "-q"; "AG pproc <= 1" ] ~code:0
    ~needles:[ "holds" ];
  expect [ "model-check"; "--case"; "fig3"; "-q"; "EF pdm_T1 >= 1" ] ~code:1
    ~needles:[ "does not hold" ];
  expect [ "model-check"; "--case"; "fig3"; "-q"; "EF pend >= 1" ] ~code:0
    ~needles:[ "witness" ];
  expect [ "model-check"; "--case"; "fig3"; "-q"; "EF nonsense >= 1" ]
    ~code:1 ~needles:[ "unknown place" ];
  (* a budget-refused state is not tested: the answer is unknown, which
     model-check reports like a failed property, not as a crash *)
  List.iter
    (fun extra ->
      expect
        ([ "model-check"; "--case"; "fig3"; "-q"; "EF pproc = 0";
           "--max-states"; "5" ] @ extra)
        ~code:1 ~needles:[ "unknown (state budget exhausted)" ])
    [ []; [ "--classes" ] ]

let test_trace_output () =
  match Lazy.force binary with
  | None -> ()
  | Some _ ->
    let path = Filename.temp_file "ezrt_cli" ".trace.json" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        expect [ "schedule"; "--case"; "quickstart"; "--trace"; path ] ~code:0
          ~needles:[ "trace written to" ];
        let contents = In_channel.with_open_text path In_channel.input_all in
        List.iter
          (fun needle ->
            if not (contains ~needle contents) then
              Alcotest.failf "trace file lacks %S" needle)
          [ "\"traceEvents\""; "\"search\""; "\"ph\":\"B\"" ])

(* Each command computes only what it prints: one translation of the
   spec, and C emitted only by codegen, once, in the chosen layout. *)
let test_trace_spans_per_command () =
  let count ~needle haystack =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length haystack then acc
      else go (i + 1) (if String.sub haystack i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  match Lazy.force binary with
  | None -> ()
  | Some _ ->
    List.iter
      (fun (args, emits) ->
        let path = Filename.temp_file "ezrt_cli" ".trace.json" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            expect (args @ [ "--case"; "fig8"; "--trace"; path ]) ~code:0
              ~needles:[ "trace written to" ];
            let contents = In_channel.with_open_text path In_channel.input_all in
            let spans ~cat name =
              count contents
                ~needle:
                  (Printf.sprintf "{\"name\":%S,\"cat\":%S,\"ph\":\"B\"" name
                     cat)
            in
            let what = String.concat " " args in
            Alcotest.(check int) (what ^ ": translate spans") 1
              (spans ~cat:"model" "translate");
            Alcotest.(check int) (what ^ ": emit spans") emits
              (spans ~cat:"codegen" "emit")))
      [ ([ "analyze" ], 0); ([ "simulate" ], 0); ([ "codegen"; "--compact" ], 1) ]

let test_metrics_output () =
  match Lazy.force binary with
  | None -> ()
  | Some _ ->
    let path = Filename.temp_file "ezrt_cli" ".prom" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        expect [ "schedule"; "--case"; "quickstart"; "--metrics"; path ]
          ~code:0 ~needles:[ "metrics written to" ];
        let contents = In_channel.with_open_text path In_channel.input_all in
        List.iter
          (fun needle ->
            if not (contains ~needle contents) then
              Alcotest.failf "metrics file lacks %S" needle)
          [ "# TYPE ezrt_search_stored_states_total counter"; "engine=" ])

let test_bad_usage () =
  expect [ "check" ] ~code:1 ~needles:[ "FILE" ];
  expect
    [ "check"; "--case"; "fig3"; "/tmp/nonexistent-also-a-file.xml" ]
    ~code:1 ~needles:[ "not both" ]

(* --- the synthesis service -------------------------------------------- *)

let test_info_digest () =
  match run [ "info"; "--case"; "quickstart"; "--digest" ] with
  | None -> ()
  | Some (code, output) ->
    Alcotest.(check int) "exit code" 0 code;
    let digest = String.trim output in
    Alcotest.(check int) "32 hex chars" 32 (String.length digest);
    (* the address is stable across invocations *)
    (match run [ "info"; "--case"; "quickstart"; "--digest" ] with
    | Some (0, again) ->
      Alcotest.(check string) "deterministic" digest (String.trim again)
    | _ -> Alcotest.fail "second --digest run failed")

let test_schedule_timeout () =
  (* deadline already expired at startup: the distinct verdict and the
     distinct exit code, on both a portfolio and a discrete search *)
  expect
    [ "schedule"; "--case"; "mine-pump"; "--timeout"; "0";
      "--engine"; "portfolio" ]
    ~code:124 ~needles:[ "timed-out" ];
  expect
    [ "schedule"; "--case"; "mine-pump"; "--timeout"; "0" ]
    ~code:124 ~needles:[ "timed-out" ]

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ezrt_cli_svc-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_gen_and_batch_warm () =
  match Lazy.force binary with
  | None -> ()
  | Some _ ->
    with_temp_dir (fun corpus ->
        with_temp_dir (fun cache ->
            expect
              [ "gen"; "--out"; corpus; "--count"; "4"; "--seed"; "3";
                "--smoke" ]
              ~code:0 ~needles:[ "wrote 4 spec(s)" ];
            let batch () =
              run [ "batch"; corpus; "--cache-dir"; cache; "--workers"; "2" ]
            in
            match (batch (), batch ()) with
            | Some (0, cold), Some (0, warm) ->
              (* stdout lines (the verdicts) must be byte-identical;
                 stderr differs (hit/miss counters) *)
              let verdicts out =
                List.filter
                  (fun l -> contains ~needle:"spec-" l)
                  (String.split_on_char '\n' out)
              in
              Alcotest.(check (list string))
                "cold and warm verdicts identical" (verdicts cold)
                (verdicts warm);
              (* not every verdict is cacheable (exhaustion infeasibles
                 and inconclusives recompute), but a warm run must hit
                 for the rest *)
              let hits =
                List.find_map
                  (fun l ->
                    match String.split_on_char ' ' (String.trim l) with
                    | "cache:" :: n :: "hit(s)," :: _ -> int_of_string_opt n
                    | _ -> None)
                  (String.split_on_char '\n' warm)
              in
              (match hits with
              | Some n when n > 0 -> ()
              | Some _ | None ->
                Alcotest.failf "warm batch did not hit the cache:\n%s" warm)
            | _ -> Alcotest.fail "batch run failed"))

let test_serve_stdio () =
  match Lazy.force binary with
  | None -> ()
  | Some bin ->
    let cmd =
      Printf.sprintf
        "printf '%%s\\n' '{\"op\":\"ping\"}' \
         '{\"id\":\"j1\",\"case\":\"quickstart\"}' '{\"op\":\"shutdown\"}' \
         | %s serve 2>/dev/null"
        (Filename.quote bin)
    in
    let ic = Unix.open_process_in cmd in
    let output = In_channel.input_all ic in
    let code =
      match Unix.close_process_in ic with Unix.WEXITED n -> n | _ -> -1
    in
    Alcotest.(check int) "serve exits cleanly" 0 code;
    List.iter
      (fun needle ->
        if not (contains ~needle output) then
          Alcotest.failf "serve output lacks %S:\n%s" needle output)
      [ "\"op\":\"pong\""; "\"id\":\"j1\""; "\"verdict\":\"feasible\"";
        "\"op\":\"shutdown\"" ]

(* --- the schedule transcript -------------------------------------------- *)

(* `ezrt schedule` over every engine and verdict, pinned byte for byte
   in golden/cli-schedule.txt: the exit code, stdout and stderr of each
   run, with every "<number> ms" timing masked.  Regenerate with

     EZRT_UPDATE_GOLDEN=1 dune test --force
     cp _build/default/test/golden/cli-schedule.txt test/golden/ *)

let mask_timings s =
  let n = String.length s in
  let b = Buffer.create n in
  let numeric c = (c >= '0' && c <= '9') || c = '.' in
  let rec go i =
    if i < n then
      if numeric s.[i] then begin
        let j = ref i in
        while !j < n && numeric s.[!j] do incr j done;
        if !j + 3 <= n && String.sub s !j 3 = " ms" then
          Buffer.add_string b "<t>"
        else Buffer.add_string b (String.sub s i (!j - i));
        go !j
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* stdout and stderr kept apart, unlike [run] *)
let run_split bin args =
  let out = Filename.temp_file "ezrt_cli" ".out" in
  let err = Filename.temp_file "ezrt_cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let code =
        Sys.command (Filename.quote_command bin ~stdout:out ~stderr:err args)
      in
      let read p = In_channel.with_open_bin p In_channel.input_all in
      (code, read out, read err))

let test_schedule_transcript () =
  match
    (Lazy.force binary, Ezrt_spec.Dsl.load_file "../specs/quickstart.xml")
  with
  | None, _ -> ()
  | Some _, Error e -> Alcotest.fail (Ezrt_spec.Dsl.error_to_string e)
  | Some bin, Ok spec ->
    (* the invalid spec of [test_invalid_spec_rejected] *)
    let invalid = Filename.temp_file "ezrt_cli" ".xml" in
    Fun.protect
      ~finally:(fun () -> Sys.remove invalid)
      (fun () ->
        let overrun (t : Ezrt_spec.Task.t) =
          if t.Ezrt_spec.Task.name = "sample" then { t with wcet = 12 } else t
        in
        Ezrt_spec.Dsl.save_file invalid
          { spec with Ezrt_spec.Spec.tasks = List.map overrun spec.tasks };
        let engines =
          [ []; [ "--engine"; "classes" ]; [ "--engine"; "portfolio" ] ]
        in
        let cases =
          [
            [ "--case"; "fig8" ];
            [ "--case"; "greedy-trap"; "--engine"; "classes" ];
            [ "--case"; "fig8"; "--engine"; "portfolio" ];
            [ "--case"; "fig8"; "--engine"; "portfolio"; "--no-analysis" ];
            [ "corpus/relations.xml"; "--engine"; "portfolio" ];
            [ "corpus/relations.xml"; "--engine"; "portfolio"; "--no-analysis" ];
          ]
          @ List.map (fun e -> [ "--case"; "mine-pump"; "--max-states"; "2" ] @ e)
              engines
          @ List.map (fun e -> [ "--case"; "mine-pump"; "--timeout"; "0" ] @ e)
              engines
          @ [ [ "INVALID.xml" ] ]
        in
        let transcript args =
          let code, out, err =
            run_split bin
              ("schedule"
              :: List.map (fun a -> if a = "INVALID.xml" then invalid else a) args)
          in
          Printf.sprintf "$ ezrt schedule %s\n[exit %d]\n[stdout]\n%s[stderr]\n%s\n"
            (String.concat " " args) code (mask_timings out) (mask_timings err)
        in
        let actual = String.concat "" (List.map transcript cases) in
        let path = Filename.concat "golden" "cli-schedule.txt" in
        if Sys.getenv_opt "EZRT_UPDATE_GOLDEN" <> None then
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc actual)
        else
          Alcotest.(check string)
            "ezrt schedule transcript matches the golden file"
            (In_channel.with_open_bin path In_channel.input_all)
            actual)

let suite =
  [
    case "check" test_check;
    case "check rejects unknown case" test_check_rejects;
    case "info" test_info;
    case "schedule" test_schedule;
    case "schedule with a policy flag" test_schedule_policy_flag;
    case "schedule budget exhaustion exits nonzero"
      test_schedule_infeasible_budget;
    case "latest-release flag" test_latest_release_flag;
    case "codegen" test_codegen;
    case "codegen target selection" test_codegen_target;
    case "model prints PNML" test_model_pnml;
    case "simulate" test_simulate;
    case "compare" test_compare;
    case "DSL file workflow" test_dsl_file_workflow;
    case "class engine" test_class_engine;
    case "gantt flag" test_gantt_flag;
    case "analyze" test_analyze;
    case "analyze --spec-only verdicts and exit codes" test_analyze_spec_only;
    case "analyze --spec-only prints a reject witness"
      test_analyze_spec_only_rejects;
    case "invalid spec is an error, not a crash" test_invalid_spec_rejected;
    case "portfolio prepass and --no-analysis" test_portfolio_prepass;
    case "portfolio on mine-pump names discrete/fifo" test_portfolio_mine_pump;
    case "analyze with sensitivity" test_analyze_sensitivity;
    case "vcd output" test_vcd_output;
    case "simulate with fault injection" test_simulate_fault;
    case "model-check" test_model_check;
    case "trace output" test_trace_output;
    case "one translation per command, C only from codegen"
      test_trace_spans_per_command;
    case "metrics output" test_metrics_output;
    case "bad usage" test_bad_usage;
    case "info --digest" test_info_digest;
    slow_case "schedule --timeout exits 124" test_schedule_timeout;
    slow_case "gen + batch cold/warm" test_gen_and_batch_warm;
    slow_case "serve over stdio" test_serve_stdio;
    case "schedule transcript over every engine" test_schedule_transcript;
  ]
