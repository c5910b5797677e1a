(* Golden-file tests: the PNML export and the generated C program for
   a fixed corpus spec are compared byte-for-byte against checked-in
   references, so any unintended change to either serializer shows up
   as a readable diff.  Regenerate the files with:

     dune exec bin/ezrt.exe -- model test/corpus/feasible-mix.xml \
       -o test/golden/feasible-mix.pnml
     dune exec bin/ezrt.exe -- codegen test/corpus/feasible-mix.xml \
       -o test/golden/feasible-mix.c

   The search-counts golden pins every engine's verdict and search
   counters, and the portfolio's verdict, winner and members, on the
   case studies and the corpus; regenerate it with:

     EZRT_UPDATE_GOLDEN=1 dune test --force
     cp _build/default/test/golden/search-counts.txt test/golden/

   The invariants golden pins the Farkas outcome (tag, row count and
   an MD5 of the rows) for the case studies, the corpus and 200
   generated specs under four row bounds; regenerate it the same way
   and copy test/golden/invariants.txt.

   The reachability golden pins every breadth-first walk over the
   case studies, the corpus and 10 generated specs under four state
   budgets: TLTS and class-graph statistics, an MD5 of the TLTS graph,
   the marking comparison, the reachability report and five queries
   under both semantics; regenerate it the same way and copy
   test/golden/reach.txt.

   The emitted-C golden pins an MD5 of the C program `synthesize`
   emits for every case study and corpus spec that schedules, so every
   schedule-table row comment (starts, preempts, resumes) is pinned
   byte-for-byte; regenerate it the same way and copy
   test/golden/emit.txt. *)

open Ezrealtime
open Test_util

let spec_path = Filename.concat "corpus" "feasible-mix.xml"
let golden name = Filename.concat "golden" name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_spec () =
  match Dsl.load_file spec_path with
  | Ok spec -> spec
  | Error e -> Alcotest.fail (Dsl.error_to_string e)

let test_pnml_golden () =
  let model = Translate.translate (load_spec ()) in
  check_string "PNML export matches the golden file"
    (read_file (golden "feasible-mix.pnml"))
    (Pnml.to_string model.Translate.net)

let test_codegen_golden () =
  match synthesize (load_spec ()) with
  | Error e -> Alcotest.fail (error_to_string e)
  | Ok artifact ->
    check_string "generated C matches the golden file"
      (read_file (golden "feasible-mix.c"))
      artifact.c_program

(* --- search counters over every engine ---------------------------- *)

let update_golden = Sys.getenv_opt "EZRT_UPDATE_GOLDEN" <> None

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let discrete_engines =
  let d = Search.default_options in
  [
    ("copying", { d with Search.incremental = false });
    ("incremental", d);
    ("latest-release", { d with Search.latest_release = true });
  ]

(* elapsed_s is left out: every other field is deterministic *)
let counts_line ~spec ~engine ~verdict ~stored ~visited ~eager ~backtracks
    ~max_depth ~subsumed =
  Printf.sprintf
    "%s %s: %s stored=%d visited=%d eager=%d backtracks=%d max_depth=%d \
     subsumed=%d\n"
    spec engine verdict stored visited eager backtracks max_depth subsumed

let discrete_line spec engine options model =
  let outcome, (m : Search.metrics) = Search.find_schedule ~options model in
  let verdict =
    match outcome with
    | Ok _ -> "feasible"
    | Error Search.Infeasible -> "infeasible"
    | Error Search.Budget_exhausted -> "budget"
  in
  counts_line ~spec ~engine ~verdict ~stored:m.Search.stored
    ~visited:m.Search.visited ~eager:m.Search.eager
    ~backtracks:m.Search.backtracks ~max_depth:m.Search.max_depth ~subsumed:0

let class_line spec engine ~subsume model =
  let outcome, (m : Class_search.metrics) =
    Class_search.find_schedule ~subsume model
  in
  let verdict =
    match outcome with
    | Ok _ -> "feasible"
    | Error Class_search.Infeasible -> "infeasible"
    | Error Class_search.Budget_exhausted -> "budget"
    | Error Class_search.Extraction_failed -> "extraction-failed"
  in
  counts_line ~spec ~engine ~verdict ~stored:m.Class_search.stored
    ~visited:m.Class_search.visited ~eager:m.Class_search.eager
    ~backtracks:m.Class_search.backtracks ~max_depth:m.Class_search.max_depth
    ~subsumed:m.Class_search.subsumed

(* the portfolio's decision: verdict, winner and the members that
   reached a verdict, in the order they ran *)
let portfolio_line spec model =
  let race = Portfolio.find_schedule ~analysis:false model in
  let verdict =
    match race.Portfolio.outcome with
    | Ok _ -> "feasible"
    | Error Search.Infeasible -> "infeasible"
    | Error Search.Budget_exhausted -> "budget"
  in
  Printf.sprintf "%s portfolio: %s winner=%s members=%s\n" spec verdict
    (match race.Portfolio.winner with
    | Some cfg -> Portfolio.config_to_string cfg
    | None -> "none")
    (String.concat ","
       (List.map
          (fun (a : Portfolio.attempt) -> Portfolio.config_to_string a.config)
          race.Portfolio.attempts))

let test_search_counts_golden () =
  let lines (name, spec) =
    let model = Translate.translate spec in
    List.map
      (fun (engine, options) -> discrete_line name engine options model)
      discrete_engines
    @ [
        class_line name "classes" ~subsume:true model;
        class_line name "classes-no-subsume" ~subsume:false model;
        portfolio_line name model;
      ]
  in
  let actual =
    String.concat ""
      (List.concat_map lines (Case_studies.all @ load_corpus ()))
  in
  let path = golden "search-counts.txt" in
  if update_golden then write_file path actual
  else check_string "search counts match the golden file" (read_file path) actual

(* --- Farkas P-invariants ------------------------------------------ *)

let invariants_line name net max_rows =
  let outcome = Invariants.p_invariants ~max_rows net in
  let rows = Invariants.invariants_of outcome in
  let text =
    String.concat ""
      (List.map
         (fun y ->
           String.concat " " (Array.to_list (Array.map string_of_int y)) ^ "\n")
         rows)
  in
  Printf.sprintf "%s max_rows=%d: %s rows=%d md5=%s\n" name max_rows
    (if Invariants.is_truncated outcome then "Truncated" else "Complete")
    (List.length rows)
    (Digest.to_hex (Digest.string text))

let test_invariants_golden () =
  let generated =
    List.init 200 (fun i ->
        (Printf.sprintf "gen-42-%d" i, Ezrt_gen.Spec_gen.spec_at ~seed:42 i))
  in
  let lines (name, spec) =
    let net = (Translate.translate spec).Translate.net in
    List.map (invariants_line name net) [ 1; 5; 30; 20_000 ]
  in
  let actual =
    String.concat ""
      (List.concat_map lines (Case_studies.all @ load_corpus () @ generated))
  in
  let path = golden "invariants.txt" in
  if update_golden then write_file path actual
  else
    check_string "Farkas outcomes match the golden file" (read_file path)
      actual

(* --- emitted C program --------------------------------------------- *)

let test_emit_golden () =
  let line (name, spec) =
    match synthesize spec with
    | Ok artifact ->
      Printf.sprintf "%s: md5=%s\n" name
        (Digest.to_hex (Digest.string artifact.c_program))
    | Error _ -> Printf.sprintf "%s: no schedule\n" name
  in
  let actual =
    String.concat "" (List.map line (Case_studies.all @ load_corpus ()))
  in
  let path = golden "emit.txt" in
  if update_golden then write_file path actual
  else
    check_string "emitted C programs match the golden file" (read_file path)
      actual

(* --- breadth-first reachability walks ------------------------------ *)

let reach_queries =
  [ "EF pproc = 0"; "AG pproc <= 1"; "EF deadlock"; "AG not deadlock";
    "EF pend >= 1" ]

(* a raised exception is part of the pinned outcome *)
let guard f = try f () with e -> "exception " ^ Printexc.exn_slot_name e

let verdict_text = function
  | Ok v -> Query.verdict_to_string v
  | Error msg -> "error: " ^ msg

let reach_lines name net budget =
  let row label f =
    Printf.sprintf "%s budget=%d %s: %s\n" name budget label (guard f)
  in
  let class_stats inclusion () =
    let s = State_class.explore ~max_classes:budget ~inclusion net in
    Printf.sprintf "classes=%d edges=%d deadlocks=%d truncated=%b"
      s.State_class.classes s.State_class.edges s.State_class.deadlocks
      s.State_class.truncated
  in
  let query text =
    let q =
      match Query.parse text with
      | Ok q -> q
      | Error msg -> Alcotest.failf "parse %S: %s" text msg
    in
    row ("query " ^ text) (fun () ->
        String.concat " | "
          (List.map guard
             [
               (fun () -> verdict_text (Query.check ~max_states:budget net q));
               (fun () ->
                 verdict_text (Query.check_classes ~max_classes:budget net q));
               (fun () ->
                 verdict_text
                   (Query.check_classes ~max_classes:budget ~priorities:false
                      net q));
             ]))
  in
  [
    row "tlts" (fun () ->
        let s = Tlts.explore ~max_states:budget net in
        Printf.sprintf "states=%d edges=%d deadlocks=%d truncated=%b"
          s.Tlts.states s.Tlts.edges s.Tlts.deadlocks s.Tlts.truncated);
    row "tlts-graph" (fun () ->
        let dot = tlts_graph_to_dot net (tlts_graph ~max_states:budget net) in
        "md5=" ^ Digest.to_hex (Digest.string dot));
    row "classes" (class_stats false);
    row "classes-inclusion" (class_stats true);
    row "markings" (fun () ->
        let c = State_class.compare_reachable_markings ~max_states:budget net in
        Printf.sprintf "common=%d classes_only=%d discrete_only=%d"
          c.State_class.common c.State_class.classes_only
          c.State_class.discrete_only);
    row "report" (fun () ->
        let r = Analysis.reachability_report ~max_states:budget net in
        Printf.sprintf "states=%d edges=%d deadlocks=%d truncated=%b bound=%d"
          r.Analysis.reachable_states r.Analysis.edges r.Analysis.deadlocks
          r.Analysis.truncated r.Analysis.place_bound);
  ]
  @ List.map query reach_queries

let test_reach_golden () =
  let generated =
    List.init 10 (fun i ->
        (Printf.sprintf "gen-42-%d" i, Ezrt_gen.Spec_gen.spec_at ~seed:42 i))
  in
  let lines (name, spec) =
    let net = (Translate.translate spec).Translate.net in
    List.concat_map (reach_lines name net) [ 1; 5; 37; 150 ]
  in
  let actual =
    String.concat ""
      (List.concat_map lines (Case_studies.all @ load_corpus () @ generated))
  in
  let path = golden "reach.txt" in
  if update_golden then write_file path actual
  else
    check_string "reachability walks match the golden file" (read_file path)
      actual

let suite =
  [
    case "pnml golden" test_pnml_golden;
    case "codegen golden" test_codegen_golden;
    case "search counts golden" test_search_counts_golden;
    case "invariants golden" test_invariants_golden;
    case "emitted C golden" test_emit_golden;
    case "reachability golden" test_reach_golden;
  ]
