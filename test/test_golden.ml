(* Golden-file tests: the PNML export and the generated C program for
   a fixed corpus spec are compared byte-for-byte against checked-in
   references, so any unintended change to either serializer shows up
   as a readable diff.  Regenerate the files with:

     dune exec bin/ezrt.exe -- model test/corpus/feasible-mix.xml \
       -o test/golden/feasible-mix.pnml
     dune exec bin/ezrt.exe -- codegen test/corpus/feasible-mix.xml \
       -o test/golden/feasible-mix.c

   The search-counts golden pins every engine's verdict and search
   counters on the case studies and the corpus; regenerate it with:

     EZRT_UPDATE_GOLDEN=1 dune test --force *)

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

let test_search_counts_golden () =
  let corpus =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
    |> List.map (fun f ->
           match Dsl.load_file (Filename.concat "corpus" f) with
           | Ok spec -> (f, spec)
           | Error e -> Alcotest.fail (Dsl.error_to_string e))
  in
  let lines (name, spec) =
    let model = Translate.translate spec in
    List.map
      (fun (engine, options) -> discrete_line name engine options model)
      discrete_engines
    @ [
        class_line name "classes" ~subsume:true model;
        class_line name "classes-no-subsume" ~subsume:false model;
      ]
  in
  let actual =
    String.concat "" (List.concat_map lines (Case_studies.all @ corpus))
  in
  let path = golden "search-counts.txt" in
  if update_golden then write_file path actual
  else check_string "search counts match the golden file" (read_file path) actual

let suite =
  [
    case "pnml golden" test_pnml_golden;
    case "codegen golden" test_codegen_golden;
    case "search counts golden" test_search_counts_golden;
  ]
