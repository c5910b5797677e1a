(* Regression corpus replay: every spec under corpus/ was either
   handpicked for engine coverage or is a shrunken divergence from a
   past fuzzing campaign (`ezrt fuzz --corpus`).  Each must pass the
   full differential cross-check forever — a fixed bug that resurfaces
   fails here with the original counterexample. *)

open Test_util
module Differ = Ezrt_gen.Differ
module Dsl = Ezrt_spec.Dsl

let corpus_files () =
  Sys.readdir "corpus"
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xml")
  |> List.sort compare
  |> List.map (Filename.concat "corpus")

let load path =
  match Dsl.load_file path with
  | Ok spec -> spec
  | Error e -> Alcotest.fail (path ^ ": " ^ Dsl.error_to_string e)

let test_corpus_present () =
  check_bool "corpus has specs" true (List.length (corpus_files ()) >= 4)

let test_corpus_replays_clean () =
  List.iter
    (fun path ->
      let report = Differ.check (load path) in
      Alcotest.(check (list string))
        (path ^ " has no divergence") []
        (List.map Differ.divergence_to_string report.Differ.divergences))
    (corpus_files ())

let test_corpus_roundtrips () =
  List.iter
    (fun path ->
      let spec = load path in
      check_string
        (path ^ " survives a DSL round-trip")
        (Dsl.to_string spec)
        (match Dsl.of_string (Dsl.to_string spec) with
        | Ok spec' -> Dsl.to_string spec'
        | Error e -> Alcotest.fail (Dsl.error_to_string e)))
    (corpus_files ())

let suite =
  [
    case "corpus present" test_corpus_present;
    slow_case "corpus replays clean" test_corpus_replays_clean;
    case "corpus round-trips" test_corpus_roundtrips;
  ]
