open Ezrt_tpn
open Test_util
module Case_studies = Ezrt_spec.Case_studies
module Spec_gen = Ezrt_gen.Spec_gen
module Translate = Ezrt_blocks.Translate

let test_builder_basic () =
  let net = sequential_net () in
  check_int "places" 3 (Pnet.place_count net);
  check_int "transitions" 2 (Pnet.transition_count net);
  check_int "arcs" 4 (Pnet.arc_count net);
  check_string "place name" "p1" (Pnet.place_name net 1);
  check_string "transition name" "t1" (Pnet.transition_name net 1);
  check_int "m0" 1 net.Pnet.m0.(0);
  check_int "m0 empty" 0 net.Pnet.m0.(1)

let test_duplicate_place () =
  let b = Pnet.Builder.create "dup" in
  let _ = Pnet.Builder.add_place b "p" in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Builder.add_place: duplicate place \"p\"") (fun () ->
      ignore (Pnet.Builder.add_place b "p"))

let test_duplicate_transition () =
  let b = Pnet.Builder.create "dup" in
  let _ = Pnet.Builder.add_transition b "t" Time_interval.zero in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Builder.add_transition: duplicate transition \"t\"")
    (fun () -> ignore (Pnet.Builder.add_transition b "t" Time_interval.zero))

let test_weight_accumulation () =
  let b = Pnet.Builder.create "acc" in
  let p = Pnet.Builder.add_place b ~tokens:5 "p" in
  let q = Pnet.Builder.add_place b "q" in
  let t = Pnet.Builder.add_transition b "t" Time_interval.zero in
  Pnet.Builder.arc_pt b p t ~weight:2;
  Pnet.Builder.arc_pt b p t;
  Pnet.Builder.arc_tp b t q;
  let net = Pnet.Builder.build b in
  (match net.Pnet.pre.(t) with
  | [| (p', 3) |] -> check_int "same place" p p'
  | _ -> Alcotest.fail "expected accumulated weight 3");
  check_int "arc count counts pairs" 2 (Pnet.arc_count net)

(* Arcs added in descending place order, with duplicate (t, p) pairs on
   both sides, come out as rows sorted by place with summed weights. *)
let test_rows_sorted_and_summed () =
  let b = Pnet.Builder.create "rows" in
  let ps =
    Array.init 4 (fun i ->
        Pnet.Builder.add_place b ~tokens:1 (Printf.sprintf "p%d" i))
  in
  let t0 = Pnet.Builder.add_transition b "t0" Time_interval.zero in
  let t1 = Pnet.Builder.add_transition b "t1" Time_interval.zero in
  for i = 3 downto 0 do
    Pnet.Builder.arc_pt b ps.(i) t1 ~weight:(i + 1);
    Pnet.Builder.arc_tp b t0 ps.(i)
  done;
  Pnet.Builder.arc_pt b ps.(2) t0;
  Pnet.Builder.arc_pt b ps.(0) t0 ~weight:2;
  Pnet.Builder.arc_pt b ps.(2) t0 ~weight:3;
  Pnet.Builder.arc_tp b t0 ps.(3) ~weight:2;
  Pnet.Builder.arc_tp b t0 ps.(1);
  Pnet.Builder.arc_pt b ps.(3) t1;
  Pnet.Builder.arc_tp b t1 ps.(1);
  Pnet.Builder.arc_tp b t1 ps.(1) ~weight:4;
  let net = Pnet.Builder.build b in
  let rows = Alcotest.(array (pair int int)) in
  Alcotest.check rows "t0 pre" [| (0, 2); (2, 4) |] net.Pnet.pre.(t0);
  Alcotest.check rows "t0 post" [| (0, 1); (1, 2); (2, 1); (3, 3) |]
    net.Pnet.post.(t0);
  Alcotest.check rows "t1 pre" [| (0, 1); (1, 2); (2, 3); (3, 5) |]
    net.Pnet.pre.(t1);
  Alcotest.check rows "t1 post" [| (1, 5) |] net.Pnet.post.(t1);
  Alcotest.(check (array (array int))) "consumers"
    [| [| 0; 1 |]; [| 1 |]; [| 0; 1 |]; [| 1 |] |] net.Pnet.consumers

(* The one-pass build equals the fold-per-transition reference on every
   translated net: case studies, corpus and 250 generated specs, both as
   [Translate.translate] built it and replayed with arcs in descending
   place order and weights split into unit arcs. *)
let test_build_matches_reference () =
  let specs =
    Case_studies.all
    @ load_corpus ()
    @ List.init 250 (fun i ->
          (Printf.sprintf "gen-42-%d" i, Spec_gen.spec_at ~seed:42 i))
  in
  List.iter
    (fun (name, spec) ->
      let net = (Translate.translate spec).Translate.net in
      let rebuilt, reference = reference_rebuild net in
      check_bool (name ^ ": translated net = reference") true
        (parts_of_net net = reference);
      check_bool (name ^ ": replayed net = reference") true
        (parts_of_net rebuilt = reference);
      check_bool (name ^ ": replayed places") true
        (rebuilt.Pnet.place_names = net.Pnet.place_names))
    specs

let test_bad_weight () =
  let b = Pnet.Builder.create "w" in
  let p = Pnet.Builder.add_place b "p" in
  let t = Pnet.Builder.add_transition b "t" Time_interval.zero in
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Builder.arc_pt: weight < 1") (fun () ->
      Pnet.Builder.arc_pt b p t ~weight:0)

let test_no_input_rejected () =
  let b = Pnet.Builder.create "noin" in
  let p = Pnet.Builder.add_place b "p" in
  let t = Pnet.Builder.add_transition b "t" Time_interval.zero in
  Pnet.Builder.arc_tp b t p;
  Alcotest.check_raises "no input arc"
    (Invalid_argument "Builder.build: transition \"t\" has no input arc")
    (fun () -> ignore (Pnet.Builder.build b))

let test_extra_tokens () =
  let b = Pnet.Builder.create "tok" in
  let p = Pnet.Builder.add_place b ~tokens:1 "p" in
  let t = Pnet.Builder.add_transition b "t" Time_interval.zero in
  Pnet.Builder.arc_pt b p t;
  Pnet.Builder.add_tokens b p 2;
  let net = Pnet.Builder.build b in
  check_int "accumulated m0" 3 net.Pnet.m0.(p)

let test_find () =
  let net = conflict_net () in
  check_int "find place" 0 (Pnet.find_place net "p0");
  check_int "find transition" 1 (Pnet.find_transition net "t1");
  check_bool "find_opt none" true (Pnet.find_place_opt net "zz" = None);
  Alcotest.check_raises "not found" Not_found (fun () ->
      ignore (Pnet.find_place net "zz"))

let test_structural_conflict () =
  let net = conflict_net () in
  check_bool "t0 vs t1 conflict" true (in_structural_conflict net 0 1);
  check_bool "self is not a conflict" false (in_structural_conflict net 0 0);
  let seq = sequential_net () in
  check_bool "sequential no conflict" false
    (in_structural_conflict seq 0 1)

let test_consumers_index () =
  let net = conflict_net () in
  check_bool "p0 consumed by both" true (net.Pnet.consumers.(0) = [| 0; 1 |]);
  check_bool "p1 has no consumers" true (net.Pnet.consumers.(1) = [||])

let test_priority_and_code () =
  let b = Pnet.Builder.create "pc" in
  let p = Pnet.Builder.add_place b ~tokens:1 "p" in
  let t =
    Pnet.Builder.add_transition b ~priority:7 ~code:"do_it();" "t"
      Time_interval.zero
  in
  Pnet.Builder.arc_pt b p t;
  let net = Pnet.Builder.build b in
  check_int "priority" 7 (Pnet.priority net t);
  check_bool "code kept" true
    (net.Pnet.transitions.(t).Pnet.code = Some "do_it();")

let test_summary () =
  let s = Format.asprintf "%a" Pnet.pp_summary (sequential_net ()) in
  check_string "summary" "sequential: |P|=3, |T|=2, |F|=4, tokens(m0)=1" s

let suite =
  [
    case "builder basics" test_builder_basic;
    case "duplicate place rejected" test_duplicate_place;
    case "duplicate transition rejected" test_duplicate_transition;
    case "arc weight accumulation" test_weight_accumulation;
    case "rows sorted by place, duplicates summed" test_rows_sorted_and_summed;
    case "one-pass build = fold reference" test_build_matches_reference;
    case "bad weight rejected" test_bad_weight;
    case "inputless transition rejected" test_no_input_rejected;
    case "extra initial tokens" test_extra_tokens;
    case "find by name" test_find;
    case "structural conflicts" test_structural_conflict;
    case "consumers index" test_consumers_index;
    case "priority and code" test_priority_and_code;
    case "summary rendering" test_summary;
  ]
