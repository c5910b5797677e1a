(* Tests for the structural lint pass (lib/lint): every documented
   diagnostic code fires on a crafted net, reports are deterministic
   (byte-identical JSON/SARIF across runs), every P-invariant
   certificate re-checks against its net, the gate-explain verdict
   agrees with the live engine gate over the generated corpus and
   every case study, and golden files pin the three renderings of the
   mine-pump report.  Regenerate the goldens with:

     EZRT_UPDATE_GOLDEN=1 dune test --force *)

open Ezrt_tpn
module B = Pnet.Builder
module Lint = Ezrt_lint.Lint
module Translate = Ezrt_blocks.Translate
module Class_search = Ezrt_sched.Class_search
module Spec = Ezrt_spec.Spec
module Task = Ezrt_spec.Task
module Dsl = Ezrt_spec.Dsl
module Validate = Ezrt_spec.Validate
module Spec_gen = Ezrt_gen.Spec_gen
open Test_util

let codes (r : Lint.report) =
  List.map (fun (d : Lint.diagnostic) -> d.Lint.code) r.Lint.diagnostics

let has code r = List.mem code (codes r)

let check_has name code r =
  check_bool (Printf.sprintf "%s: %s fires" name code) true (has code r)

let check_not name code r =
  check_bool (Printf.sprintf "%s: no %s" name code) false (has code r)

let certificates_certify name (net : Pnet.t) (r : Lint.report) =
  List.iter
    (fun y ->
      check_bool
        (Printf.sprintf "%s: certificate re-checks" name)
        true
        (Invariants.is_invariant net y))
    r.Lint.certificates

(* --- crafted triggers, one per catalogue code ------------------------- *)

(* p0(1) --t--> p0 + p1: p1 accumulates without bound, so no invariant
   can cover it (L001) and it is produced but never consumed (L008). *)
let test_uncovered_and_accumulator =
  case "L001/L008: unbounded accumulator place" @@ fun () ->
  let b = B.create "growth" in
  let p0 = B.add_place b ~tokens:1 "p0" in
  let p1 = B.add_place b "p1" in
  let t = B.add_transition b "t" Time_interval.zero in
  B.arc_pt b p0 t;
  B.arc_tp b t p0;
  B.arc_tp b t p1;
  let net = B.build b in
  let r = Lint.check_net net in
  check_has "growth" "EZRT-L001" r;
  check_has "growth" "EZRT-L008" r;
  check_not "growth" "EZRT-L005" r;
  check_bool "growth: not truncated" false r.Lint.truncated;
  check_bool "growth: p0 covered" true (r.Lint.covered_places >= 1);
  certificates_certify "growth" net r

(* the Farkas row bound trips; salvaged rows must still certify, and
   the uncovered-place warning is withheld (coverage is unknown, not
   refuted) *)
let test_truncated =
  case "L002: row-bound truncation degrades gracefully" @@ fun () ->
  let net = sequential_net () in
  let r = Lint.check_net ~max_rows:1 net in
  check_bool "truncated flag" true r.Lint.truncated;
  check_has "truncated" "EZRT-L002" r;
  check_not "truncated" "EZRT-L001" r;
  certificates_certify "truncated" net r;
  let full = Lint.check_net net in
  check_bool "full run not truncated" false full.Lint.truncated;
  check_not "full run" "EZRT-L002" full

(* a resource place holding two tokens on a cycle: the covering
   invariant bounds it at 2, not 1 *)
let test_resource_not_safe =
  case "L003: resource place not 1-safe" @@ fun () ->
  let b = B.create "fat-resource" in
  let pr = B.add_place b ~tokens:2 "pr" in
  let t = B.add_transition b "t" Time_interval.zero in
  B.arc_pt b pr t;
  B.arc_tp b t pr;
  let net = B.build b in
  let r = Lint.check_net ~resource_places:[ pr ] net in
  check_has "fat-resource" "EZRT-L003" r;
  (* the same net without resource context is clean: bound 2 is fine
     for an ordinary place *)
  check_not "plain net" "EZRT-L003" (Lint.check_net net)

(* a wrong required-firing vector cannot reproduce the skeleton *)
let test_skeleton =
  case "L004: periodic skeleton not reproducible" @@ fun () ->
  let net = sequential_net () in
  let p2 = Pnet.find_place net "p2" in
  let bad = Lint.check_net ~final_places:[ p2 ]
      ~required_firings:[| 1; 0 |] net
  in
  check_has "bad vector" "EZRT-L004" bad;
  let good = Lint.check_net ~final_places:[ p2 ]
      ~required_firings:[| 1; 1 |] net
  in
  check_not "good vector" "EZRT-L004" good

(* a transition fed by an initially-empty, never-produced place is
   structurally dead, and that place is an unmarked siphon *)
let test_dead_and_siphon =
  case "L005/L009: dead transition on an unmarked siphon" @@ fun () ->
  let b = B.create "starved" in
  let p0 = B.add_place b "p0" in
  let p1 = B.add_place b "p1" in
  let t = B.add_transition b "t" Time_interval.zero in
  B.arc_pt b p0 t;
  B.arc_tp b t p1;
  let net = B.build b in
  check_bool "t is structurally dead" true
    (Lint.structurally_dead net = [ t ]);
  (* p1 rides along: its only producer is the dead transition, whose
     preset lies inside the siphon *)
  check_bool "the siphon is {p0, p1}" true
    (Lint.unmarked_siphon net = [ p0; p1 ]);
  let r = Lint.check_net net in
  check_has "starved" "EZRT-L005" r;
  check_has "starved" "EZRT-L009" r

let test_sink_transition =
  case "L006: sink transition" @@ fun () ->
  let b = B.create "sink" in
  let p0 = B.add_place b ~tokens:1 "p0" in
  let t = B.add_transition b "t" Time_interval.zero in
  B.arc_pt b p0 t;
  let net = B.build b in
  check_has "sink" "EZRT-L006" (Lint.check_net net)

let test_isolated_place =
  case "L007: isolated place" @@ fun () ->
  let b = B.create "loner" in
  let p0 = B.add_place b ~tokens:1 "p0" in
  let _lonely = B.add_place b "lonely" in
  let t = B.add_transition b "t" Time_interval.zero in
  B.arc_pt b p0 t;
  B.arc_tp b t p0;
  let net = B.build b in
  let r = Lint.check_net net in
  check_has "loner" "EZRT-L007" r;
  check_not "loner" "EZRT-L008" r

(* an unbounded latest firing time is a warning on its own, an error
   when the transition sits on the deadline path (must fire) *)
let test_unbounded_lft =
  case "L010: unbounded latest firing time" @@ fun () ->
  let b = B.create "lazy" in
  let p0 = B.add_place b ~tokens:1 "p0" in
  let p1 = B.add_place b "p1" in
  let t = B.add_transition b "t" (Time_interval.make_unbounded 2) in
  B.arc_pt b p0 t;
  B.arc_tp b t p1;
  let net = B.build b in
  let severity_of r =
    List.find_map
      (fun (d : Lint.diagnostic) ->
        if d.Lint.code = "EZRT-L010" then Some d.Lint.severity else None)
      r.Lint.diagnostics
  in
  check_bool "off the deadline path: warning" true
    (severity_of (Lint.check_net net) = Some Lint.Warning);
  check_bool "on the deadline path: error" true
    (severity_of
       (Lint.check_net ~final_places:[ p1 ] ~required_firings:[| 1 |] net)
    = Some Lint.Error)

(* p1 is unmarked, has a consumer, and every consumer feeds it back:
   an unmarked trap *)
let test_trap =
  case "L014: initially-unmarked trap" @@ fun () ->
  let b = B.create "trapped" in
  let p0 = B.add_place b ~tokens:1 "p0" in
  let p1 = B.add_place b "p1" in
  let t = B.add_transition b "t" Time_interval.zero in
  let t2 = B.add_transition b "t2" Time_interval.zero in
  B.arc_pt b p0 t;
  B.arc_tp b t p1;
  B.arc_pt b p1 t2;
  B.arc_tp b t2 p1;
  let net = B.build b in
  check_bool "p1 is the trap" true (Lint.unmarked_trap net = [ p1 ]);
  check_has "trapped" "EZRT-L014" (Lint.check_net net)

(* --- model-level checks: gates, provenance, L013 ---------------------- *)

let tiny_spec () =
  Spec.make ~name:"tiny"
    ~tasks:[ Task.make ~name:"a" ~wcet:1 ~deadline:10 ~period:10 () ]
    ()

let test_gate_diagnostics =
  case "L012: gate decision reported on models" @@ fun () ->
  let model = Translate.translate (tiny_spec ()) in
  let r = Lint.check_model model in
  check_has "tiny" "EZRT-L012" r;
  check_not "tiny" "EZRT-L013" r;
  check_bool "tiny: the subsumption gate alone" true
    (List.map (fun (g : Lint.gate) -> g.Lint.gate) r.Lint.gates
    = [ "subsumption" ])

let test_provenance =
  case "diagnostics on models carry spec provenance" @@ fun () ->
  let model = Translate.translate (tiny_spec ()) in
  let net = model.Translate.net in
  (* every place and transition resolves to a printable origin *)
  for p = 0 to Pnet.place_count net - 1 do
    let s = Translate.origin_to_string model (Translate.place_origin model p) in
    check_bool "place origin non-empty" true (String.length s > 0)
  done;
  for t = 0 to Pnet.transition_count net - 1 do
    let s =
      Translate.origin_to_string model (Translate.transition_origin model t)
    in
    check_bool "transition origin non-empty" true (String.length s > 0)
  done

let xml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xml")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let case_study_models () =
  List.filter_map
    (fun file ->
      match Dsl.load_file file with
      | Error _ -> None
      | Ok spec ->
        if (Validate.check spec).Validate.errors <> [] then None
        else Some (Filename.basename file, Translate.translate spec))
    (xml_files "../specs")

(* the L013 self-check must never fire: lint's re-derived gate agrees
   with [Class_search.subsumption_applicable] on every case study and a
   slice of the seed-42 generated corpus *)
let test_gate_agreement =
  slow_case "gate-explain agrees with the live gate" @@ fun () ->
  let generated =
    List.init 60 (fun i ->
        (Printf.sprintf "gen-%d" i, Translate.translate (Spec_gen.spec_at ~seed:42 i)))
  in
  List.iter
    (fun (name, model) ->
      let live_sub = Class_search.subsumption_applicable model in
      let sub = Lint.explain_subsumption model in
      check_bool (name ^ ": subsumption explain = live gate") live_sub
        sub.Lint.gate_open;
      check_not name "EZRT-L013" (Lint.check_model model))
    (case_study_models () @ generated)

(* every P-invariant certificate re-checks on 100 generated specs *)
let test_certificates_generated =
  slow_case "certificates re-check on the generated corpus" @@ fun () ->
  for i = 0 to 99 do
    let spec = Spec_gen.spec_at ~profile:Spec_gen.smoke ~seed:5 i in
    let model = Translate.translate spec in
    let r = Lint.check_model model in
    certificates_certify (Printf.sprintf "smoke-%d" i) model.Translate.net r;
    check_bool
      (Printf.sprintf "smoke-%d: coverage within bounds" i)
      true
      (r.Lint.covered_places <= r.Lint.place_count)
  done

(* The 500-spec seed-42 corpus of the fuzz campaign lints without an
   error, a truncated invariant computation or a gate-explain mismatch
   (EZRT-L013), and its Farkas pass finds exactly 6412 P-invariant
   certificates, a count that pins the invariant output independently
   of the host. *)
let test_seed42_corpus =
  slow_case "seed-42 corpus: 0 errors, 6412 certificates" @@ fun () ->
  let errors = ref 0 and truncated = ref 0 and mismatches = ref 0 in
  let certs = ref 0 in
  for i = 0 to 499 do
    let r = Lint.check_model (Translate.translate (Spec_gen.spec_at ~seed:42 i)) in
    errors := !errors + Lint.count Lint.Error r;
    if r.Lint.truncated then incr truncated;
    if has "EZRT-L013" r then incr mismatches;
    certs := !certs + List.length r.Lint.certificates
  done;
  check_int "errors" 0 !errors;
  check_int "truncated" 0 !truncated;
  check_int "EZRT-L013 mismatches" 0 !mismatches;
  check_int "certificates" 6412 !certs

(* --- determinism ------------------------------------------------------ *)

let test_deterministic =
  qcheck ~count:60 "lint output is byte-identical across runs" arbitrary_spec
    (fun spec ->
      let render s =
        match Lint.check_spec s with
        | Error e -> "error: " ^ e
        | Ok r -> Lint.to_json r ^ "\n" ^ Lint.to_sarif r
      in
      String.equal (render spec) (render spec))

let test_catalogue =
  case "catalogue codes are unique and ordered" @@ fun () ->
  let codes = List.map (fun (c, _, _) -> c) Lint.catalogue in
  (* L001-L014 less L011, retired with the partial-order reduction *)
  check_int "catalogue size" 13 (List.length codes);
  check_bool "codes sorted and unique" true
    (List.sort_uniq compare codes = codes)

(* --- renderer golden files ------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let update_golden = Sys.getenv_opt "EZRT_UPDATE_GOLDEN" <> None

let check_golden name actual =
  let path = Filename.concat "golden" name in
  if update_golden then write_file path actual
  else check_string (name ^ " matches the golden file") (read_file path) actual

let test_goldens =
  case "mine-pump renderings match the golden files" @@ fun () ->
  match Dsl.load_file "../specs/mine-pump.xml" with
  | Error e -> Alcotest.failf "mine-pump unreadable: %s" (Dsl.error_to_string e)
  | Ok spec ->
    let r = Lint.check_model (Translate.translate spec) in
    check_golden "lint-mine-pump.txt" (Lint.to_text r);
    check_golden "lint-mine-pump.json" (Lint.to_json r ^ "\n");
    check_golden "lint-mine-pump.sarif"
      (Lint.to_sarif ~uri:"specs/mine-pump.xml" r ^ "\n")

(* --- CLI -------------------------------------------------------------- *)

let test_cli =
  case "ezrt lint: formats, deny threshold, exit codes" @@ fun () ->
  Test_cli.expect [ "lint"; "--case"; "mine-pump" ] ~code:0
    ~needles:[ "0 error(s)"; "gate subsumption: open" ];
  Test_cli.expect
    [ "lint"; "--case"; "mine-pump"; "--deny"; "info" ]
    ~code:1 ~needles:[ "EZRT-L012" ];
  Test_cli.expect
    [ "lint"; "--case"; "mine-pump"; "--format"; "sarif" ]
    ~code:0 ~needles:[ "sarif-2.1.0"; "ezrt-lint" ];
  Test_cli.expect
    [ "lint"; "--case"; "mine-pump"; "--format"; "json" ]
    ~code:0 ~needles:[ "ezrt-lint/1" ];
  Test_cli.expect [ "lint"; "no-such-spec.xml" ] ~code:2 ~needles:[ "ezrt:" ]

let suite =
  [
    test_uncovered_and_accumulator;
    test_truncated;
    test_resource_not_safe;
    test_skeleton;
    test_dead_and_siphon;
    test_sink_transition;
    test_isolated_place;
    test_unbounded_lft;
    test_trap;
    test_gate_diagnostics;
    test_provenance;
    test_gate_agreement;
    test_certificates_generated;
    test_seed42_corpus;
    test_deterministic;
    test_catalogue;
    test_goldens;
    test_cli;
  ]
