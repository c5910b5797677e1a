(* The differential fuzzing subsystem itself: seeded generation is
   byte-for-byte reproducible and always valid, the differ finds no
   divergence on healthy engines, a deliberately lying engine is
   caught and shrunk to a tiny counterexample, and the shrinker is
   minimal on a synthetic predicate. *)

open Test_util
module Rng = Ezrt_gen.Rng
module Spec_gen = Ezrt_gen.Spec_gen
module Differ = Ezrt_gen.Differ
module Pipeline = Ezrt_sched.Pipeline
module Shrink = Ezrt_gen.Shrink
module Fuzz = Ezrt_gen.Fuzz
module Spec = Ezrt_spec.Spec
module Task = Ezrt_spec.Task
module Dsl = Ezrt_spec.Dsl
module Validate = Ezrt_spec.Validate
module Case_studies = Ezrt_spec.Case_studies

(* --- the PRNG ------------------------------------------------------- *)

let test_rng_deterministic () =
  let draw () =
    let rng = Rng.create 99 in
    List.init 20 (fun _ -> Rng.int rng 1000)
  in
  check_bool "same seed, same stream" true (draw () = draw ());
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different seeds diverge" true
    (List.init 20 (fun _ -> Rng.int a 1000)
    <> List.init 20 (fun _ -> Rng.int b 1000))

let test_rng_derive_independent () =
  let root = Rng.create 7 in
  let s0 = Rng.derive root 0 and s1 = Rng.derive root 1 in
  check_bool "derived streams differ" true
    (List.init 10 (fun _ -> Rng.int s0 1000)
    <> List.init 10 (fun _ -> Rng.int s1 1000));
  (* deriving must not depend on how much the parent stream was used *)
  let root' = Rng.create 7 in
  ignore (Rng.int root' 1000);
  check_bool "derive ignores parent position" true
    (Rng.int (Rng.derive root' 5) 1000 = Rng.int (Rng.derive root 5) 1000)

let prop_rng_bounds =
  qcheck "int_in stays in bounds" QCheck.(pair int (pair small_int small_int))
    (fun (seed, (a, b)) ->
      let lo = min a b and hi = max a b in
      let rng = Rng.create seed in
      let v = Rng.int_in rng lo hi in
      lo <= v && v <= hi)

let prop_rng_float_unit =
  qcheck "float in [0,1)" QCheck.int (fun seed ->
      let f = Rng.float (Rng.create seed) in
      0.0 <= f && f < 1.0)

(* --- the generator -------------------------------------------------- *)

let test_generation_reproducible () =
  List.iter
    (fun i ->
      check_string
        (Printf.sprintf "spec %d byte-identical" i)
        (Dsl.to_string (Spec_gen.spec_at ~seed:123 i))
        (Dsl.to_string (Spec_gen.spec_at ~seed:123 i)))
    (List.init 10 Fun.id)

let test_generation_valid () =
  List.iter
    (fun i ->
      let spec = Spec_gen.spec_at ~seed:5 i in
      check_bool (Printf.sprintf "spec %d valid" i) true
        (Validate.is_valid spec))
    (List.init 40 Fun.id)

let test_generation_covers_features () =
  let specs = List.init 120 (Spec_gen.spec_at ~seed:3) in
  let exists f = List.exists f specs in
  check_bool "some spec has a precedence" true
    (exists (fun s -> s.Spec.precedences <> []));
  check_bool "some spec has an exclusion" true
    (exists (fun s -> s.Spec.exclusions <> []));
  check_bool "some spec has a message" true
    (exists (fun s -> s.Spec.messages <> []));
  check_bool "some spec has a preemptive task" true
    (exists (fun s ->
         List.exists (fun t -> t.Task.mode = Task.Preemptive) s.Spec.tasks));
  check_bool "some spec sits near the feasibility boundary" true
    (exists (fun s -> Spec.utilization s >= 0.8));
  check_bool "some spec is lightly loaded" true
    (exists (fun s -> Spec.utilization s <= 0.5));
  check_bool "every utilization validates" true
    (List.for_all (fun s -> Spec.utilization s <= 1.0 +. 1e-9) specs)

(* --- the differ ----------------------------------------------------- *)

let test_no_divergence_on_case_studies () =
  List.iter
    (fun (name, spec) ->
      let report = Differ.check spec in
      Alcotest.(check (list string))
        (name ^ " has no divergence") []
        (List.map Differ.divergence_to_string report.Differ.divergences))
    [
      ("quickstart", Case_studies.quickstart);
      ("fig8-preemptive", Case_studies.fig8_preemptive);
      ("greedy-trap", Case_studies.greedy_trap);
    ]

let test_smoke_campaign_clean () =
  let stats =
    Fuzz.run ~profile:Spec_gen.smoke ~shrink:false ~seed:9 ~count:40 ()
  in
  check_int "all specs generated" 40 stats.Fuzz.generated;
  check_int "no divergences" 0 (List.length stats.Fuzz.divergent);
  check_bool "verdicts on both sides" true
    (stats.Fuzz.feasible > 0 && stats.Fuzz.infeasible > 0)

let test_campaign_deterministic () =
  let run () =
    let s = Fuzz.run ~profile:Spec_gen.smoke ~shrink:false ~seed:4 ~count:25 () in
    (s.Fuzz.feasible, s.Fuzz.infeasible, s.Fuzz.unknown)
  in
  check_bool "tallies reproducible" true (run () = run ())

let lying_engine =
  ("liar", fun ~max_stored:_ _model -> Pipeline.Infeasible None)

let test_injected_bug_caught_and_shrunk () =
  (* an engine that always answers infeasible must trip the differ on
     the first feasible spec... *)
  let rec first_catch i =
    if i > 50 then Alcotest.fail "no feasible spec in 50 draws"
    else
      let spec = Spec_gen.spec_at ~seed:11 i in
      if (Differ.check ~extra:[ lying_engine ] spec).Differ.divergences <> []
      then spec
      else first_catch (i + 1)
  in
  let spec = first_catch 0 in
  check_bool "healthy engines agree on the same spec" true
    ((Differ.check spec).Differ.divergences = []);
  (* ...and the divergence must shrink to a tiny spec that still trips *)
  let failing s =
    (Differ.check ~extra:[ lying_engine ] s).Differ.divergences <> []
  in
  let shrunk = Shrink.minimize ~failing spec in
  check_bool "shrunk to at most 4 tasks" true
    (List.length shrunk.Spec.tasks <= 4);
  check_bool "shrunk spec still fails" true (failing shrunk);
  check_bool "shrunk spec still valid" true (Validate.is_valid shrunk)

let test_uncertified_schedule_caught () =
  (* an engine whose schedule is a truncation of the real one must be
     flagged as uncertified, not silently accepted *)
  let spec = Case_studies.quickstart in
  let truncating =
    ( "truncator",
      fun ~max_stored model ->
        match
          Pipeline.solve
            ~engine:
              (Pipeline.Discrete
                 { Ezrt_sched.Search.default_options with max_stored })
            model
        with
        | Ok { Pipeline.verdict = Pipeline.Certified c; _ } ->
          Pipeline.Certified
            {
              c with
              schedule =
                {
                  Ezrt_sched.Schedule.entries =
                    (match c.schedule.Ezrt_sched.Schedule.entries with
                    | _ :: rest -> rest
                    | [] -> []);
                };
            }
        | Ok { Pipeline.verdict; _ } -> verdict
        | Error e -> failwith (Pipeline.error_to_string e) )
  in
  let report = Differ.check ~extra:[ truncating ] spec in
  check_bool "truncated schedule flagged" true
    (List.exists
       (function Differ.Uncertified _ -> true | _ -> false)
       report.Differ.divergences)

let test_crashing_engine_reported () =
  (* an engine that raises must surface as a divergence naming it, with
     no row of its own, while the healthy rows still report *)
  let crashing = ("crasher", fun ~max_stored:_ _model -> failwith "boom") in
  let report = Differ.check ~extra:[ crashing ] Case_studies.quickstart in
  check_bool "crash reported" true
    (List.exists
       (function
         | Differ.Engine_crash { engine = "crasher"; exn } ->
           exn = Printexc.to_string (Failure "boom")
         | _ -> false)
       report.Differ.divergences);
  check_int "no other divergence" 1 (List.length report.Differ.divergences);
  check_bool "no row for the crashed engine" true
    (List.for_all
       (fun r -> r.Differ.engine <> "crasher")
       report.Differ.results);
  check_bool "the reference engine still reports" true
    (List.exists
       (fun r -> r.Differ.engine = "reference")
       report.Differ.results)

(* --- the shrinker --------------------------------------------------- *)

let test_shrink_minimal_on_synthetic_predicate () =
  let base = Spec_gen.spec_at ~seed:21 2 in
  (* grow to at least 3 tasks so there is something to shrink *)
  let failing s = List.length s.Spec.tasks >= 2 in
  let spec =
    if List.length base.Spec.tasks >= 3 then base
    else Spec_gen.spec_at ~seed:21 5
  in
  check_bool "starting point fails" true (failing spec);
  let shrunk = Shrink.minimize ~failing spec in
  check_int "exactly the minimal task count survives" 2
    (List.length shrunk.Spec.tasks);
  check_bool "no relations survive" true
    (shrunk.Spec.precedences = [] && shrunk.Spec.exclusions = []
    && shrunk.Spec.messages = []);
  (* fully reduced: every remaining candidate either grows, breaks
     validity, or stops failing *)
  check_bool "local minimum" true
    (List.for_all
       (fun c ->
         Shrink.size c >= Shrink.size shrunk
         || (not (Validate.is_valid c))
         || not (failing c))
       (Shrink.candidates shrunk))

let test_shrink_preserves_failure () =
  let failing s =
    List.exists (fun (t : Task.t) -> t.Task.mode = Task.Preemptive) s.Spec.tasks
  in
  let rec find i =
    if i > 100 then Alcotest.fail "no preemptive spec found"
    else
      let s = Spec_gen.spec_at ~seed:13 i in
      if failing s then s else find (i + 1)
  in
  let spec = find 0 in
  let shrunk = Shrink.minimize ~failing spec in
  check_bool "failure preserved" true (failing shrunk);
  check_bool "size never grows" true (Shrink.size shrunk <= Shrink.size spec)

(* --- corpus writing ------------------------------------------------- *)

let test_write_corpus_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "ezrt-fuzz-test" in
  let spec = Spec_gen.spec_at ~seed:17 0 in
  let stats =
    {
      Fuzz.seed = 17;
      count = 1;
      generated = 1;
      feasible = 1;
      infeasible = 0;
      unknown = 0;
      divergent =
        [ { Fuzz.index = 0; spec; divergences = []; shrunk = spec } ];
      elapsed_s = 0.1;
    }
  in
  (match Fuzz.write_corpus ~dir stats with
  | [ path ] ->
    (match Dsl.load_file path with
    | Ok reloaded ->
      check_string "round-trips through the DSL" (Dsl.to_string spec)
        (Dsl.to_string reloaded)
    | Error e -> Alcotest.fail (Dsl.error_to_string e));
    Sys.remove path
  | paths ->
    Alcotest.fail
      (Printf.sprintf "expected one corpus file, got %d" (List.length paths)));
  check_bool "empty stats write nothing" true
    (Fuzz.write_corpus ~dir { stats with divergent = [] } = [])

let suite =
  [
    case "rng determinism" test_rng_deterministic;
    case "rng derived streams" test_rng_derive_independent;
    prop_rng_bounds;
    prop_rng_float_unit;
    case "generation reproducible" test_generation_reproducible;
    case "generation valid" test_generation_valid;
    case "generation covers features" test_generation_covers_features;
    slow_case "no divergence on case studies" test_no_divergence_on_case_studies;
    slow_case "smoke campaign clean" test_smoke_campaign_clean;
    slow_case "campaign deterministic" test_campaign_deterministic;
    slow_case "injected bug caught and shrunk" test_injected_bug_caught_and_shrunk;
    case "uncertified schedule caught" test_uncertified_schedule_caught;
    case "crashing engine reported" test_crashing_engine_reported;
    case "shrink minimal on synthetic predicate"
      test_shrink_minimal_on_synthetic_predicate;
    case "shrink preserves failure" test_shrink_preserves_failure;
    case "write_corpus round-trip" test_write_corpus_roundtrip;
  ]
