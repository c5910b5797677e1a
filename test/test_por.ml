(* Stubborn-set partial-order reduction (lib/tpn/indep.ml and its
   wiring through every engine): static-relation sanity and the
   net-level gate, per-state determinism and strictness of [reduce],
   verdict preservation POR-on vs POR-off on hand-built and generated
   specifications across the discrete and class engines, the strict (and growing)
   visited-state reduction on independent task sets, and the unified
   ezrt_por_* / ezrt_gc_* accounting both engines share. *)

open Ezrealtime
open Test_util
module Task = Ezrt_spec.Task
module Spec = Ezrt_spec.Spec
module Case_studies = Ezrt_spec.Case_studies
module Spec_gen = Ezrt_gen.Spec_gen
module Translate = Ezrt_blocks.Translate
module Search = Ezrt_sched.Search
module Class_search = Ezrt_sched.Class_search
module Indep = Ezrt_tpn.Indep
module State = Ezrt_tpn.State

(* N independent zero-laxity tasks: every task must run back-to-back
   from time 0, so the set is infeasible for N >= 2, and the
   infeasibility proof must consider the task bookkeeping of all N
   tasks — factorially many interleavings unless the reduction
   collapses them.  The exponential family behind the A20 bench. *)
let zero_laxity n =
  let tasks =
    List.init n (fun i ->
        Task.make
          ~name:(Printf.sprintf "c%d" i)
          ~wcet:1 ~deadline:1 ~period:60 ())
  in
  Spec.make ~name:(Printf.sprintf "zl-%d" n) ~tasks ()

(* Same shape with one unit of laxity: feasible, exercises the
   feasible-path early exit under reduction. *)
let snug n =
  let tasks =
    List.init n (fun i ->
        Task.make
          ~name:(Printf.sprintf "c%d" i)
          ~wcet:1 ~deadline:2 ~period:60 ())
  in
  Spec.make ~name:(Printf.sprintf "snug-%d" n) ~tasks ()

let verdict = function
  | Ok _ -> "feasible"
  | Error Search.Infeasible -> "infeasible"
  | Error Search.Budget_exhausted -> "budget"

let class_verdict = function
  | Ok _ -> "feasible"
  | Error Class_search.Infeasible -> "infeasible"
  | Error Class_search.Budget_exhausted -> "budget"
  | Error Class_search.Extraction_failed -> "extraction-failed"

let seq ?(max_stored = 2_000_000) model ~por =
  Search.find_schedule
    ~options:{ Search.default_options with por; max_stored }
    model

(* --- static relations and the net-level gate ------------------------- *)

let test_mine_pump_applicable () =
  let model = Translate.translate Case_studies.mine_pump in
  let ind =
    Indep.create model.Translate.net ~final_place:model.Translate.final_place
      ~dead_places:model.Translate.dead_places
  in
  check_bool "translated net passes the gate" true (Indep.applicable ind);
  (* the dependency relation is symmetric by construction *)
  let n = Ezrt_tpn.Pnet.transition_count model.Translate.net in
  for t = 0 to n - 1 do
    List.iter
      (fun u ->
        check_bool
          (Printf.sprintf "dep symmetric (%d,%d)" t u)
          true
          (List.mem t (Indep.dependents ind u)))
      (Indep.dependents ind t)
  done

let test_gate_rejects_dead_consumer () =
  let open Ezrt_tpn in
  let b = Pnet.Builder.create "dead-consumer" in
  let p0 = Pnet.Builder.add_place b ~tokens:1 "p0" in
  let pd = Pnet.Builder.add_place b "pd" in
  let pf = Pnet.Builder.add_place b "pf" in
  let t0 = Pnet.Builder.add_transition b "t0" Time_interval.zero in
  let t1 = Pnet.Builder.add_transition b "t1" Time_interval.zero in
  Pnet.Builder.arc_pt b p0 t0;
  Pnet.Builder.arc_tp b t0 pd;
  Pnet.Builder.arc_pt b pd t1;
  Pnet.Builder.arc_tp b t1 pf;
  let net = Pnet.Builder.build b in
  let ind = Indep.create net ~final_place:pf ~dead_places:[ pd ] in
  check_bool "dead place with a consumer fails the gate" false
    (Indep.applicable ind)

let test_gate_rejects_slow_high_priority () =
  let open Ezrt_tpn in
  let b = Pnet.Builder.create "slow-high-priority" in
  let p0 = Pnet.Builder.add_place b ~tokens:1 "p0" in
  let pf = Pnet.Builder.add_place b "pf" in
  (* better-than-default priority on a non-[0,0] transition *)
  let t0 =
    Pnet.Builder.add_transition b
      ~priority:(Pnet.default_priority - 1)
      "t0" (Time_interval.make 1 2)
  in
  Pnet.Builder.arc_pt b p0 t0;
  Pnet.Builder.arc_tp b t0 pf;
  let net = Pnet.Builder.build b in
  let ind = Indep.create net ~final_place:pf ~dead_places:[] in
  check_bool "slow better-priority transition fails the gate" false
    (Indep.applicable ind)

(* [reduce] must be deterministic in the state and, when it reduces,
   return a strict order-preserving subset of the fireable list.  Walk
   the first urgent states of a multi-task net and check both at each
   stop. *)
let test_reduce_deterministic_and_strict () =
  let model = Translate.translate (zero_laxity 5) in
  let net = model.Translate.net in
  let ind =
    Indep.create net ~final_place:model.Translate.final_place
      ~dead_places:model.Translate.dead_places
  in
  check_bool "gate holds" true (Indep.applicable ind);
  let rec is_subsequence xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs', y :: ys' ->
      if x = y then is_subsequence xs' ys' else is_subsequence xs ys'
  in
  let reductions = ref 0 in
  let s = ref (State.initial net) in
  (try
     for _ = 1 to 60 do
       match State.fireable net !s with
       | [] -> raise Exit
       | fireable ->
         let urgent = State.min_dub net !s = Ezrt_tpn.Time_interval.Finite 0 in
         if urgent && List.length fireable > 1 then begin
           let run () =
             Indep.reduce ind
               ~enabled:(State.is_enabled !s)
               ~dub_zero:(fun t ->
                 State.dub net !s t = Ezrt_tpn.Time_interval.Finite 0)
               ~tokens:(State.tokens !s) fireable
           in
           let a = run () and b = run () in
           check_bool "reduce is deterministic" true (a = b);
           match a with
           | Indep.Reduced e ->
             incr reductions;
             check_bool "strictly smaller" true
               (List.length e < List.length fireable);
             check_bool "non-empty" true (e <> []);
             check_bool "order-preserving subset" true (is_subsequence e fireable)
           | Indep.Fallback -> ()
         end;
         let t = List.hd fireable in
         s := State.fire net !s t (State.dlb net !s t)
     done
   with Exit -> ());
  check_bool "walk hit at least one reduction" true (!reductions > 0)

(* --- verdict preservation ------------------------------------------- *)

let engines_agree name model =
  let (o_on, _) = seq model ~por:true in
  let (o_off, _) = seq model ~por:false in
  check_string (name ^ ": sequential") (verdict o_off) (verdict o_on);
  let c_on, _ = Class_search.find_schedule ~por:true model in
  let c_off, _ = Class_search.find_schedule ~por:false model in
  check_string (name ^ ": classes") (class_verdict c_off) (class_verdict c_on);
  (* the discrete and class engines must also agree with each other *)
  check_string (name ^ ": discrete vs classes") (verdict o_on)
    (class_verdict c_on)

let test_verdicts_sequential_engines () =
  List.iter
    (fun (name, spec) -> engines_agree name (Translate.translate spec))
    [
      ("zl-4", zero_laxity 4);
      ("snug-5", snug 5);
      ("mine-pump", Case_studies.mine_pump);
      ("fig3", Case_studies.fig3_precedence);
    ]

let test_verdicts_generated_specs () =
  List.iter
    (fun i ->
      let spec = Spec_gen.spec_at ~seed:42 i in
      let model = Translate.translate spec in
      let (o_on, _) = seq ~max_stored:300_000 model ~por:true in
      let (o_off, _) = seq ~max_stored:300_000 model ~por:false in
      check_string (Printf.sprintf "campaign spec %d" i) (verdict o_off)
        (verdict o_on))
    (List.init 12 Fun.id)

let prop_por_preserves_verdict =
  qcheck ~count:40 "POR preserves the sequential verdict" arbitrary_spec
    (fun spec ->
      let model = Translate.translate spec in
      let (o_on, _) = seq ~max_stored:300_000 model ~por:true in
      let (o_off, _) = seq ~max_stored:300_000 model ~por:false in
      verdict o_on = verdict o_off)

(* --- strict state-count reduction ------------------------------------ *)

(* The acceptance family: on N independent zero-laxity tasks the
   reduction must at least halve the visited-state count at N = 8 and
   the ratio must grow with N (the reduction is exponential in the
   number of independent tasks, the full expansion factorial). *)
let test_reduction_at_least_2x_and_growing () =
  let ratio n =
    let model = Translate.translate (zero_laxity n) in
    let (o_on, m_on) = seq model ~por:true in
    let (o_off, m_off) = seq model ~por:false in
    check_string
      (Printf.sprintf "zl-%d verdicts agree" n)
      (verdict o_off) (verdict o_on);
    check_string (Printf.sprintf "zl-%d infeasible" n) "infeasible"
      (verdict o_on);
    check_bool
      (Printf.sprintf "zl-%d reduced counter moved" n)
      true
      (m_on.Search.por_reduced > 0);
    float_of_int m_off.Search.visited /. float_of_int m_on.Search.visited
  in
  let r6 = ratio 6 and r8 = ratio 8 in
  check_bool
    (Printf.sprintf "at least 2x at n=8 (got %.2f)" r8)
    true (r8 >= 2.0);
  check_bool
    (Printf.sprintf "ratio grows with n (%.2f -> %.2f)" r6 r8)
    true (r8 > r6)

let test_reduction_classes () =
  let model = Translate.translate (zero_laxity 8) in
  let o_on, m_on = Class_search.find_schedule ~por:true model in
  let o_off, m_off = Class_search.find_schedule ~por:false model in
  check_string "verdicts agree" (class_verdict o_off) (class_verdict o_on);
  check_bool "at least 2x fewer visited classes" true
    (2 * m_on.Class_search.visited <= m_off.Class_search.visited);
  check_bool "reduced counter moved" true (m_on.Class_search.por_reduced > 0)

(* --- unified accounting ---------------------------------------------- *)

(* Both engines report the POR triple with the same semantics: with
   the reduction off all three are zero; with it on, the zero-laxity
   net yields reductions on both engines; and the ezrt_por_* series
   carry per-engine labels through one shared flush, alongside the
   end-of-span GC gauges. *)
let test_unified_por_accounting () =
  Obs_metrics.reset_all ();
  let model = Translate.translate (zero_laxity 6) in
  let (_, m_seq_off) = seq model ~por:false in
  check_int "seq off: reduced" 0 m_seq_off.Search.por_reduced;
  check_int "seq off: fallback" 0 m_seq_off.Search.por_fallback;
  check_int "seq off: skipped" 0 m_seq_off.Search.por_skipped;
  let (_, m_seq) = seq model ~por:true in
  let _, m_cls = Class_search.find_schedule ~por:true model in
  check_bool "seq reduced > 0" true (m_seq.Search.por_reduced > 0);
  check_bool "classes reduced > 0" true (m_cls.Class_search.por_reduced > 0);
  (* one flush vocabulary: both engine labels export the same series *)
  List.iter
    (fun engine ->
      check_bool (engine ^ " exports ezrt_por_reduced_total") true
        (Obs_metrics.value
           (Obs_metrics.counter
              ~labels:[ ("engine", engine) ]
              "ezrt_por_reduced_total")
        > 0))
    [ "discrete-incremental"; "classes" ];
  (* the end-of-search GC gauges were flushed by the same path *)
  check_bool "gc minor-words gauge set" true
    (Obs_metrics.gauge_value (Obs_metrics.gauge "ezrt_gc_minor_words") > 0);
  let contains ~needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  let dump = Obs_metrics.dump () in
  List.iter
    (fun series ->
      check_bool (series ^ " in dump") true (contains ~needle:series dump))
    [
      "ezrt_por_reduced_total";
      "ezrt_por_fallback_total";
      "ezrt_por_skipped_total";
      "ezrt_gc_minor_words";
      "ezrt_gc_major_words";
      "ezrt_gc_compactions";
    ]

let suite =
  [
    case "mine-pump net passes the gate; dep symmetric"
      test_mine_pump_applicable;
    case "gate rejects dead place with a consumer"
      test_gate_rejects_dead_consumer;
    case "gate rejects slow better-priority transition"
      test_gate_rejects_slow_high_priority;
    case "reduce is deterministic, strict, order-preserving"
      test_reduce_deterministic_and_strict;
    case "verdicts preserved: sequential engines"
      test_verdicts_sequential_engines;
    slow_case "verdicts preserved: seed-42 campaign prefix"
      test_verdicts_generated_specs;
    prop_por_preserves_verdict;
    slow_case "zero-laxity family: >= 2x and growing"
      test_reduction_at_least_2x_and_growing;
    slow_case "class engine reduces too" test_reduction_classes;
    case "unified ezrt_por_* / ezrt_gc_* accounting"
      test_unified_por_accounting;
  ]
