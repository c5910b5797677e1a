open Ezrt_tpn
module Translate = Ezrt_blocks.Translate
module Case_studies = Ezrt_spec.Case_studies
open Test_util

let parse_ok s =
  match Query.parse s with
  | Ok q -> q
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let parse_err s =
  match Query.parse s with
  | Ok _ -> Alcotest.failf "expected a syntax error for %S" s
  | Error _ -> ()

let test_parse_shapes () =
  (match parse_ok "EF p >= 1" with
  | Query.Ef (Query.Atom ([ ("p", 1) ], Query.Ge, 1)) -> ()
  | q -> Alcotest.failf "wrong AST: %s" (Query.to_string q));
  (match parse_ok "AG 2 a + b <= 3" with
  | Query.Ag (Query.Atom ([ ("a", 2); ("b", 1) ], Query.Le, 3)) -> ()
  | q -> Alcotest.failf "wrong AST: %s" (Query.to_string q));
  (match parse_ok "EF deadlock" with
  | Query.Ef Query.Deadlock -> ()
  | q -> Alcotest.failf "wrong AST: %s" (Query.to_string q));
  match parse_ok "AG not (a = 0 || b != 2) && c < 5" with
  | Query.Ag (Query.And (Query.Not (Query.Or _), Query.Atom _)) -> ()
  | q -> Alcotest.failf "wrong AST: %s" (Query.to_string q)

let test_parse_errors () =
  parse_err "";
  parse_err "XX p >= 1";
  parse_err "EF p";
  parse_err "EF p >= x";
  parse_err "EF (p >= 1";
  parse_err "EF p >= 1 extra";
  parse_err "EF >= 1";
  parse_err "EF p ~ 1";
  parse_err "AG (p0 <= 99999999999999999999999999)"

let test_to_string_roundtrip () =
  List.iter
    (fun s ->
      let q = parse_ok s in
      let q' = parse_ok (Query.to_string q) in
      check_bool ("roundtrip " ^ s) true (q = q'))
    [
      "EF p >= 1";
      "AG 2 a + b <= 3";
      "EF deadlock";
      "AG not (a = 0 || b != 2) && c < 5";
      "EF a > 0 && (b < 2 || deadlock)";
    ]

let check_q net s =
  match Query.check net (parse_ok s) with
  | Ok v -> v
  | Error msg -> Alcotest.failf "check %S: %s" s msg

let test_simple_net_queries () =
  let net = sequential_net () in
  (* token flows p0 -> p1 -> p2 *)
  (match check_q net "EF p2 >= 1" with
  | Query.Holds [ "t0"; "t1" ] -> ()
  | v -> Alcotest.failf "wrong verdict: %s" (Query.verdict_to_string v));
  (match check_q net "AG p0 + p1 + p2 = 1" with
  | Query.Holds [] -> ()
  | v -> Alcotest.failf "invariant: %s" (Query.verdict_to_string v));
  (match check_q net "AG p2 = 0" with
  | Query.Fails [ "t0"; "t1" ] -> ()
  | v -> Alcotest.failf "counterexample: %s" (Query.verdict_to_string v));
  (match check_q net "EF deadlock" with
  | Query.Holds _ -> ()
  | v -> Alcotest.failf "deadlock: %s" (Query.verdict_to_string v));
  match check_q net "EF p0 >= 2" with
  | Query.Fails [] -> ()
  | v -> Alcotest.failf "unreachable: %s" (Query.verdict_to_string v)

let test_unknown_place_reported () =
  match Query.check (sequential_net ()) (parse_ok "EF ghost >= 1") with
  | Error msg -> check_bool "names the place" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected an error"

let test_unknown_on_budget () =
  let net = ring_net 4 1 in
  (* a ring never deadlocks; with a tiny budget the answer is Unknown *)
  match Query.check ~max_states:1 net (parse_ok "EF deadlock") with
  | Ok Query.Unknown -> ()
  | Ok v -> Alcotest.failf "wrong verdict: %s" (Query.verdict_to_string v)
  | Error msg -> Alcotest.fail msg

let test_translated_properties () =
  let model = Translate.translate Case_studies.fig3_precedence in
  let net = model.Translate.net in
  let holds s =
    match check_q net s with
    | Query.Holds _ -> true
    | Query.Fails _ | Query.Unknown -> false
  in
  check_bool "processor 1-safe" true (holds "AG pproc <= 1");
  check_bool "final marking reachable" true (holds "EF pend >= 1");
  check_bool "no deadline misses in the earliest semantics" true
    (holds "AG pdm_T1 = 0 && pdm_T2 = 0");
  check_bool "precedence: T2 never computes before T1 finished" true
    (holds "AG (pwc_T2 = 0 || pf_T1 + pe_T1 >= 1)")

(* An oracle for a property at one node, independent of Query's own
   evaluator: [deadlock] is the node's deadlock test. *)
let rec holds_at net marking deadlock = function
  | Query.Atom (weighted, cmp, k) -> (
    let total =
      List.fold_left
        (fun acc (name, c) -> acc + (c * marking.(Pnet.find_place net name)))
        0 weighted
    in
    match cmp with
    | Query.Le -> total <= k
    | Query.Lt -> total < k
    | Query.Eq -> total = k
    | Query.Ne -> total <> k
    | Query.Ge -> total >= k
    | Query.Gt -> total > k)
  | Query.Deadlock -> deadlock
  | Query.Not p -> not (holds_at net marking deadlock p)
  | Query.And (a, b) ->
    holds_at net marking deadlock a && holds_at net marking deadlock b
  | Query.Or (a, b) ->
    holds_at net marking deadlock a || holds_at net marking deadlock b

(* the E8 queries (EXPERIMENTS.md) with the models they run on *)
let e8_queries =
  [
    ( Case_studies.fig3_precedence,
      [ "AG pproc <= 1"; "AG pdm_T1 = 0 && pdm_T2 = 0"; "EF pend >= 1";
        "AG (pwc_T2 = 0 || pf_T1 + pe_T1 >= 1)" ] );
    ( Case_studies.fig4_exclusion,
      [ "AG pexcl_T0_T2 <= 1"; "AG pwx_T0 + pwx_T2 <= 1"; "EF pend >= 1" ] );
    ( Case_studies.quickstart,
      [ "EF pend >= 1"; "EF deadlock"; "AG pproc <= 1" ] );
  ]

(* Every Holds/Fails witness of the E8 queries replays under its own
   semantics: each named transition is fireable where it is named, and
   the last node satisfies the property for EF and violates it for
   AG.  [replay] returns the last node's marking and deadlock test. *)
let test_witness_replays () =
  let replays = ref 0 in
  List.iter
    (fun (spec, queries) ->
      let net = (Translate.translate spec).Translate.net in
      let discrete names =
        let s =
          List.fold_left
            (fun s name ->
              let tid = Pnet.find_transition net name in
              check_bool (name ^ " fireable") true
                (List.mem tid (State.fireable net s));
              State.fire net s tid (State.dlb net s tid))
            (State.initial net) names
        in
        (s.State.marking, State.enabled_ids s = [])
      in
      let classes ~priorities names =
        let c =
          List.fold_left
            (fun c name ->
              let tid = Pnet.find_transition net name in
              check_bool (name ^ " firable") true
                (List.mem tid (State_class.firable ~priorities net c));
              State_class.fire net c tid)
            (State_class.initial net) names
        in
        (c.State_class.marking, State_class.firable net c = [])
      in
      let walks =
        [
          ((fun q -> Query.check net q), discrete);
          ( (fun q -> Query.check_classes ~priorities:true net q),
            classes ~priorities:true );
          ( (fun q -> Query.check_classes ~priorities:false net q),
            classes ~priorities:false );
        ]
      in
      List.iter
        (fun text ->
          let q = parse_ok text in
          List.iter
            (fun (check, replay) ->
              let expect_end names prop want =
                incr replays;
                let marking, deadlock = replay names in
                check_bool (text ^ " at the last node") want
                  (holds_at net marking deadlock prop)
              in
              match (check q, q) with
              | Ok (Query.Holds names), Query.Ef p -> expect_end names p true
              | Ok (Query.Fails names), Query.Ag p -> expect_end names p false
              | Ok (Query.Holds _ | Query.Fails _ | Query.Unknown), _ -> ()
              | Error msg, _ -> Alcotest.failf "%s: %s" text msg)
            walks)
        queries)
    e8_queries;
  check_bool "some witness replayed" true (!replays > 0)

let test_exclusion_property () =
  let model = Translate.translate Case_studies.fig4_exclusion in
  let net = model.Translate.net in
  match check_q net "AG pwx_T0 + pwx_T2 <= 1" with
  | Query.Holds [] -> ()
  | v -> Alcotest.failf "exclusion: %s" (Query.verdict_to_string v)

let test_class_semantics () =
  let net = (Translate.translate Case_studies.fig3_precedence).Translate.net in
  let q s = match Query.parse s with Ok q -> q | Error e -> failwith e in
  (* prioritized: same invariants as the discrete walk *)
  (match Query.check_classes net (q "AG pproc <= 1") with
  | Ok (Query.Holds []) -> ()
  | Ok v -> Alcotest.failf "classes safety: %s" (Query.verdict_to_string v)
  | Error e -> Alcotest.fail e);
  (match Query.check_classes net (q "EF pend >= 1") with
  | Ok (Query.Holds (_ :: _)) -> ()
  | Ok v -> Alcotest.failf "classes MF: %s" (Query.verdict_to_string v)
  | Error e -> Alcotest.fail e);
  (* the prioritized class walk, like the discrete one, misses the
     late-release deadline miss... *)
  (match Query.check_classes net (q "EF pdm_T2 >= 1") with
  | Ok (Query.Fails []) -> ()
  | Ok v -> Alcotest.failf "prioritized miss: %s" (Query.verdict_to_string v)
  | Error e -> Alcotest.fail e);
  (* ...while the classical (unprioritized) semantics reaches it *)
  match Query.check_classes ~priorities:false net (q "EF pdm_T2 >= 1") with
  | Ok (Query.Holds (_ :: _)) -> ()
  | Ok v -> Alcotest.failf "unprioritized miss: %s" (Query.verdict_to_string v)
  | Error e -> Alcotest.fail e

(* A state the budget refuses is not tested: on fig3, the first state
   with an idle processor lies past a budget of 5, so the walk has no
   answer. *)
let test_budget_boundary () =
  let net = (Translate.translate Case_studies.fig3_precedence).Translate.net in
  let q = parse_ok "EF pproc = 0" in
  let expect_unknown what = function
    | Ok Query.Unknown -> ()
    | Ok v -> Alcotest.failf "%s: %s" what (Query.verdict_to_string v)
    | Error e -> Alcotest.fail e
  in
  expect_unknown "discrete" (Query.check ~max_states:5 net q);
  expect_unknown "classes" (Query.check_classes ~max_classes:5 net q)

let test_class_budget () =
  let net = (Translate.translate Case_studies.fig4_exclusion).Translate.net in
  let q = match Query.parse "EF deadlock" with Ok q -> q | Error e -> failwith e in
  match Query.check_classes ~max_classes:1 net q with
  | Ok Query.Unknown -> ()
  | Ok v -> Alcotest.failf "wrong verdict: %s" (Query.verdict_to_string v)
  | Error e -> Alcotest.fail e

let suite =
  [
    case "class-graph semantics bracket" test_class_semantics;
    case "class budget gives Unknown" test_class_budget;
    case "parse shapes" test_parse_shapes;
    case "parse errors" test_parse_errors;
    case "to_string roundtrips" test_to_string_roundtrip;
    case "queries on a simple net" test_simple_net_queries;
    case "unknown places reported" test_unknown_place_reported;
    case "budget exhaustion gives Unknown" test_unknown_on_budget;
    case "properties of a translated model" test_translated_properties;
    case "EF witnesses replay" test_witness_replays;
    case "budget boundary gives Unknown" test_budget_boundary;
    case "exclusion as a marking invariant" test_exclusion_property;
  ]
