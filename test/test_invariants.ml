open Ezrt_tpn
module Translate = Ezrt_blocks.Translate
module Case_studies = Ezrt_spec.Case_studies
module Spec_gen = Ezrt_gen.Spec_gen
open Test_util

let test_incidence () =
  let net = sequential_net () in
  let c = Invariants.incidence net in
  (* p0 -t0-> p1 -t1-> p2 *)
  check_int "p0 loses to t0" (-1) c.(0).(0);
  check_int "p1 gains from t0" 1 c.(1).(0);
  check_int "p1 loses to t1" (-1) c.(1).(1);
  check_int "p2 gains from t1" 1 c.(2).(1);
  check_int "p0 untouched by t1" 0 c.(0).(1)

let test_is_invariant () =
  let net = sequential_net () in
  check_bool "all-ones conserves the token" true
    (Invariants.is_invariant net [| 1; 1; 1 |]);
  check_bool "partial sum is not invariant" false
    (Invariants.is_invariant net [| 1; 1; 0 |]);
  check_bool "wrong length" false (Invariants.is_invariant net [| 1 |])

let test_weighted_tokens () =
  check_int "dot product" 7 (Invariants.weighted_tokens [| 1; 2 |] [| 3; 2 |])

let test_sequential_invariants () =
  let net = sequential_net () in
  let invs = Invariants.invariants_of (Invariants.p_invariants net) in
  check_int "one minimal invariant" 1 (List.length invs);
  check_bool "it is the token count" true (List.hd invs = [| 1; 1; 1 |]);
  check_int "its constant is 1" 1
    (Invariants.conserved_constant net (List.hd invs))

let test_ring_invariant () =
  let net = ring_net 5 7 in
  let invs = Invariants.invariants_of (Invariants.p_invariants net) in
  check_int "single circulating token" 1 (List.length invs);
  check_bool "uniform weights" true
    (Array.for_all (fun w -> w = 1) (List.hd invs))

let test_conflict_invariant () =
  let net = conflict_net () in
  let invs = Invariants.invariants_of (Invariants.p_invariants net) in
  (* p0 + p1 + p2 conserved *)
  check_bool "found" true (List.mem [| 1; 1; 1 |] invs);
  List.iter
    (fun y -> check_bool "each is an invariant" true (Invariants.is_invariant net y))
    invs

(* The load-bearing one: the processor/exclusion places of a translated
   model are covered by an invariant with constant 1 — a structural
   proof of mutual exclusion, independent of the state-space search. *)
let test_resources_structurally_safe () =
  List.iter
    (fun (name, spec) ->
      let model = Translate.translate spec in
      let outcome =
        Invariants.p_invariants ~max_rows:20_000 model.Translate.net
      in
      check_bool (name ^ ": Farkas completed") false
        (Invariants.is_truncated outcome);
      let invs = Invariants.invariants_of outcome in
      List.iter
        (fun y ->
          check_bool (name ^ ": Farkas output is an invariant") true
            (Invariants.is_invariant model.Translate.net y))
        invs;
      List.iter
        (fun place ->
          match Invariants.invariant_covering model.Translate.net place invs with
          | Some y ->
            (* the invariant bounds the place at constant / weight
               tokens; resources must be bounded at exactly 1 *)
            check_int
              (name ^ ": invariant proves the resource is 1-safe")
              1
              (Invariants.conserved_constant model.Translate.net y / y.(place))
          | None ->
            Alcotest.failf "%s: resource place %s not covered" name
              (Pnet.place_name model.Translate.net place))
        model.Translate.resource_places)
    [
      ("fig3", Case_studies.fig3_precedence);
      ("fig4", Case_studies.fig4_exclusion);
      ("quickstart", Case_studies.quickstart);
    ]

let test_row_bound () =
  let net =
    (Translate.translate Case_studies.fig4_exclusion).Translate.net
  in
  match Invariants.p_invariants ~max_rows:1 net with
  | Invariants.Truncated salvaged ->
    (* the salvaged rows must still be genuine invariants *)
    List.iter
      (fun y ->
        check_bool "salvaged row is an invariant" true
          (Invariants.is_invariant net y))
      salvaged
  | Invariants.Complete _ ->
    Alcotest.fail "expected the row bound to trip"

(* The contract invariants.mli promises: invariant rows of minimal
   support with coprime weights, each once, in sorted order.  Under the
   default bound the outcome must be complete; under an explicit one a
   truncated outcome may keep only zero-residual rows, each of which
   the complete outcome also holds. *)
let check_contract ?max_rows name net =
  let outcome = Invariants.p_invariants ?max_rows net in
  let invs = Invariants.invariants_of outcome in
  (match max_rows with
  | None ->
    check_bool (name ^ ": complete") false (Invariants.is_truncated outcome)
  | Some _ when Invariants.is_truncated outcome ->
    let complete = Invariants.invariants_of (Invariants.p_invariants net) in
    List.iter
      (fun y ->
        check_bool (name ^ ": salvaged row is a complete-outcome row") true
          (List.mem y complete))
      invs
  | Some _ -> ());
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let subset a b = List.for_all (fun p -> List.mem p (Invariants.support b)) a in
  check_bool (name ^ ": sorted") true (List.sort compare invs = invs);
  List.iter
    (fun y ->
      check_bool (name ^ ": is an invariant") true
        (Invariants.is_invariant net y);
      check_int (name ^ ": weights are coprime") 1
        (Array.fold_left (fun g w -> gcd g (abs w)) 0 y);
      check_int (name ^ ": appears once") 1
        (List.length (List.filter (( = ) y) invs));
      List.iter
        (fun y' ->
          if y' <> y then
            check_bool (name ^ ": support is minimal") false
              (subset (Invariants.support y') y))
        invs)
    invs

(* t0 : p0 + p3 -> p1 + p2 and t1 : p0 + p2 + p3 -> p1 + p2 + p3.
   Eliminating t0 leaves p0+p1 and p2+p3 plus two rows that t1
   combines into p0+p1+p2+p3, which the minimality test must drop. *)
let non_minimal_combination_net () =
  let b = Pnet.Builder.create "non-minimal" in
  let p = Array.init 4 (fun i -> Pnet.Builder.add_place b (Printf.sprintf "p%d" i)) in
  let t0 = Pnet.Builder.add_transition b "t0" Time_interval.zero in
  let t1 = Pnet.Builder.add_transition b "t1" Time_interval.zero in
  List.iter (fun i -> Pnet.Builder.arc_pt b p.(i) t0) [ 0; 3 ];
  List.iter (fun i -> Pnet.Builder.arc_tp b t0 p.(i)) [ 1; 2 ];
  List.iter (fun i -> Pnet.Builder.arc_pt b p.(i) t1) [ 0; 2; 3 ];
  List.iter (fun i -> Pnet.Builder.arc_tp b t1 p.(i)) [ 1; 2; 3 ];
  Pnet.Builder.build b

let test_minimal_support_contract () =
  let net = non_minimal_combination_net () in
  check_bool "only the two minimal rows" true
    (Invariants.invariants_of (Invariants.p_invariants net)
    = [ [| 0; 0; 1; 1 |]; [| 1; 1; 0; 0 |] ]);
  check_contract "non-minimal combination" net;
  List.iter
    (fun (n, seed) ->
      check_contract (Printf.sprintf "ring %d/%d" n seed) (ring_net n seed))
    [ (2, 0); (3, 5); (5, 7); (8, 1) ];
  check_contract "sequential" (sequential_net ());
  check_contract "conflict" (conflict_net ());
  List.iter
    (fun i ->
      let spec = Spec_gen.spec_at ~seed:42 i in
      check_contract (Printf.sprintf "gen-42-%d" i)
        (Translate.translate spec).Translate.net)
    [ 0; 1; 2; 3; 4; 5 ]

let row_bounds = [ Some 1; Some 5; Some 30; None ]

let prop_contract_on_generated_specs =
  qcheck ~count:40 "contract on generated specs under every row bound"
    QCheck.(int_range 0 999)
    (fun i ->
      let net =
        (Translate.translate (Spec_gen.spec_at ~seed:42 i)).Translate.net
      in
      List.iter
        (fun max_rows ->
          check_contract ?max_rows (Printf.sprintf "gen-42-%d" i) net)
        row_bounds;
      true)

let prop_contract_on_rings =
  qcheck ~count:60 "contract on ring nets under every row bound"
    QCheck.(pair (int_range 2 12) (int_range 0 50))
    (fun (n, seed) ->
      List.iter
        (fun max_rows ->
          check_contract ?max_rows
            (Printf.sprintf "ring %d/%d" n seed)
            (ring_net n seed))
        row_bounds;
      true)

let prop_invariants_hold_along_runs =
  qcheck ~count:60 "invariants constant along random ring runs"
    QCheck.(pair (int_range 2 5) (int_range 0 50))
    (fun (n, seed) ->
      let net = ring_net n seed in
      let invs = Invariants.invariants_of (Invariants.p_invariants net) in
      let rec walk s steps =
        steps = 0
        || List.for_all
             (fun y ->
               Invariants.weighted_tokens y s.State.marking
               = Invariants.conserved_constant net y)
             invs
           &&
           match State.fireable net s with
           | [] -> true
           | tid :: _ ->
             walk (State.fire net s tid (State.dlb net s tid)) (steps - 1)
      in
      walk (State.initial net) 20)

let suite =
  [
    case "incidence matrix" test_incidence;
    case "is_invariant" test_is_invariant;
    case "weighted tokens" test_weighted_tokens;
    case "sequential net invariant" test_sequential_invariants;
    case "ring invariant" test_ring_invariant;
    case "conflict invariant" test_conflict_invariant;
    case "resources are structurally safe" test_resources_structurally_safe;
    case "row bound trips gracefully" test_row_bound;
    case "minimal-support contract" test_minimal_support_contract;
    prop_contract_on_generated_specs;
    prop_contract_on_rings;
    prop_invariants_hold_along_runs;
  ]
