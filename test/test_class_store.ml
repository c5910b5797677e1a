open Ezrt_tpn
open Test_util

(* The sequential_net shape with a parametric t0 interval: every
   variant has the same initial marking, so initial classes differ only
   in their firing domain — exactly what the store discriminates on. *)
let net_with lo hi =
  let b = Pnet.Builder.create "store-test" in
  let p0 = Pnet.Builder.add_place b ~tokens:1 "p0" in
  let p1 = Pnet.Builder.add_place b "p1" in
  let p2 = Pnet.Builder.add_place b "p2" in
  let t0 = Pnet.Builder.add_transition b "t0" (Time_interval.make lo hi) in
  let t1 = Pnet.Builder.add_transition b "t1" Time_interval.zero in
  Pnet.Builder.arc_pt b p0 t0;
  Pnet.Builder.arc_tp b t0 p1;
  Pnet.Builder.arc_pt b p1 t1;
  Pnet.Builder.arc_tp b t1 p2;
  Pnet.Builder.build b

let cls lo hi = State_class.initial (net_with lo hi)

let visit store (c : State_class.t) =
  Class_store.visit store ~marking:c.State_class.marking
    ~domain:c.State_class.domain

let check_verdict msg expected actual =
  let s = function
    | Class_store.Fresh -> "fresh"
    | Class_store.Duplicate -> "duplicate"
    | Class_store.Subsumed -> "subsumed"
  in
  Alcotest.(check string) msg (s expected) (s actual)

let test_fresh_then_duplicate () =
  let store = Class_store.create () in
  check_verdict "first visit" Class_store.Fresh
    (visit store (cls 2 5));
  check_verdict "identical domain" Class_store.Duplicate
    (visit store (cls 2 5));
  check_int "one entry" 1 (Class_store.length store)

let test_subsumed_by_wider () =
  let store = Class_store.create () in
  ignore (visit store (cls 2 5));
  (* [3,4] is strictly inside [2,5] over the same marking *)
  check_verdict "nested domain" Class_store.Subsumed
    (visit store (cls 3 4));
  check_int "not stored" 1 (Class_store.length store)

let test_wider_after_narrower_is_fresh () =
  let store = Class_store.create () in
  ignore (visit store (cls 3 4));
  (* [2,5] is NOT contained in [3,4]: it must be explored *)
  check_verdict "wider domain" Class_store.Fresh
    (visit store (cls 2 5));
  check_int "both stored" 2 (Class_store.length store);
  check_int "one marking" 1 (Class_store.stats store).Class_store.skeletons

let test_overlapping_not_subsumed () =
  let store = Class_store.create () in
  ignore (visit store (cls 2 5));
  (* [1,4] overlaps [2,5] without inclusion either way *)
  check_verdict "overlap" Class_store.Fresh (visit store (cls 1 4))

let test_different_marking_is_fresh () =
  let store = Class_store.create () in
  let net = net_with 2 5 in
  let c0 = State_class.initial net in
  ignore (visit store c0);
  let c1 = State_class.fire net c0 0 in
  check_verdict "successor marking" Class_store.Fresh
    (visit store c1);
  check_int "two markings" 2 (Class_store.stats store).Class_store.skeletons

let test_subsume_disabled () =
  let store = Class_store.create ~subsume:false () in
  check_bool "flag off" false (Class_store.subsume_enabled store);
  ignore (visit store (cls 2 5));
  check_verdict "nested but stored" Class_store.Fresh
    (visit store (cls 3 4));
  check_verdict "exact dup still caught" Class_store.Duplicate
    (visit store (cls 3 4));
  check_int "no subsumed" 0 (Class_store.stats store).Class_store.subsumed

let test_stats () =
  let store = Class_store.create () in
  ignore (visit store (cls 2 5));
  ignore (visit store (cls 2 5));
  ignore (visit store (cls 3 4));
  let s = Class_store.stats store in
  check_int "entries" 1 s.Class_store.entries;
  check_int "skeletons" 1 s.Class_store.skeletons;
  check_int "duplicates" 1 s.Class_store.duplicates;
  check_int "subsumed" 1 s.Class_store.subsumed

let suite =
  [
    case "fresh then duplicate" test_fresh_then_duplicate;
    case "nested domain subsumed" test_subsumed_by_wider;
    case "wider after narrower is fresh" test_wider_after_narrower_is_fresh;
    case "overlap without inclusion is fresh" test_overlapping_not_subsumed;
    case "different marking is fresh" test_different_marking_is_fresh;
    case "subsumption disabled" test_subsume_disabled;
    case "stats" test_stats;
  ]
