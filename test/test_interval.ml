open Ezrt_tpn
open Test_util

let test_make_valid () =
  let itv = Time_interval.make 3 7 in
  check_int "eft" 3 (Time_interval.eft itv);
  check_bool "lft" true (Time_interval.lft itv = Time_interval.Finite 7)

let test_make_rejects_negative () =
  Alcotest.check_raises "negative eft" (Invalid_argument
    "Time_interval.make: negative EFT") (fun () ->
      ignore (Time_interval.make (-1) 3))

let test_make_rejects_inverted () =
  Alcotest.check_raises "lft < eft" (Invalid_argument
    "Time_interval.make: LFT < EFT") (fun () ->
      ignore (Time_interval.make 5 3))

let test_point () =
  let itv = Time_interval.point 4 in
  check_bool "is point" true (Time_interval.is_point itv);
  check_bool "contains 4" true (Time_interval.contains itv 4);
  check_bool "not 5" false (Time_interval.contains itv 5);
  check_bool "not 3" false (Time_interval.contains itv 3)

let test_zero () =
  check_bool "zero is [0,0]" true
    (Time_interval.equal Time_interval.zero (Time_interval.point 0))

let test_unbounded () =
  let itv = Time_interval.make_unbounded 2 in
  check_bool "not point" false (Time_interval.is_point itv);
  check_bool "contains huge" true (Time_interval.contains itv 1_000_000);
  check_bool "not below eft" false (Time_interval.contains itv 1);
  check_string "render" "[2, inf]" (Time_interval.to_string itv)

let test_to_string () =
  check_string "finite" "[0, 130]"
    (Time_interval.to_string (Time_interval.make 0 130))

let test_bound_ops () =
  let open Time_interval in
  check_bool "min finite" true (bound_min (Finite 3) (Finite 5) = Finite 3);
  check_bool "min inf" true (bound_min Infinity (Finite 5) = Finite 5);
  check_bool "le inf" true (bound_le (Finite 1000) Infinity);
  check_bool "inf not le" false (bound_le Infinity (Finite 1000));
  check_bool "inf le inf" true (bound_le Infinity Infinity);
  (* [shift] adds to the latest firing time, saturating at infinity *)
  check_bool "add" true (lft (shift (make 1 3) 4) = Finite 7);
  check_bool "add inf" true (lft (shift (make_unbounded 1) 4) = Infinity);
  check_bool "sub" true (bound_sub (Finite 3) 4 = Finite (-1));
  check_bool "sub inf" true (bound_sub Infinity 4 = Infinity)

let test_equal () =
  let open Time_interval in
  check_bool "same" true (equal (make 1 2) (make 1 2));
  check_bool "diff lft" false (equal (make 1 2) (make 1 3));
  check_bool "finite vs inf" false (equal (make 1 2) (make_unbounded 1));
  check_bool "inf vs inf" true (equal (make_unbounded 1) (make_unbounded 1))

let prop_make_contains_bounds =
  qcheck "contains both bounds" QCheck.(pair (int_bound 50) (int_bound 50))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let itv = Time_interval.make lo hi in
      Time_interval.contains itv lo && Time_interval.contains itv hi)

let prop_bound_min_commutative =
  let bound_gen =
    QCheck.map
      (fun n ->
        if n = 0 then Time_interval.Infinity else Time_interval.Finite n)
      QCheck.(int_bound 20)
  in
  qcheck "bound_min commutative" (QCheck.pair bound_gen bound_gen)
    (fun (a, b) -> Time_interval.bound_min a b = Time_interval.bound_min b a)

let prop_bound_min_le =
  let bound_gen =
    QCheck.map
      (fun n ->
        if n = 0 then Time_interval.Infinity else Time_interval.Finite n)
      QCheck.(int_bound 20)
  in
  qcheck "bound_min is a lower bound" (QCheck.pair bound_gen bound_gen)
    (fun (a, b) ->
      let m = Time_interval.bound_min a b in
      Time_interval.bound_le m a && Time_interval.bound_le m b)

(* Algebra properties over the fuzzing generator's primitive interval
   distribution (finite and unbounded intervals alike). *)

let arb_interval_pair =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Ezrt_gen.Rng.create seed in
        (Ezrt_gen.Spec_gen.interval rng, Ezrt_gen.Spec_gen.interval rng))
      QCheck.Gen.int
  in
  QCheck.make
    ~print:(fun (a, b) ->
      Time_interval.to_string a ^ " ∩ " ^ Time_interval.to_string b)
    gen

let arb_interval =
  QCheck.map ~rev:(fun i -> (i, i)) fst arb_interval_pair

(* the generator caps finite bounds at eft 20 + width 20; probing a
   little past that also exercises the unbounded tails *)
let sample_points = List.init 60 Fun.id

let prop_intersect_membership =
  qcheck "intersect contains exactly the common instants" arb_interval_pair
    (fun (a, b) ->
      List.for_all
        (fun q ->
          let in_both = Time_interval.contains a q && Time_interval.contains b q in
          match Time_interval.intersect a b with
          | Some i -> Time_interval.contains i q = in_both
          | None -> not in_both)
        sample_points)

let prop_intersect_commutative =
  qcheck "intersect commutative" arb_interval_pair (fun (a, b) ->
      Option.equal Time_interval.equal
        (Time_interval.intersect a b)
        (Time_interval.intersect b a))

let prop_intersect_idempotent =
  qcheck "interval ∩ itself = itself" arb_interval (fun a ->
      match Time_interval.intersect a a with
      | Some i -> Time_interval.equal i a
      | None -> false)

let prop_shift_zero =
  qcheck "shift by 0 is identity" arb_interval (fun a ->
      Time_interval.equal (Time_interval.shift a 0) a)

let prop_shift_composes =
  qcheck "shift p then q = shift (p+q)"
    QCheck.(triple arb_interval (int_bound 30) (int_bound 30))
    (fun (a, p, q) ->
      Time_interval.equal
        (Time_interval.shift (Time_interval.shift a p) q)
        (Time_interval.shift a (p + q)))

let prop_shift_translates_membership =
  qcheck "shift translates membership"
    QCheck.(pair arb_interval (int_bound 30))
    (fun (a, q) ->
      List.for_all
        (fun x ->
          Time_interval.contains (Time_interval.shift a q) (x + q)
          = Time_interval.contains a x)
        sample_points)

let prop_shift_back_roundtrip =
  qcheck "shift up then down round-trips"
    QCheck.(pair arb_interval (int_bound 30))
    (fun (a, q) ->
      Time_interval.equal (Time_interval.shift (Time_interval.shift a q) (-q)) a)

let test_intersect_disjoint () =
  check_bool "disjoint" true
    (Time_interval.intersect (Time_interval.make 0 2) (Time_interval.make 5 9)
     = None);
  check_bool "touching" true
    (match
       Time_interval.intersect (Time_interval.make 0 5) (Time_interval.make 5 9)
     with
    | Some i -> Time_interval.equal i (Time_interval.point 5)
    | None -> false);
  check_bool "unbounded pair" true
    (match
       Time_interval.intersect (Time_interval.make_unbounded 3)
         (Time_interval.make_unbounded 7)
     with
    | Some i -> Time_interval.equal i (Time_interval.make_unbounded 7)
    | None -> false)

let test_shift_negative_eft_rejected () =
  Alcotest.check_raises "below zero"
    (Invalid_argument "Time_interval.shift: negative EFT") (fun () ->
      ignore (Time_interval.shift (Time_interval.make 2 5) (-3)))

let suite =
  [
    case "make valid" test_make_valid;
    case "make rejects negative" test_make_rejects_negative;
    case "make rejects inverted" test_make_rejects_inverted;
    case "point" test_point;
    case "zero" test_zero;
    case "unbounded" test_unbounded;
    case "to_string" test_to_string;
    case "bound ops" test_bound_ops;
    case "equal" test_equal;
    prop_make_contains_bounds;
    prop_bound_min_commutative;
    prop_bound_min_le;
    case "intersect edge cases" test_intersect_disjoint;
    case "shift rejects negative eft" test_shift_negative_eft_rejected;
    prop_intersect_membership;
    prop_intersect_commutative;
    prop_intersect_idempotent;
    prop_shift_zero;
    prop_shift_composes;
    prop_shift_translates_membership;
    prop_shift_back_roundtrip;
  ]
