open Ezrt_tpn
open Test_util

let test_initial () =
  let net = sequential_net () in
  let s = State.initial net in
  check_int "p0 marked" 1 (State.tokens s 0);
  check_bool "t0 enabled" true (State.is_enabled s 0);
  check_bool "t1 disabled" false (State.is_enabled s 1);
  check_bool "enabled ids" true (State.enabled_ids s = [ 0 ])

let test_dlb_dub () =
  let net = sequential_net () in
  let s = State.initial net in
  (* t0 has interval [2,5] and clock 0 *)
  check_int "dlb" 2 (State.dlb net s 0);
  check_bool "dub" true (State.dub net s 0 = Time_interval.Finite 5)

let test_disabled_raises () =
  let net = sequential_net () in
  let s = State.initial net in
  Alcotest.check_raises "dlb of disabled"
    (Invalid_argument "State.dlb: transition 1 is not enabled") (fun () ->
      ignore (State.dlb net s 1))

let test_fire_moves_tokens_and_clocks () =
  let net = sequential_net () in
  let s = State.initial net in
  let s1 = State.fire net s 0 3 in
  check_int "p0 empty" 0 (State.tokens s1 0);
  check_int "p1 marked" 1 (State.tokens s1 1);
  check_bool "t0 disabled" false (State.is_enabled s1 0);
  check_bool "t1 newly enabled, clock 0" true (s1.State.clocks.(1) = 0);
  let s2 = State.fire net s1 1 0 in
  check_int "p2 marked" 1 (State.tokens s2 2);
  check_bool "deadlock" true (State.enabled_ids s2 = [])

let test_fire_outside_domain () =
  let net = sequential_net () in
  let s = State.initial net in
  Alcotest.check_raises "too early"
    (Invalid_argument
       "State.fire: time 1 outside firing domain [2, 5] of t0") (fun () ->
      ignore (State.fire net s 0 1));
  Alcotest.check_raises "too late"
    (Invalid_argument
       "State.fire: time 6 outside firing domain [2, 5] of t0") (fun () ->
      ignore (State.fire net s 0 6))

(* Def 3.1 clock rule: a transition enabled before and after the firing
   advances by q; a newly enabled one (or the fired one, if still
   enabled) resets to 0. *)
let parallel_net () =
  let b = Pnet.Builder.create "parallel" in
  let p0 = Pnet.Builder.add_place b ~tokens:1 "p0" in
  let p1 = Pnet.Builder.add_place b ~tokens:1 "p1" in
  let p2 = Pnet.Builder.add_place b "p2" in
  let t0 = Pnet.Builder.add_transition b "t0" (Time_interval.make 1 4) in
  let t1 = Pnet.Builder.add_transition b "t1" (Time_interval.make 0 9) in
  Pnet.Builder.arc_pt b p0 t0;
  Pnet.Builder.arc_tp b t0 p2;
  Pnet.Builder.arc_pt b p1 t1;
  Pnet.Builder.arc_tp b t1 p2;
  Pnet.Builder.build b

let test_clock_advance () =
  let net = parallel_net () in
  let s = State.initial net in
  let s1 = State.fire net s 0 2 in
  check_int "t1 clock advanced" 2 s1.State.clocks.(1);
  check_bool "t0 disabled" false (State.is_enabled s1 0)

let test_self_loop_reset () =
  (* t consumes and reproduces its own token: it stays enabled and its
     clock must reset (the fired transition rule). *)
  let b = Pnet.Builder.create "loop" in
  let p = Pnet.Builder.add_place b ~tokens:2 "p" in
  let t = Pnet.Builder.add_transition b "t" (Time_interval.make 3 3) in
  Pnet.Builder.arc_pt b p t;
  Pnet.Builder.arc_tp b t p;
  let net = Pnet.Builder.build b in
  let s = State.initial net in
  let s1 = State.fire net s t 3 in
  check_int "clock reset after self firing" 0 s1.State.clocks.(t);
  check_int "tokens conserved" 2 (State.tokens s1 p)

let test_candidates_and_fireable () =
  let net = conflict_net () in
  let s = State.initial net in
  (* t0 in [1,3], t1 in [2,7]: min DUB = 3, both DLBs (1, 2) are <= 3 *)
  check_bool "both candidates" true
    (List.sort compare (State.candidates net s) = [ 0; 1 ]);
  check_bool "equal priorities: both fireable" true
    (List.sort compare (State.fireable net s) = [ 0; 1 ])

let test_priority_filters_fireable () =
  let b = Pnet.Builder.create "prio" in
  let p = Pnet.Builder.add_place b ~tokens:1 "p" in
  let t0 = Pnet.Builder.add_transition b ~priority:1 "t0" Time_interval.zero in
  let t1 = Pnet.Builder.add_transition b ~priority:2 "t1" Time_interval.zero in
  Pnet.Builder.arc_pt b p t0;
  Pnet.Builder.arc_pt b p t1;
  let net = Pnet.Builder.build b in
  let s = State.initial net in
  check_bool "both are candidates" true
    (List.sort compare (State.candidates net s) = [ 0; 1 ]);
  check_bool "only best priority fireable" true (State.fireable net s = [ t0 ]);
  ignore t1

let test_urgent_excludes_slow () =
  (* t0 must fire at 0 (DUB 0); t1 has DLB 2 > 0 so it is not a
     candidate. *)
  let b = Pnet.Builder.create "urgent" in
  let p0 = Pnet.Builder.add_place b ~tokens:1 "p0" in
  let p1 = Pnet.Builder.add_place b ~tokens:1 "p1" in
  let t0 = Pnet.Builder.add_transition b "t0" Time_interval.zero in
  let t1 = Pnet.Builder.add_transition b "t1" (Time_interval.make 2 5) in
  Pnet.Builder.arc_pt b p0 t0;
  Pnet.Builder.arc_tp b t0 p0;
  Pnet.Builder.arc_pt b p1 t1;
  Pnet.Builder.arc_tp b t1 p1;
  let net = Pnet.Builder.build b in
  let s = State.initial net in
  check_bool "only urgent fireable" true (State.fireable net s = [ t0 ]);
  ignore t1

let test_firing_domain () =
  let net = conflict_net () in
  let s = State.initial net in
  let lo, hi = State.firing_domain net s 1 in
  check_int "lo is DLB" 2 lo;
  check_bool "hi is min DUB" true (hi = Time_interval.Finite 3)

let test_equal_hash () =
  let net = sequential_net () in
  let a = State.initial net in
  let b = State.initial net in
  check_bool "equal" true (State.equal a b);
  check_int "hash equal" (State.hash a) (State.hash b);
  let a' = State.fire net a 0 2 in
  check_bool "not equal" false (State.equal a a')

let test_weighted_enabling () =
  let b = Pnet.Builder.create "weighted" in
  let p = Pnet.Builder.add_place b ~tokens:1 "p" in
  let q = Pnet.Builder.add_place b "q" in
  let t = Pnet.Builder.add_transition b "t" Time_interval.zero in
  Pnet.Builder.arc_pt b p t ~weight:2;
  Pnet.Builder.arc_tp b t q;
  let net = Pnet.Builder.build b in
  let s = State.initial net in
  check_bool "weight 2 not enabled by 1 token" false (State.is_enabled s t)

(* Invariant: along any earliest-firing run of a random ring net,
   markings stay non-negative, exactly one token circulates, and every
   enabled clock respects its LFT. *)
let prop_ring_invariants =
  qcheck ~count:100 "ring-net firing invariants"
    QCheck.(pair (int_range 2 6) (int_range 0 100))
    (fun (n, seed) ->
      let net = ring_net n seed in
      let rec walk s steps =
        if steps = 0 then true
        else
          let total = Array.fold_left ( + ) 0 s.State.marking in
          let nonneg = Array.for_all (fun x -> x >= 0) s.State.marking in
          let clocks_ok =
            List.for_all
              (fun tid ->
                match State.dub net s tid with
                | Time_interval.Finite d -> d >= 0
                | Time_interval.Infinity -> true)
              (State.enabled_ids s)
          in
          total = 1 && nonneg && clocks_ok
          &&
          match State.fireable net s with
          | [] -> false (* a ring never deadlocks *)
          | tid :: _ -> walk (State.fire net s tid (State.dlb net s tid)) (steps - 1)
      in
      walk (State.initial net) 25)

let suite =
  [
    case "initial state" test_initial;
    case "dlb and dub" test_dlb_dub;
    case "disabled transitions raise" test_disabled_raises;
    case "fire moves tokens and clocks" test_fire_moves_tokens_and_clocks;
    case "fire outside domain rejected" test_fire_outside_domain;
    case "clocks advance for persistent transitions" test_clock_advance;
    case "fired transition's clock resets" test_self_loop_reset;
    case "candidates and fireable" test_candidates_and_fireable;
    case "priority filter" test_priority_filters_fireable;
    case "urgent transition excludes slow ones" test_urgent_excludes_slow;
    case "firing domain" test_firing_domain;
    case "equality and hashing" test_equal_hash;
    case "weighted enabling" test_weighted_enabling;
    prop_ring_invariants;
  ]
