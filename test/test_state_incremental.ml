(* Differential tests: the incremental firing engine and the packed
   state store against the copy-based State oracle, on random nets and
   on the full search. *)

open Ezrt_tpn
module Translate = Ezrt_blocks.Translate
module Search = Ezrt_sched.Search
module Schedule = Ezrt_sched.Schedule
module Case_studies = Ezrt_spec.Case_studies
open Test_util

let bound = Alcotest.testable
    (fun ppf -> function
      | Time_interval.Finite n -> Format.fprintf ppf "%d" n
      | Time_interval.Infinity -> Format.pp_print_string ppf "inf")
    (fun a b -> Time_interval.bound_le a b && Time_interval.bound_le b a)

let check_bound = Alcotest.check bound
let check_ids = Alcotest.(check (list int))

(* Random nets richer than the ring: every transition keeps at least
   one input arc (so enabledness always depends on the marking) and
   gains random extra pre/post arcs; tokens are scattered.  Deadlocks
   and unboundedness don't matter here — we only compare observables
   along whatever walk exists. *)
let random_net rng =
  let n_places = 2 + Random.State.int rng 6 in
  let n_transitions = 1 + Random.State.int rng 6 in
  let b = Pnet.Builder.create "random" in
  let places =
    Array.init n_places (fun i ->
        Pnet.Builder.add_place b
          ~tokens:(Random.State.int rng 3)
          (Printf.sprintf "p%d" i))
  in
  for i = 0 to n_transitions - 1 do
    let eft = Random.State.int rng 4 in
    let lft = eft + Random.State.int rng 5 in
    let itv =
      if Random.State.int rng 8 = 0 then Time_interval.make_unbounded eft
      else Time_interval.make eft lft
    in
    let t = Pnet.Builder.add_transition b (Printf.sprintf "t%d" i) itv in
    let n_pre = 1 + Random.State.int rng 2 in
    for _ = 1 to n_pre do
      let w = 1 + Random.State.int rng 2 in
      Pnet.Builder.arc_pt b ~weight:w
        places.(Random.State.int rng n_places) t
    done;
    let n_post = Random.State.int rng 3 in
    for _ = 1 to n_post do
      let w = 1 + Random.State.int rng 2 in
      Pnet.Builder.arc_tp b ~weight:w t
        places.(Random.State.int rng n_places)
    done
  done;
  Pnet.Builder.build b

(* Compare every observable the search relies on. *)
let agree ctx net (s : State.t) eng =
  let n_places = Pnet.place_count net in
  let n_transitions = Pnet.transition_count net in
  for p = 0 to n_places - 1 do
    check_int
      (Printf.sprintf "%s tokens p%d" ctx p)
      (State.tokens s p)
      (State.Incremental.tokens eng p)
  done;
  for t = 0 to n_transitions - 1 do
    check_bool
      (Printf.sprintf "%s enabled t%d" ctx t)
      (State.is_enabled s t)
      (State.Incremental.is_enabled eng t);
    check_int
      (Printf.sprintf "%s clock t%d" ctx t)
      s.State.clocks.(t)
      (State.Incremental.clock eng t);
    if State.is_enabled s t then begin
      check_int
        (Printf.sprintf "%s dlb t%d" ctx t)
        (State.dlb net s t)
        (State.Incremental.dlb eng t);
      check_bound
        (Printf.sprintf "%s dub t%d" ctx t)
        (State.dub net s t)
        (State.Incremental.dub eng t)
    end
  done;
  check_ids (ctx ^ " candidates") (State.candidates net s)
    (State.Incremental.candidates eng);
  check_ids (ctx ^ " fireable") (State.fireable net s)
    (State.Incremental.fireable eng);
  List.iter
    (fun t ->
      let lo, hi = State.firing_domain net s t in
      let lo', hi' = State.Incremental.firing_domain eng t in
      check_int (Printf.sprintf "%s fd-lo t%d" ctx t) lo lo';
      check_bound (Printf.sprintf "%s fd-hi t%d" ctx t) hi hi')
    (State.fireable net s);
  let snap = State.Incremental.snapshot eng in
  check_bool (ctx ^ " snapshot equal") true (State.equal s snap);
  check_int (ctx ^ " snapshot hash") (State.hash s) (State.hash snap);
  let cells = Array.make (Array.length s.State.marking + Array.length s.State.clocks) 0 in
  State.Incremental.write_cells eng cells;
  check_bool (ctx ^ " written cells = state cells") true
    (Array.append s.State.marking s.State.clocks = cells);
  check_int (ctx ^ " zhash = State.hash") (State.hash s)
    (State.Incremental.zhash eng)

(* Walk both representations in lockstep, firing random fireable
   transitions at random in-domain times, then unwind the engine with
   [undo] and re-check every recorded snapshot. *)
let lockstep_walk rng net =
  let eng = State.Incremental.create net in
  let rec forward s trace steps =
    agree (Printf.sprintf "step %d" steps) net s eng;
    if steps >= 12 then trace
    else
      match State.fireable net s with
      | [] -> trace
      | fireable ->
        let tid = List.nth fireable (Random.State.int rng (List.length fireable)) in
        let lo, hi = State.firing_domain net s tid in
        let q =
          match hi with
          | Time_interval.Finite h when h > lo ->
            lo + Random.State.int rng (min 4 (h - lo) + 1)
          | Time_interval.Finite _ -> lo
          | Time_interval.Infinity -> lo + Random.State.int rng 3
        in
        let s' = State.fire net s tid q in
        State.Incremental.fire eng tid q;
        forward s' (s :: trace) (steps + 1)
  in
  let trace = forward (State.initial net) [] 0 in
  (* undo must restore each predecessor exactly *)
  List.iter
    (fun prev ->
      State.Incremental.undo eng;
      agree "undo" net prev eng)
    trace;
  check_int "fully unwound" 0 (State.Incremental.depth eng)

let test_random_nets () =
  let rng = Random.State.make [| 0x5eed |] in
  for _ = 1 to 150 do
    lockstep_walk rng (random_net rng)
  done

let test_ring_nets () =
  let rng = Random.State.make [| 42 |] in
  for seed = 1 to 50 do
    lockstep_walk rng (ring_net (2 + (seed mod 5)) seed)
  done

let test_undo_to () =
  let net = sequential_net () in
  let eng = State.Incremental.create net in
  let s0 = State.Incremental.snapshot eng in
  State.Incremental.fire eng 0 2;
  let s1 = State.Incremental.snapshot eng in
  State.Incremental.fire eng 1 0;
  check_int "depth 2" 2 (State.Incremental.depth eng);
  State.Incremental.undo_to eng 1;
  check_bool "back to s1" true (State.equal s1 (State.Incremental.snapshot eng));
  State.Incremental.undo_to eng 0;
  check_bool "back to s0" true (State.equal s0 (State.Incremental.snapshot eng));
  let raises_invalid name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises_invalid "undo at depth 0" (fun () -> State.Incremental.undo eng)

let raises_invalid name f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* after a commit the current state is the root: undo stops there,
   and later firings undo back to it, hash included *)
let test_commit () =
  let eng = State.Incremental.create (sequential_net ()) in
  State.Incremental.fire eng 0 2;
  State.Incremental.commit eng;
  let s1 = State.Incremental.snapshot eng and h1 = State.Incremental.zhash eng in
  check_int "depth 0 after commit" 0 (State.Incremental.depth eng);
  check_int "now kept" 2 (State.Incremental.now eng);
  raises_invalid "undo at the committed root" (fun () ->
      State.Incremental.undo eng);
  State.Incremental.fire eng 1 0;
  State.Incremental.undo eng;
  check_bool "back to the committed state" true
    (State.equal s1 (State.Incremental.snapshot eng));
  check_int "hash restored" h1 (State.Incremental.zhash eng)

let test_fire_validation () =
  let net = conflict_net () in
  let eng = State.Incremental.create net in
  (* t0 is [1,3], t1 is [2,7]: min dub is 3, so t0's domain is [1,3] *)
  raises_invalid "q below domain" (fun () -> State.Incremental.fire eng 0 0);
  raises_invalid "q above min dub" (fun () -> State.Incremental.fire eng 0 4);
  State.Incremental.fire eng 0 2;
  raises_invalid "disabled transition" (fun () ->
      State.Incremental.fire eng 1 0);
  raises_invalid "write_cells into a short vector" (fun () ->
      State.Incremental.write_cells eng
        (Array.make (Pnet.place_count net + Pnet.transition_count net - 1) 0))

(* The memo picks a cell width from the extreme cells; wide cells must
   round-trip through the 32- and 64-bit layouts, and the engine's
   Zobrist word must still be State.hash when a clock forces a wider
   layout. *)
let test_packed_widths () =
  let widths = [ 100; 40_000; 30_000_000; 5_000_000_000 ] in
  List.iter
    (fun big ->
      let a = [| big; 1; 2; -1; 7; 14 |] in
      let memo = Packed_state.Memo.create () in
      Packed_state.Memo.add memo ~hash:big a;
      check_bool "same cells, found" true
        (Packed_state.Memo.mem memo ~hash:big (Array.copy a));
      let c = Array.copy a in
      c.(1) <- big;
      check_bool "different cells, not found" false
        (Packed_state.Memo.mem memo ~hash:big c))
    widths;
  let b = Pnet.Builder.create "wide" in
  let p0 = Pnet.Builder.add_place b ~tokens:1 "p0" in
  let p1 = Pnet.Builder.add_place b "p1" in
  let slow =
    Pnet.Builder.add_transition b "slow"
      (Time_interval.make 30_000_000 30_000_000)
  in
  (* [late] fires on its own token at 20 000 000, leaving [slow]
     enabled with a clock past 16 bits *)
  let p2 = Pnet.Builder.add_place b ~tokens:1 "p2" in
  let p3 = Pnet.Builder.add_place b "p3" in
  let late =
    Pnet.Builder.add_transition b "late"
      (Time_interval.make 20_000_000 20_000_000)
  in
  Pnet.Builder.arc_pt b p0 slow;
  Pnet.Builder.arc_tp b slow p1;
  Pnet.Builder.arc_pt b p2 late;
  Pnet.Builder.arc_tp b late p3;
  let net = Pnet.Builder.build b in
  let eng = State.Incremental.create net in
  let agrees what =
    check_int what
      (State.hash (State.Incremental.snapshot eng))
      (State.Incremental.zhash eng)
  in
  agrees "point-width hash agrees";
  State.Incremental.fire eng late 20_000_000;
  check_int "slow's clock is past 16 bits" 20_000_000
    (State.Incremental.clock eng slow);
  agrees "wide-clock hash agrees"

(* The acceptance bar for the engine swap: both search engines produce
   action-for-action identical schedules and identical node counts on
   every case study and corpus spec, at the default budget and at
   budgets small enough to stop the search early — the memo must not
   depend on the budget. *)
let test_search_parity () =
  List.iter
    (fun (spec_name, spec) ->
      let model = Translate.translate spec in
      List.iter
        (fun max_stored ->
          let name = Printf.sprintf "%s at %d" spec_name max_stored in
          let run incremental =
            Search.find_schedule
              ~options:{ Search.default_options with incremental; max_stored }
              model
          in
          let copy_outcome, copy_m = run false in
          let incr_outcome, incr_m = run true in
          (match (copy_outcome, incr_outcome) with
          | Ok a, Ok b ->
            check_bool
              (name ^ " identical schedules")
              true
              (a.Schedule.entries = b.Schedule.entries)
          | Error a, Error b ->
            check_string (name ^ " same failure") (Search.failure_to_string a)
              (Search.failure_to_string b)
          | _ -> Alcotest.failf "%s: engines disagree on feasibility" name);
          check_int (name ^ " stored") copy_m.Search.stored
            incr_m.Search.stored;
          check_bool (name ^ " stored within budget") true
            (incr_m.Search.stored <= max_stored);
          check_int (name ^ " visited") copy_m.Search.visited
            incr_m.Search.visited;
          check_int (name ^ " eager") copy_m.Search.eager incr_m.Search.eager;
          check_int (name ^ " backtracks") copy_m.Search.backtracks
            incr_m.Search.backtracks;
          check_int (name ^ " max_depth") copy_m.Search.max_depth
            incr_m.Search.max_depth)
        [ Search.default_options.max_stored; 1; 5; 37 ])
    (Case_studies.all @ load_corpus ())

(* Zobrist maintenance: along a random walk, [zhash] must equal the
   from-scratch [State.hash] at every prefix, and unwinding with
   [undo_to] must restore each recorded hash word bit for bit —
   XOR-in/XOR-out with no drift.  Walks are driven by [Ezrt_gen.Rng]
   so failures replay from the printed seed. *)
let test_zobrist_roundtrip () =
  List.iter
    (fun seed ->
      let rng = Ezrt_gen.Rng.create seed in
      let net =
        random_net (Random.State.make [| Ezrt_gen.Rng.int rng 0x3fffffff |])
      in
      let eng = State.Incremental.create net in
      let trail = ref [ (0, State.Incremental.zhash eng) ] in
      let steps = ref 0 in
      let continue = ref true in
      while !continue && !steps < 40 do
        match State.Incremental.fireable eng with
        | [] -> continue := false
        | ts ->
          let tid = List.nth ts (Ezrt_gen.Rng.int rng (List.length ts)) in
          let lo, hi = State.Incremental.firing_domain eng tid in
          let q =
            match hi with
            | Time_interval.Finite hi -> Ezrt_gen.Rng.int_in rng lo hi
            | Time_interval.Infinity -> lo + Ezrt_gen.Rng.int rng 4
          in
          State.Incremental.fire eng tid q;
          incr steps;
          let z = State.Incremental.zhash eng in
          check_int
            (Printf.sprintf "seed %d step %d: zhash = State.hash" seed !steps)
            (State.hash (State.Incremental.snapshot eng))
            z;
          trail := (!steps, z) :: !trail
      done;
      (* unwind depth by depth, re-checking every recorded hash *)
      List.iter
        (fun (depth, z) ->
          State.Incremental.undo_to eng depth;
          check_int
            (Printf.sprintf "seed %d undo to %d restores zhash" seed depth)
            z
            (State.Incremental.zhash eng))
        !trail)
    [ 7; 42; 1234; 90210 ]

let test_search_parity_random_specs =
  qcheck ~count:60 "random specs: engines agree" arbitrary_spec (fun spec ->
      let model = Translate.translate spec in
      let run incremental =
        Search.find_schedule
          ~options:
            { Search.default_options with incremental; max_stored = 20_000 }
          model
      in
      let copy_outcome, copy_m = run false in
      let incr_outcome, incr_m = run true in
      (match (copy_outcome, incr_outcome) with
      | Ok a, Ok b -> a.Schedule.entries = b.Schedule.entries
      | Error a, Error b -> a = b
      | _ -> false)
      && copy_m.Search.stored = incr_m.Search.stored
      && copy_m.Search.visited = incr_m.Search.visited)

let suite =
  [
    case "random nets: engine tracks oracle" test_random_nets;
    case "ring nets: engine tracks oracle" test_ring_nets;
    case "undo_to restores snapshots" test_undo_to;
    case "commit makes the current state the root" test_commit;
    case "fire validates like the oracle" test_fire_validation;
    case "packed states: widths round-trip" test_packed_widths;
    case "zobrist fire/undo round-trips bit-for-bit" test_zobrist_roundtrip;
    slow_case "case studies: engine parity" test_search_parity;
    test_search_parity_random_specs;
  ]
