(* Packed_state.Memo properties: a vector added at any cell width is
   found again and no other vector is, equal states key equally, the
   engine's Zobrist word is State.hash, and the memo finds exactly the
   cell vectors added to it. *)

open Ezrt_tpn
open Test_util
module Rng = Ezrt_gen.Rng
module Spec_gen = Ezrt_gen.Spec_gen
module Memo = Packed_state.Memo

let arb_cells =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Rng.create seed in
        let n = 1 + Rng.int rng 12 in
        Array.init n (fun _ -> Spec_gen.cell rng))
      QCheck.Gen.int
  in
  QCheck.make
    ~print:(fun cells ->
      Printf.sprintf "[%s]"
        (String.concat "; " (Array.to_list (Array.map string_of_int cells))))
    gen

(* [cells] with cell [i] changed by flipping [bit] *)
let flipped cells i bit =
  let other = Array.copy cells in
  other.(i) <- other.(i) lxor bit;
  other

(* [add] packs at the vector's width and [mem] decodes in place, so
   the memo finds the vector it was given, and not the same vector
   with any one cell changed. *)
let prop_roundtrip =
  qcheck "pack/unpack round-trip across widths" arb_cells (fun cells ->
      let memo = Memo.create () in
      Memo.add memo ~hash:7 cells;
      Memo.mem memo ~hash:7 cells
      && List.for_all
           (fun i -> not (Memo.mem memo ~hash:7 (flipped cells i 1)))
           (List.init (Array.length cells) Fun.id))

(* At each width's edges, a cell that agrees with the stored one in
   its low 16 or 32 bits is still a different vector. *)
let test_width_selection () =
  List.iter
    (fun (what, cells) ->
      let memo = Memo.create () in
      Memo.add memo ~hash:0 cells;
      check_bool (what ^ " found") true (Memo.mem memo ~hash:0 cells);
      Array.iteri
        (fun i _ ->
          List.iter
            (fun bit ->
              check_bool
                (Printf.sprintf "%s: cell %d with bit %#x flipped" what i bit)
                false
                (Memo.mem memo ~hash:0 (flipped cells i bit)))
            [ 0x10000; 1 lsl 40 ])
        cells)
    [
      ("16-bit cells", [| -0x8000; 0; 0x7fff |]);
      ("32-bit cells", [| -0x8001; 0; 0x7fff |]);
      ("32-bit upper edge", [| 0x8000; 1 |]);
      ("64-bit cells", [| min_int; max_int |]);
      ("empty", [||]);
    ]

let memo_cells eng net =
  let cells = Array.make (Pnet.place_count net + Pnet.transition_count net) 0 in
  State.Incremental.write_cells eng cells;
  cells

(* A deterministic pseudo-random walk of the incremental engine
   through a net's reachable states, calling [f] at each of them. *)
let walk net steps f =
  let eng = State.Incremental.create net in
  f eng;
  let rec go k =
    if k > 0 then
      match State.Incremental.fireable eng with
      | [] -> ()
      | ts ->
        let t = List.nth ts (k mod List.length ts) in
        let lo, _ = State.Incremental.firing_domain eng t in
        State.Incremental.fire eng t lo;
        f eng;
        go (k - 1)
  in
  go steps

let nets () =
  [ sequential_net (); conflict_net (); ring_net 4 3; ring_net 6 11 ]

let test_hash_agrees_with_state () =
  List.iter
    (fun net ->
      walk net 12 (fun eng ->
          check_int "hash agreement"
            (State.hash (State.Incremental.snapshot eng))
            (State.Incremental.zhash eng)))
    (nets ())

(* The engine's cells and the copying state's arrays are the same
   vector: the memo finds one under the other's hash. *)
let test_equal_states_equal_bytes () =
  List.iter
    (fun net ->
      let memo = Memo.create () in
      walk net 8 (fun eng ->
          let cells = memo_cells eng net in
          let hash = State.Incremental.zhash eng in
          if not (Memo.mem memo ~hash cells) then Memo.add memo ~hash cells;
          let s = State.Incremental.snapshot eng in
          check_bool "equal state found" true
            (Memo.mem memo ~hash:(State.hash s)
               (Array.append s.State.marking s.State.clocks))))
    (nets ())

let test_distinct_states_distinct_bytes () =
  let net = sequential_net () in
  let states = ref [] in
  walk net 2 (fun eng -> states := memo_cells eng net :: !states);
  match !states with
  | s1 :: s0 :: _ ->
    let memo = Memo.create () in
    Memo.add memo ~hash:0 s0;
    check_bool "different states, different keys" false
      (Memo.mem memo ~hash:0 s1)
  | _ -> Alcotest.fail "walk should reach two states"

(* Distinct vectors under one forced hash: a 16-bit key, 32-bit keys
   whose low halves match a 16-bit key's cells, and a 64-bit key.
   Each is unseen until it is added and seen from then on. *)
let test_memo_collisions () =
  let memo = Memo.create () in
  let vectors =
    [
      [| 0; 1; -1 |];
      [| 0; 1; 0xffff |];
      [| 0; 1; 0x7fff |];
      [| 0; 1; 0x7fff + 0x10000 |];
      [| -0x8001; 1; 0x7fff |];
      [| 0; 1; 1 lsl 40 |];
    ]
  in
  List.iteri
    (fun k v ->
      List.iteri
        (fun j w ->
          check_bool
            (Printf.sprintf "vector %d before adding %d" j k)
            (j < k)
            (Memo.mem memo ~hash:42 w))
        vectors;
      Memo.add memo ~hash:42 v;
      check_bool "seen once added" true (Memo.mem memo ~hash:42 v);
      check_bool "not under another hash" false
        (Memo.mem memo ~hash:43 v))
    vectors

(* One engine's walk keyed by its Zobrist word: the root's cells fit
   16 bits, a clock past 16 bits makes a 32-bit key, and the narrow
   key stays found after the wide one is added. *)
let test_memo_engine_widths () =
  let b = Pnet.Builder.create "wide" in
  let p0 = Pnet.Builder.add_place b ~tokens:1 "p0" in
  let p1 = Pnet.Builder.add_place b ~tokens:1 "p1" in
  let q0 = Pnet.Builder.add_place b "q0" in
  let q1 = Pnet.Builder.add_place b "q1" in
  let t0 = Pnet.Builder.add_transition b "t0" (Time_interval.point 40_000) in
  let t1 = Pnet.Builder.add_transition b "t1" (Time_interval.make 0 100_000) in
  Pnet.Builder.arc_pt b p0 t0;
  Pnet.Builder.arc_tp b t0 q0;
  Pnet.Builder.arc_pt b p1 t1;
  Pnet.Builder.arc_tp b t1 q1;
  let net = Pnet.Builder.build b in
  let eng = State.Incremental.create net in
  let memo = Memo.create () in
  let mem () =
    Memo.mem memo ~hash:(State.Incremental.zhash eng)
      (memo_cells eng net)
  in
  let add () =
    Memo.add memo ~hash:(State.Incremental.zhash eng)
      (memo_cells eng net)
  in
  let fits_16_bits () =
    Array.for_all (fun v -> v >= -0x8000 && v <= 0x7fff) (memo_cells eng net)
  in
  check_bool "16-bit root" true (fits_16_bits ());
  check_bool "root unseen" false (mem ());
  add ();
  check_bool "root seen" true (mem ());
  State.Incremental.fire eng t0 40_000;
  check_bool "wider cells" false (fits_16_bits ());
  check_bool "wide unseen" false (mem ());
  add ();
  check_bool "wide seen" true (mem ());
  State.Incremental.undo eng;
  check_bool "narrow root still seen" true (mem ());
  State.Incremental.fire eng t1 3;
  check_bool "new narrow state unseen" false (mem ())

(* Keys survive every doubling: 10 000 vectors, four per hash. *)
let test_memo_growth () =
  let memo = Memo.create () in
  let hash i = (i / 4) * 0x9E3779B9 in
  for i = 0 to 9_999 do
    Memo.add memo ~hash:(hash i) [| i; 7 * i |]
  done;
  for i = 0 to 9_999 do
    if not (Memo.mem memo ~hash:(hash i) [| i; 7 * i |]) then
      Alcotest.failf "vector %d lost" i;
    if Memo.mem memo ~hash:(hash i) [| i; (7 * i) + 1 |] then
      Alcotest.failf "vector %d found but never added" i
  done

(* On random fire/undo walks over the mine-pump net, [Memo.mem] agrees
   with "an equal state was added", both under the engine's Zobrist
   word and under a 2-bit hash that makes most keys collide. *)
let prop_memo_agrees_with_state_equal =
  let net =
    (Ezrt_blocks.Translate.translate Ezrt_spec.Case_studies.mine_pump)
      .Ezrt_blocks.Translate.net
  in
  qcheck ~count:40 "memo agrees with State.equal on fire/undo walks"
    QCheck.int
    (fun seed ->
      let rng = Rng.create seed in
      let eng = State.Incremental.create net in
      let full = Memo.create () in
      let weak = Memo.create () in
      let added = ref [] in
      let ok = ref true in
      for _ = 1 to 80 do
        let cells = memo_cells eng net in
        let h = State.Incremental.zhash eng in
        let p = State.Incremental.snapshot eng in
        let expected = List.exists (State.equal p) !added in
        if
          Memo.mem full ~hash:h cells <> expected
          || Memo.mem weak ~hash:(h land 3) cells <> expected
        then ok := false;
        if (not expected) && Rng.bool rng then begin
          Memo.add full ~hash:h cells;
          Memo.add weak ~hash:(h land 3) cells;
          added := p :: !added
        end;
        let tids = State.Incremental.fireable eng in
        if State.Incremental.depth eng > 0 && (tids = [] || Rng.chance rng 0.3)
        then State.Incremental.undo eng
        else if tids <> [] then begin
          let tid = List.nth tids (Rng.int rng (List.length tids)) in
          let lo, hi = State.Incremental.firing_domain eng tid in
          let q =
            match hi with
            | Time_interval.Finite h when h > lo ->
              lo + Rng.int rng (min 4 (h - lo) + 1)
            | Time_interval.Finite _ -> lo
            | Time_interval.Infinity -> lo + Rng.int rng 3
          in
          State.Incremental.fire eng tid q
        end
      done;
      !ok)

let suite =
  [
    prop_roundtrip;
    case "width selection edges" test_width_selection;
    case "hash agrees with State.hash" test_hash_agrees_with_state;
    case "equal states encode to equal bytes" test_equal_states_equal_bytes;
    case "distinct states differ" test_distinct_states_distinct_bytes;
    case "memo separates vectors under one hash" test_memo_collisions;
    case "memo keys an engine walk across cell widths" test_memo_engine_widths;
    case "memo keeps every key across growth" test_memo_growth;
    prop_memo_agrees_with_state_equal;
  ]
