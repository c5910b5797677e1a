(* Packed_state properties: pack/unpack round-trips at every cell
   width, the memoized hash agrees with State.hash, equal logical
   states always encode to equal bytes, and the search's Memo finds
   exactly the cell vectors added to it. *)

open Ezrt_tpn
open Test_util
module Rng = Ezrt_gen.Rng
module Spec_gen = Ezrt_gen.Spec_gen

let pack_cells ~n_places cells =
  Packed_state.pack ~n_places
    ~n_transitions:(Array.length cells - n_places)
    ~tokens:(fun p -> cells.(p))
    ~clock:(fun t -> cells.(n_places + t))

let arb_cells =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Rng.create seed in
        let n = 1 + Rng.int rng 12 in
        let n_places = Rng.int rng (n + 1) in
        (n_places, Array.init n (fun _ -> Spec_gen.cell rng)))
      QCheck.Gen.int
  in
  QCheck.make
    ~print:(fun (n_places, cells) ->
      Printf.sprintf "n_places=%d [%s]" n_places
        (String.concat "; "
           (Array.to_list (Array.map string_of_int cells))))
    gen

let prop_roundtrip =
  qcheck "pack/unpack round-trip across widths" arb_cells
    (fun (n_places, cells) ->
      Packed_state.unpack (pack_cells ~n_places cells) = cells)

let prop_byte_size =
  qcheck "byte size is 1 + width * cells" arb_cells
    (fun (n_places, cells) ->
      let n = Array.length cells in
      List.mem
        (Packed_state.byte_size (pack_cells ~n_places cells))
        [ 1 + (2 * n); 1 + (4 * n); 1 + (8 * n) ])

let test_width_selection () =
  let size cells = Packed_state.byte_size (pack_cells ~n_places:1 cells) in
  check_int "16-bit cells" (1 + (2 * 3)) (size [| -0x8000; 0; 0x7fff |]);
  check_int "32-bit cells" (1 + (4 * 3)) (size [| -0x8001; 0; 0x7fff |]);
  check_int "32-bit upper edge" (1 + (4 * 2)) (size [| 0x8000; 1 |]);
  check_int "64-bit cells" (1 + (8 * 2)) (size [| min_int; max_int |]);
  check_int "empty" 1 (size [||])

(* a deterministic pseudo-random walk through a net's reachable states *)
let walk net steps =
  let rec go state k acc =
    if k = 0 then acc
    else
      match State.fireable net state with
      | [] -> acc
      | ts ->
        let t = List.nth ts (k mod List.length ts) in
        let lo, _ = State.firing_domain net state t in
        let state = State.fire net state t lo in
        go state (k - 1) (state :: acc)
  in
  go (State.initial net) steps [ State.initial net ]

let nets () =
  [ sequential_net (); conflict_net (); ring_net 4 3; ring_net 6 11 ]

let test_hash_agrees_with_state () =
  List.iter
    (fun net ->
      List.iter
        (fun s ->
          check_int "hash agreement" (State.hash s)
            (Packed_state.hash (Packed_state.of_state s)))
        (walk net 12))
    (nets ())

let test_equal_states_equal_bytes () =
  List.iter
    (fun net ->
      List.iter
        (fun s ->
          let a = Packed_state.of_state s and b = Packed_state.of_state s in
          check_bool "packed equal" true (Packed_state.equal a b);
          check_bool "identical bytes" true (a.Packed_state.data = b.Packed_state.data))
        (walk net 8))
    (nets ())

let test_distinct_states_distinct_bytes () =
  let net = sequential_net () in
  match walk net 2 with
  | s1 :: s0 :: _ ->
    check_bool "different states, different bytes" false
      (Packed_state.equal (Packed_state.of_state s0) (Packed_state.of_state s1))
  | _ -> Alcotest.fail "walk should reach two states"

(* --- Memo ------------------------------------------------------------ *)

let memo_cells eng net =
  let cells = Array.make (Pnet.place_count net + Pnet.transition_count net) 0 in
  State.Incremental.write_cells eng cells;
  cells

(* Distinct vectors under one forced hash: a 16-bit key, 32-bit keys
   whose low halves match a 16-bit key's cells, and a 64-bit key.
   Each is unseen until it is added and seen from then on. *)
let test_memo_collisions () =
  let memo = Packed_state.Memo.create () in
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
            (Packed_state.Memo.mem memo ~hash:42 w))
        vectors;
      Packed_state.Memo.add memo ~hash:42 v;
      check_bool "seen once added" true (Packed_state.Memo.mem memo ~hash:42 v);
      check_bool "not under another hash" false
        (Packed_state.Memo.mem memo ~hash:43 v))
    vectors

(* One engine's walk keyed by its Zobrist word: the root packs to
   16-bit cells, a clock past 16 bits makes a 32-bit key, and the
   narrow key stays found after the wide one is added. *)
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
  let memo = Packed_state.Memo.create () in
  let mem () =
    Packed_state.Memo.mem memo ~hash:(State.Incremental.zhash eng)
      (memo_cells eng net)
  in
  let add () =
    Packed_state.Memo.add memo ~hash:(State.Incremental.zhash eng)
      (memo_cells eng net)
  in
  let key_size () =
    Packed_state.byte_size (Packed_state.of_state (State.Incremental.snapshot eng))
  in
  check_int "2-byte root" (1 + (2 * 6)) (key_size ());
  check_bool "root unseen" false (mem ());
  add ();
  check_bool "root seen" true (mem ());
  State.Incremental.fire eng t0 40_000;
  check_int "4-byte cells" (1 + (4 * 6)) (key_size ());
  check_bool "wide unseen" false (mem ());
  add ();
  check_bool "wide seen" true (mem ());
  State.Incremental.undo eng;
  check_bool "narrow root still seen" true (mem ());
  State.Incremental.fire eng t1 3;
  check_bool "new narrow state unseen" false (mem ())

(* Keys survive every doubling: 10 000 vectors, four per hash. *)
let test_memo_growth () =
  let memo = Packed_state.Memo.create () in
  let hash i = (i / 4) * 0x9E3779B9 in
  for i = 0 to 9_999 do
    Packed_state.Memo.add memo ~hash:(hash i) [| i; 7 * i |]
  done;
  for i = 0 to 9_999 do
    if not (Packed_state.Memo.mem memo ~hash:(hash i) [| i; 7 * i |]) then
      Alcotest.failf "vector %d lost" i;
    if Packed_state.Memo.mem memo ~hash:(hash i) [| i; (7 * i) + 1 |] then
      Alcotest.failf "vector %d found but never added" i
  done

(* On random fire/undo walks over the mine-pump net, [Memo.mem] agrees
   with "an equal [of_state] was added", both under the engine's
   Zobrist word and under a 2-bit hash that makes most keys collide. *)
let prop_memo_agrees_with_of_state =
  let net =
    (Ezrt_blocks.Translate.translate Ezrt_spec.Case_studies.mine_pump)
      .Ezrt_blocks.Translate.net
  in
  qcheck ~count:40 "memo agrees with of_state on fire/undo walks"
    QCheck.int
    (fun seed ->
      let rng = Rng.create seed in
      let eng = State.Incremental.create net in
      let full = Packed_state.Memo.create () in
      let weak = Packed_state.Memo.create () in
      let added = ref [] in
      let ok = ref true in
      for _ = 1 to 80 do
        let cells = memo_cells eng net in
        let h = State.Incremental.zhash eng in
        let p = Packed_state.of_state (State.Incremental.snapshot eng) in
        let expected = List.exists (Packed_state.equal p) !added in
        if
          Packed_state.Memo.mem full ~hash:h cells <> expected
          || Packed_state.Memo.mem weak ~hash:(h land 3) cells <> expected
        then ok := false;
        if (not expected) && Rng.bool rng then begin
          Packed_state.Memo.add full ~hash:h cells;
          Packed_state.Memo.add weak ~hash:(h land 3) cells;
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
    prop_byte_size;
    case "width selection edges" test_width_selection;
    case "hash agrees with State.hash" test_hash_agrees_with_state;
    case "equal states encode to equal bytes" test_equal_states_equal_bytes;
    case "distinct states differ" test_distinct_states_distinct_bytes;
    case "memo separates vectors under one hash" test_memo_collisions;
    case "memo keys an engine walk across cell widths" test_memo_engine_widths;
    case "memo keeps every key across growth" test_memo_growth;
    prop_memo_agrees_with_of_state;
  ]
