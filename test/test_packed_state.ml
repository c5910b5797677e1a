(* Packed_state properties: pack/unpack round-trips at every cell
   width, the memoized hash agrees with State.hash, and equal logical
   states always encode to equal bytes (the property the search's memo
   table relies on). *)

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

let test_of_engine_matches_of_state () =
  let net = sequential_net () in
  let eng = State.Incremental.create net in
  let check_point () =
    let from_engine = Packed_state.of_engine eng in
    let from_state = Packed_state.of_state (State.Incremental.snapshot eng) in
    check_bool "of_engine = of_state" true
      (Packed_state.equal from_engine from_state);
    check_int "hash too" (Packed_state.hash from_state)
      (Packed_state.hash from_engine)
  in
  check_point ();
  State.Incremental.fire eng 0 2;
  check_point ();
  State.Incremental.fire eng 1 0;
  check_point ()

(* One scratch keys a whole walk: each [pack_scratch] overwrites the
   buffer of its width, a persisted copy survives later packs, and a
   state whose clock outgrows 16 bits switches to the 4-byte buffer. *)
let test_scratch_key_reuse () =
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
  let of_snapshot () = Packed_state.of_state (State.Incremental.snapshot eng) in
  let scratch = Packed_state.scratch eng in
  let root = Packed_state.persist (Packed_state.pack_scratch scratch) in
  let root_state = of_snapshot () in
  State.Incremental.fire eng t0 40_000;
  let wide = Packed_state.pack_scratch scratch in
  check_bool "wide key = of_state" true
    (Packed_state.equal wide (of_snapshot ()));
  check_int "4-byte cells" (1 + (4 * 6)) (Packed_state.byte_size wide);
  State.Incremental.undo eng;
  let narrow = Packed_state.pack_scratch scratch in
  check_bool "narrow again" true (Packed_state.equal narrow root_state);
  check_bool "persisted key untouched" true
    (Packed_state.equal root root_state);
  State.Incremental.fire eng t1 3;
  ignore (Packed_state.pack_scratch scratch);
  check_bool "persisted key survives a pack of the same width" true
    (Packed_state.equal root root_state && not (Packed_state.equal root (of_snapshot ())))

let suite =
  [
    prop_roundtrip;
    prop_byte_size;
    case "width selection edges" test_width_selection;
    case "hash agrees with State.hash" test_hash_agrees_with_state;
    case "equal states encode to equal bytes" test_equal_states_equal_bytes;
    case "distinct states differ" test_distinct_states_distinct_bytes;
    case "of_engine matches of_state" test_of_engine_matches_of_state;
    case "scratch key reuse" test_scratch_key_reuse;
  ]
