(* Packed TLTS states for the search's memo tables.

   A boxed [State.t] costs two int arrays plus a record — roughly
   8 bytes per cell plus three headers — and hashing it walks boxed
   arrays on every lookup.  Here a state is serialized once into a
   [Bytes.t] of fixed-width little-endian cells (the narrowest of
   16/32/64 bits that fits every cell, chosen per state so equal states
   encode identically) with the full-width Zobrist hash memoized next
   to it.  A memo of claimed states shrinks by ~4x and lookups reduce
   to a stored-int compare plus [Bytes.equal].

   [of_engine] takes the incremental engine's maintained Zobrist word
   directly, so keying a search node costs only the serialization scan
   — no rehash of the marking at all. *)

type t = {
  data : bytes;
  hash : int;
}

(* The narrowest of 16/32/64-bit little-endian cells that holds every
   cell; the byte count [1 + width * cells] then fixes the encoding. *)
let width cells =
  let lo = ref 0 and hi = ref 0 in
  for i = 0 to Array.length cells - 1 do
    let v = cells.(i) in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  if !lo >= -0x8000 && !hi <= 0x7fff then 2
  else if !lo >= -0x40000000 && !hi <= 0x3fffffff then 4
  else 8

(* [data] has length [1 + w * Array.length cells]; the first byte is
   the width tag *)
let encode data w cells =
  Bytes.unsafe_set data 0 (Char.unsafe_chr w);
  match w with
  | 2 ->
    for i = 0 to Array.length cells - 1 do
      Bytes.set_int16_le data (1 + (2 * i)) cells.(i)
    done
  | 4 ->
    for i = 0 to Array.length cells - 1 do
      Bytes.set_int32_le data (1 + (4 * i)) (Int32.of_int cells.(i))
    done
  | _ ->
    for i = 0 to Array.length cells - 1 do
      Bytes.set_int64_le data (1 + (8 * i)) (Int64.of_int cells.(i))
    done

let serialize cells =
  let w = width cells in
  let data = Bytes.create (1 + (w * Array.length cells)) in
  encode data w cells;
  data

let pack ~n_places ~n_transitions ~tokens ~clock =
  let cells = n_places + n_transitions in
  let cell i = if i < n_places then tokens i else clock (i - n_places) in
  (* same fold as [State.Zobrist.of_cells], driven by [cell] so
     degenerate shapes (zero cells) never index the accessors *)
  let hash = ref 0 in
  for i = 0 to cells - 1 do
    let v = cell i in
    if i < n_places then hash := !hash lxor State.Zobrist.place i v
    else if v >= 0 then hash := !hash lxor State.Zobrist.clock (i - n_places) v
  done;
  { data = serialize (Array.init cells cell); hash = !hash }

let of_state (s : State.t) =
  pack
    ~n_places:(Array.length s.State.marking)
    ~n_transitions:(Array.length s.State.clocks)
    ~tokens:(fun p -> s.State.marking.(p))
    ~clock:(fun t -> s.State.clocks.(t))

(* A reused cell vector and one reused buffer per width, so keying a
   search node allocates nothing until the key is stored. *)
type scratch = {
  engine : State.Incremental.engine;
  cells : int array;
  w2 : bytes;
  w4 : bytes;
  w8 : bytes;
}

let scratch e =
  let net = State.Incremental.net e in
  let n = Pnet.place_count net + Pnet.transition_count net in
  {
    engine = e;
    cells = Array.make n 0;
    w2 = Bytes.create (1 + (2 * n));
    w4 = Bytes.create (1 + (4 * n));
    w8 = Bytes.create (1 + (8 * n));
  }

let pack_scratch s =
  let cells = s.cells in
  State.Incremental.write_cells s.engine cells;
  let w = width cells in
  let data = match w with 2 -> s.w2 | 4 -> s.w4 | _ -> s.w8 in
  encode data w cells;
  { data; hash = State.Incremental.zhash s.engine }

let persist p = { p with data = Bytes.copy p.data }
let of_engine e = persist (pack_scratch (scratch e))

let unpack p =
  let data = p.data in
  let width = Char.code (Bytes.get data 0) in
  let cells = (Bytes.length data - 1) / width in
  Array.init cells (fun i ->
      match width with
      | 2 -> Bytes.get_int16_le data (1 + (2 * i))
      | 4 -> Int32.to_int (Bytes.get_int32_le data (1 + (4 * i)))
      | 8 -> Int64.to_int (Bytes.get_int64_le data (1 + (8 * i)))
      | w -> invalid_arg (Printf.sprintf "Packed_state.unpack: width tag %d" w))

let equal a b = a.hash = b.hash && Bytes.equal a.data b.data
let hash p = p.hash
let byte_size p = Bytes.length p.data

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
