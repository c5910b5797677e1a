(* Packed TLTS states for the search's memo tables.

   A boxed [State.t] costs two int arrays plus a record — roughly
   8 bytes per cell plus three headers — and hashing it walks boxed
   arrays on every lookup.  Here a state is serialized once into a
   [Bytes.t] of fixed-width little-endian cells (the narrowest of
   16/32/64 bits that fits every cell, chosen per state so equal states
   encode identically) with the full-width Zobrist hash memoized next
   to it.  A 500k-entry failed-state table shrinks by ~4x and lookups
   reduce to a stored-int compare plus [Bytes.equal].

   [of_engine] takes the incremental engine's maintained Zobrist word
   directly, so keying a search node costs only the serialization scan
   — no rehash of the marking at all. *)

type t = {
  data : bytes;
  hash : int;
}

let width_tag_2 = '\002'
let width_tag_4 = '\004'
let width_tag_8 = '\008'

let serialize ~cells ~cell =
  let lo = ref 0 and hi = ref 0 in
  for i = 0 to cells - 1 do
    let v = cell i in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  if !lo >= -0x8000 && !hi <= 0x7fff then begin
    let data = Bytes.create (1 + (2 * cells)) in
    Bytes.unsafe_set data 0 width_tag_2;
    for i = 0 to cells - 1 do
      Bytes.set_int16_le data (1 + (2 * i)) (cell i)
    done;
    data
  end
  else if !lo >= -0x40000000 && !hi <= 0x3fffffff then begin
    let data = Bytes.create (1 + (4 * cells)) in
    Bytes.unsafe_set data 0 width_tag_4;
    for i = 0 to cells - 1 do
      Bytes.set_int32_le data (1 + (4 * i)) (Int32.of_int (cell i))
    done;
    data
  end
  else begin
    let data = Bytes.create (1 + (8 * cells)) in
    Bytes.unsafe_set data 0 width_tag_8;
    for i = 0 to cells - 1 do
      Bytes.set_int64_le data (1 + (8 * i)) (Int64.of_int (cell i))
    done;
    data
  end

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
  { data = serialize ~cells ~cell; hash = !hash }

let of_state (s : State.t) =
  pack
    ~n_places:(Array.length s.State.marking)
    ~n_transitions:(Array.length s.State.clocks)
    ~tokens:(fun p -> s.State.marking.(p))
    ~clock:(fun t -> s.State.clocks.(t))

let of_engine e =
  let net = State.Incremental.net e in
  let n_places = Pnet.place_count net in
  let cells = n_places + Pnet.transition_count net in
  let cell i =
    if i < n_places then State.Incremental.tokens e i
    else State.Incremental.clock e (i - n_places)
  in
  { data = serialize ~cells ~cell; hash = State.Incremental.zhash e }

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

type table_stats = {
  entries : int;
  buckets : int;
  load : float;
  collisions : int;
  max_bucket : int;
}

module Table = struct
  include Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  let load_stats t =
    let s = stats t in
    let nonempty =
      let n = ref 0 in
      Array.iteri
        (fun len count -> if len > 0 then n := !n + count)
        s.Hashtbl.bucket_histogram;
      !n
    in
    {
      entries = s.Hashtbl.num_bindings;
      buckets = s.Hashtbl.num_buckets;
      load =
        (if s.Hashtbl.num_buckets = 0 then 0.
         else float_of_int s.Hashtbl.num_bindings
              /. float_of_int s.Hashtbl.num_buckets);
      collisions = s.Hashtbl.num_bindings - nonempty;
      max_bucket = s.Hashtbl.max_bucket_length;
    }
end
