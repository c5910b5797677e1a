(* Packed TLTS states for the search's memo.

   A boxed [State.t] costs two int arrays plus a record — roughly
   8 bytes per cell plus three headers — and hashing it walks boxed
   arrays on every lookup.  Here a state is serialized once into a
   [Bytes.t] of fixed-width little-endian cells (the narrowest of
   16/32/64 bits that fits every cell, chosen per state so equal states
   encode identically), so a memo of claimed states shrinks by ~4x.

   [Memo] is the incremental search's memo.  It takes the engine's
   maintained Zobrist word and its cells as an unpacked vector, and
   answers a lookup by decoding the stored keys with that hash in
   place, so a revisited state is never packed; only an added one is. *)

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

external get_uint16_unsafe : bytes -> int -> int = "%caml_bytes_get16u"
external swap16 : int -> int = "%bswap16"

(* [Bytes.get_int16_le] without the bounds check, for the memo's hot
   16-bit compare: it halves the cost of a revisit's lookup. *)
let get_int16_le_unsafe data off =
  let x = get_uint16_unsafe data off in
  let x = if Sys.big_endian then swap16 x else x in
  (x lsl (Sys.int_size - 16)) asr (Sys.int_size - 16)

(* [data] decodes to exactly [cells].  Decoding inverts the encoding
   at every width, so this holds iff [data] is the packing of [cells].
   The length check bounds every read below. *)
let decodes_to data cells =
  let n = Array.length cells in
  let w = Char.code (Bytes.get data 0) in
  Bytes.length data = 1 + (w * n)
  &&
  let i = ref 0 in
  (match w with
  | 2 ->
    while
      !i < n
      && get_int16_le_unsafe data (1 + (2 * !i)) = Array.unsafe_get cells !i
    do
      incr i
    done
  | 4 ->
    while
      !i < n
      && Int32.to_int (Bytes.get_int32_le data (1 + (4 * !i))) = cells.(!i)
    do
      incr i
    done
  | _ ->
    while
      !i < n
      && Int64.to_int (Bytes.get_int64_le data (1 + (8 * !i))) = cells.(!i)
    do
      incr i
    done);
  !i = n

module Memo = struct
  (* Parallel slot arrays; a free slot holds the empty key (a stored
     key always has its width byte).  The slot count is a power of two
     and at most half the slots are taken, so every probe ends. *)
  type t = {
    mutable hashes : int array;
    mutable keys : bytes array;
    mutable count : int;
  }

  let create () =
    { hashes = Array.make 4096 0; keys = Array.make 4096 Bytes.empty;
      count = 0 }

  let rec probe t i ~hash cells =
    let key = t.keys.(i) in
    Bytes.length key > 0
    && ((t.hashes.(i) = hash && decodes_to key cells)
       || probe t ((i + 1) land (Array.length t.keys - 1)) ~hash cells)

  let mem t ~hash cells = probe t (hash land (Array.length t.keys - 1)) ~hash cells

  let rec place t i ~hash key =
    if Bytes.length t.keys.(i) = 0 then begin
      t.keys.(i) <- key;
      t.hashes.(i) <- hash
    end
    else place t ((i + 1) land (Array.length t.keys - 1)) ~hash key

  let grow t =
    let hashes = t.hashes and keys = t.keys in
    let slots = 2 * Array.length keys in
    t.hashes <- Array.make slots 0;
    t.keys <- Array.make slots Bytes.empty;
    Array.iteri
      (fun i key ->
        if Bytes.length key > 0 then
          place t (hashes.(i) land (slots - 1)) ~hash:hashes.(i) key)
      keys

  let add t ~hash cells =
    if 2 * (t.count + 1) > Array.length t.keys then grow t;
    place t (hash land (Array.length t.keys - 1)) ~hash (serialize cells);
    t.count <- t.count + 1
end
