(** Packed TLTS states: a state serialized into a compact [Bytes.t]
    with its full-width Zobrist hash memoized, and {!Memo}, the
    discrete search's memo of such states.  The encoding picks the
    narrowest cell width (16, 32 or 64-bit little-endian) that fits
    every marking/clock cell of the state, so equal states always
    encode to equal bytes, and the hash agrees with {!State.hash} on
    the same logical state. *)

type t = private {
  data : bytes;
  hash : int;
}

val pack :
  n_places:int ->
  n_transitions:int ->
  tokens:(Pnet.place_id -> int) ->
  clock:(Pnet.transition_id -> int) ->
  t
(** Serialize from accessors ([clock] returning [-1] for disabled
    transitions, as in {!State.t}). *)

val of_state : State.t -> t

val unpack : t -> int array
(** Decode every cell back, in pack order: the [n_places] marking cells
    followed by the [n_transitions] clock cells.  Inverse of {!pack}
    for any cell width. *)

val equal : t -> t -> bool

val hash : t -> int
(** Memoized; equals [State.hash] of the corresponding state. *)

val byte_size : t -> int

(** A set of cell vectors (a state's marking cells then its clock
    cells, as {!State.Incremental.write_cells} writes them), each
    stored packed in the encoding above under a caller-supplied hash —
    in the search, the engine's maintained {!State.Incremental.zhash}.
    Open addressing with linear probing over a hash array and a key
    array: 4096 slots at the start, doubling at half load. *)
module Memo : sig
  type t

  val create : unit -> t

  val mem : t -> hash:int -> int array -> bool
  (** [mem t ~hash cells] is true when a vector equal to [cells] was
      added under [hash].  Each stored key with the same hash is
      compared by decoding its cells in place: nothing is packed or
      allocated. *)

  val add : t -> hash:int -> int array -> unit
  (** Packs [cells] into fresh bytes and stores them under [hash].
      The vector must not be present already ([mem] said false). *)
end
