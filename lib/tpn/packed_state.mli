(** Packed TLTS states: {!Memo}, the discrete search's memo, stores
    each state's cell vector serialized into a compact [Bytes.t].  The
    encoding picks the narrowest cell width (16, 32 or 64-bit
    little-endian) that fits every marking/clock cell of the state, so
    equal vectors always encode to equal bytes. *)

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
