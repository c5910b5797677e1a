(** Packed TLTS states: a state serialized into a compact [Bytes.t]
    with its full-width Zobrist hash memoized, for the search's large
    memo tables.  The encoding picks the narrowest cell width (16, 32
    or 64-bit little-endian) that fits every marking/clock cell of the
    state, so equal states always encode to equal bytes, and the hash
    agrees with {!State.hash} on the same logical state. *)

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

type scratch
(** Reused buffers for keying one engine's states. *)

val scratch : State.Incremental.engine -> scratch

val pack_scratch : scratch -> t
(** Pack the engine's current state into the scratch buffers, without
    materializing a {!State.t} or allocating bytes.  Reuses the
    engine's incrementally maintained {!State.Incremental.zhash}, so no
    cell is hashed at all — keying a search node costs one
    serialization scan.  The result is valid until the next
    [pack_scratch] on the same scratch: {!persist} it before storing
    it. *)

val persist : t -> t
(** A copy that owns its bytes. *)

val of_engine : State.Incremental.engine -> t
(** [persist (pack_scratch (scratch e))]. *)

val unpack : t -> int array
(** Decode every cell back, in pack order: the [n_places] marking cells
    followed by the [n_transitions] clock cells.  Inverse of {!pack}
    for any cell width. *)

val equal : t -> t -> bool

val hash : t -> int
(** Memoized; equals [State.hash] of the corresponding state. *)

val byte_size : t -> int

(** Hash tables keyed by packed states. *)
module Table : Hashtbl.S with type key = t
