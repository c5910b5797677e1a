(** Stable content addresses for specifications.

    [digest spec] hashes a canonical, order-insensitive binary
    serialization of the whole specification — tasks, processors,
    messages and relations are sorted by identifier before encoding,
    and every string is length-prefixed so no two distinct
    specifications share an encoding.  Reordering the task list (or
    the relation lists) of a specification therefore does not change
    its address, while changing any parameter does.

    The hash is salted with {!version}: whenever the synthesis
    engines' observable verdicts change incompatibly, bumping the salt
    invalidates every previously written cache entry at the address
    level — stale results are unreachable rather than merely
    rejected.  A change of the cache entry format needs no bump: the
    entry's own format tag makes an old entry fail to decode, which
    the cache counts as an invalid miss and overwrites. *)

val version : string
(** The engine/format version salt mixed into every digest
    (["ezrt-digest-v<n>"]). *)

val canonical_bytes : Ezrt_spec.Spec.t -> string
(** The canonical serialization that is hashed: deterministic,
    order-insensitive, and injective on specifications (two specs map
    to the same bytes iff they are equal up to reordering of the
    task/processor/message/relation lists). *)

val digest : Ezrt_spec.Spec.t -> string
(** 32 lowercase hex characters (an MD5 over {!canonical_bytes}
    prefixed by {!version}).  This is the cache key and the on-disk
    entry file name. *)
