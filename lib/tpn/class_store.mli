(** Concurrent store of canonical state classes with inclusion-based
    subsumption.

    The class engine's visited table: a lock-striped map from
    markings to the canonical firing domains already explored under
    that marking.  Domains are hash-consed — one stored copy per
    canonical form, compared hash-first — so duplicate classes cost a
    hash probe, not a matrix copy.

    With subsumption enabled (the default), a new class whose domain is
    {e contained} in an already-stored domain over the same marking is
    reported {!Subsumed} and not stored: every behaviour from the new
    class is a behaviour of the stored one, so exploring it again can
    neither add a feasible witness nor remove one (see DESIGN.md,
    "Symbolic engine performance", for the soundness argument and the
    structural conditions under which priorities preserve it). *)

type t

type verdict =
  | Fresh  (** first visit — the class was stored; caller explores it *)
  | Duplicate  (** bit-identical domain already stored under this marking *)
  | Subsumed
      (** strictly contained in a stored domain over the same marking *)

type stats = {
  stripes : int;
  entries : int;  (** stored canonical domains *)
  skeletons : int;  (** distinct markings seen *)
  duplicates : int;  (** visits answered [Duplicate] *)
  subsumed : int;  (** visits answered [Subsumed] *)
  contended : int;  (** [Mutex.try_lock] misses across all stripes *)
}

val create : ?stripes:int -> ?subsume:bool -> unit -> t
(** [create ()] makes an empty store.  [stripes] (rounded up to a power
    of two, default 64) fixes the lock granularity; [subsume] (default
    [true]) enables inclusion pruning — with it off the store degrades
    to an exact visited set and never answers [Subsumed]. *)

val subsume_enabled : t -> bool

val visit : t -> State_class.t -> verdict
(** Atomically classify [c] against the store and, when [Fresh], record
    its domain.  Thread-safe; all operations on one marking serialize
    through that marking's stripe lock. *)

val length : t -> int
(** Stored domains ([entries]); lock-free read of the shared total. *)

val stats : t -> stats
