(** Store of canonical state classes with inclusion-based subsumption.

    The visited set of every class-graph walk, search and breadth-first
    alike: a map from markings to the canonical firing domains already
    explored under that marking (a class's enabled set must be a
    function of its marking).
    Domains are hash-consed — one stored copy per canonical form,
    compared hash-first — so duplicate classes cost a hash probe, not a
    matrix copy.

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
  entries : int;  (** stored canonical domains *)
  skeletons : int;  (** distinct markings seen *)
  duplicates : int;  (** visits answered [Duplicate] *)
  subsumed : int;  (** visits answered [Subsumed] *)
}

val create : ?subsume:bool -> unit -> t
(** [create ()] makes an empty store.  [subsume] (default [true])
    enables inclusion pruning — with it off the store degrades to an
    exact visited set and never answers [Subsumed]. *)

val subsume_enabled : t -> bool

val visit : t -> marking:int array -> domain:Dbm.t -> verdict
(** Classify a class against the store and, when [Fresh], record its
    canonical [domain] (uncopied).  Not thread-safe: one store belongs
    to one walk. *)

val length : t -> int
(** Stored domains ([entries]). *)

val stats : t -> stats
