(** Throttled one-line progress reporting.

    A reporter is installed process-wide (like {!Trace} sinks); with
    none installed (the default), {!tick} and {!checkpoint} are a
    branch on [None], so hot loops can tick unconditionally.

    Producers pass a snapshot thunk that renders the current status
    line ("[search[classes]: 12040 stored, depth 31, 85k states/s]");
    it is only called when a line is actually due, so building the
    line costs nothing between reports. *)

type t

val create :
  ?interval_s:float ->
  ?every:int ->
  ?clock:(unit -> float) ->
  ?out:(string -> unit) ->
  unit ->
  t
(** [interval_s] is the minimum time between emitted lines (default
    [0.5]).  [every] bounds how often {!tick} consults the clock: only
    every [every]-th tick (rounded up to a power of two, default
    [1024]) — the per-tick cost between clock checks is one atomic
    increment.  [out] receives finished lines (default: [stderr],
    flushed). *)

val install : t -> unit
val uninstall : unit -> unit

val tick : (unit -> string) -> unit
(** Hot-path tick: cheap counter bump; every [every]-th call checks
    whether [interval_s] has elapsed and, if so, emits the snapshot. *)

val checkpoint : (unit -> string) -> unit
(** Coarse-grained tick for loops whose iterations are already slow
    (one fuzz spec, one portfolio member): always consults the clock,
    still throttled by [interval_s]. *)

val force : (unit -> string) -> unit
(** Emit unconditionally (if a reporter is installed) — for final
    summary lines. *)
