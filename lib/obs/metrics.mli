(** Named monotonic counters and timers with a Prometheus-style text
    dump.

    The registry is process-wide: {!counter} is get-or-create, so
    instrumentation sites can look a counter up by name and label set
    without coordinating registration.  Cells are [Atomic.t]s —
    increments from portfolio worker domains are safe.  Engines update
    counters in bulk (once per search/spec, not per node), so the
    always-on registry costs nothing on hot paths. *)

type counter

val counter :
  ?help:string -> ?labels:(string * string) list -> string -> counter
(** [counter name] returns the registered counter for [(name, labels)],
    creating it on first use.  [name] should follow Prometheus
    conventions (snake case, [_total] suffix for counters).  [help] is
    kept from the first registration. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** @raise Invalid_argument on a negative amount: counters are
    monotonic. *)

val value : counter -> int

type gauge
(** A last-value cell, exported with [# TYPE ... gauge]: a write
    overwrites instead of accumulating.  Used for end-of-span
    snapshots such as the GC word counts ({!record_gc_gauges}). *)

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge
(** Get-or-create, like {!counter}; gauges and counters share the
    registry namespace, so a name should be one or the other. *)

val gauge_value : gauge -> int

type timer
(** An accumulating timer, exported as two series:
    [<name>_seconds_total] and [<name>_runs_total]. *)

val timer : ?help:string -> ?labels:(string * string) list -> string -> timer
(** [timer name] — [name] is the series prefix, without a suffix. *)

val observe : timer -> float -> unit
(** Record one run of the given duration (seconds, non-negative). *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk and {!observe} its wall-clock duration (measured
    with [Unix.gettimeofday]), exceptions included. *)

val timer_seconds : timer -> float
val timer_runs : timer -> int

val record_gc_gauges : unit -> unit
(** Snapshot [Gc.quick_stat] into the
    [ezrt_gc_{minor_words,major_words,compactions}] gauges.  The
    search engines call this at the end of every search span so the
    metrics dump reflects allocation up to the last search. *)

val dump : unit -> string
(** Prometheus text exposition: [# HELP] / [# TYPE] blocks, series
    sorted by name then labels, so the dump is deterministic given the
    counter values. *)

val save_file : string -> unit

val reset_all : unit -> unit
(** Zero every registered cell (the registry itself is kept) — for
    tests and benchmark isolation. *)
