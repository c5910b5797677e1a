(** Structured tracing: timestamped begin/end spans and instant
    events, recorded into a preallocated ring buffer and exportable as
    Chrome trace-event JSON ([chrome://tracing] / Perfetto loadable).

    A process has at most one installed sink.  With no sink installed
    (the default) every recording entry point is a branch on [None]
    and returns immediately, so instrumentation in hot paths is
    near-free when tracing is off.  Recording is domain-safe: events
    carry the recording domain's id as their [tid], so portfolio
    members show up as parallel tracks in the viewer. *)

type arg =
  | Int of int
  | Str of string
  | Float of float

type phase =
  | Begin  (** span opening ([ph:"B"]) *)
  | End  (** span closing ([ph:"E"]) *)
  | Instant  (** point event ([ph:"i"]) *)

type event = {
  name : string;
  cat : string;  (** category, e.g. ["search"], ["portfolio"], ["fuzz"] *)
  phase : phase;
  ts_us : int;  (** microseconds since the sink's creation *)
  tid : int;  (** recording domain id *)
  args : (string * arg) list;
}

type t
(** A sink: a fixed-capacity ring buffer of events.  When full, new
    events overwrite the oldest ones; {!dropped} counts the losses. *)

val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** [capacity] is the ring size in events (default [65536]; clamped to
    at least 2).  [clock] returns seconds (default
    [Unix.gettimeofday]); it is sampled once at creation to set the
    sink's epoch, then once per recorded event.  Injecting a fake
    clock makes traces byte-for-byte reproducible. *)

val install : t -> unit
(** Make [t] the process-wide sink observed by the recording entry
    points below. *)

val uninstall : unit -> unit

val enabled : unit -> bool

(** {1 Recording}

    All of these are no-ops (a single branch) when no sink is
    installed. *)

val begin_span : ?args:(string * arg) list -> cat:string -> string -> unit
val end_span : ?args:(string * arg) list -> cat:string -> string -> unit
val instant : ?args:(string * arg) list -> cat:string -> string -> unit

val with_span : ?args:(string * arg) list -> cat:string -> (unit -> 'a) -> string -> 'a
(** [with_span ~cat f name] brackets [f ()] in a [name] span; the span
    is closed on exceptions too. *)

(** {1 Reading a sink} *)

val events : t -> event list
(** Chronological (oldest surviving first). *)

val written : t -> int
(** Total events recorded, including overwritten ones. *)

val dropped : t -> int
(** Events lost to ring wraparound: [max 0 (written - capacity)]. *)

val capacity : t -> int

(** {1 Export} *)

val to_chrome_json : t -> string
(** Chrome trace-event format: a JSON object with a [traceEvents]
    array of [B]/[E]/[i] events, one per line.  Load it at
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)

val save_file : string -> t -> unit
