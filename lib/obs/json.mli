(** Minimal JSON values: the one codec behind every JSON record the
    repository reads or writes (the serve/batch protocol, lint reports,
    Chrome traces, the bench report and result-cache entries).

    The repository deliberately carries no third-party JSON dependency;
    those records need only objects, arrays, strings, numbers, booleans
    and null, parsed from and printed to single lines
    (newline-delimited JSON).  Printing escapes control characters so
    a printed value never spans lines. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line rendering.  Integral floats below [1e15]
    print without a fractional part ([Num 3.] is ["3"]); any other
    finite float prints in the shortest form that reads back to the
    same float ([Num 0.1] is ["0.1"]), and nan and the infinities
    print as [null]. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing
    garbage is an error).  The standard backslash escapes and
    [backslash-u] sequences are decoded; surrogate pairs outside the
    BMP are emitted as UTF-8. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on objects; [None] on anything else. *)

val to_str : t -> string option
val to_int : t -> int option
(** [Some n] for an integral number inside the [int] range; [None] for
    anything else, including integral numbers the range cannot hold. *)
