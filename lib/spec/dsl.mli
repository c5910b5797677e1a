(** The ezRealtime XML DSL (paper Fig 7).

    The vocabulary follows the figure — root [rt:ez-spec] in the
    [http://pnmp.sf.net/EZRealtime] namespace, one [Task] element per
    task with [identifier], [precedesTasks] and [excludesTasks]
    reference attributes (["#id"] tokens, space-separated) and child
    elements [processor], [name], [period], [phase], [release],
    [power], [schedulingMode] (NP/P), [computing], [deadline] and
    [sourceCode] — extended with [Processor] and [Message] elements for
    the rest of the Fig 5 metamodel. *)

val to_string : Spec.t -> string
(** Pretty-printed document with the XML declaration. *)

type error = { context : string; message : string }

val error_to_string : error -> string

val of_string : string -> (Spec.t, error) result

val load_file : string -> (Spec.t, error) result
val save_file : string -> Spec.t -> unit
