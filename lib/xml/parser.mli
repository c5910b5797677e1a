(** Recursive-descent parser for the XML subset emitted by {!Doc}.

    Supported: one root element, attributes with single or double
    quotes, character data, the five predefined entities plus decimal
    and hexadecimal character references, comments, CDATA sections, an
    optional XML declaration and DOCTYPE (both skipped), and
    processing instructions (skipped).

    Whitespace-only text between elements is dropped, so parsing the
    output of {!Doc.to_string_pretty} yields the original tree;
    whitespace inside mixed content is preserved. *)

type error = { position : int; message : string }

val error_to_string : error -> string

val parse : string -> (Doc.node, error) result
(** [parse s] parses the root element of [s]. *)

