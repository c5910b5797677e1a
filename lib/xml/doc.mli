(** XML document trees.

    This is the in-tree substitute for the third-party PNML Framework
    used by the paper: a small, dependency-free XML 1.0 subset that is
    sufficient for the ezRealtime DSL (Fig 7) and for PNML (ISO/IEC
    15909-2) documents.  Namespaces are kept as literal prefixed tag
    names ([rt:ez-spec]); there is no namespace resolution, which
    matches how the paper's fixed-vocabulary documents are consumed. *)

type node =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : node list;
}

(** {1 Construction} *)

val elt : ?attrs:(string * string) list -> string -> node list -> node
(** [elt tag children] builds an element node.  Raises
    [Invalid_argument] on an empty or whitespace-containing tag. *)

val text : string -> node
(** [text s] builds a text node. *)

val leaf : ?attrs:(string * string) list -> string -> string -> node
(** [leaf tag s] is [elt tag [text s]] — the common one-line element. *)

(** {1 Accessors} *)

val tag_of : node -> string option
(** [tag_of n] is the tag when [n] is an element. *)

val attr : node -> string -> string option
(** [attr n key] looks up an attribute on an element node. *)

val attr_exn : node -> string -> string
(** Like {!attr}; raises [Not_found] when absent or [n] is text. *)

val children_of : node -> node list
(** Children of an element; [[]] for text. *)

val find_child : node -> string -> node option
(** First child element with the given tag. *)

val find_children : node -> string -> node list
(** All child elements with the given tag, in document order. *)

val text_content : node -> string
(** Concatenation of all text descendants of [n]. *)

val child_text : node -> string -> string option
(** [child_text n tag] is the text content of the first [tag] child. *)

(** {1 Comparison} *)

val equal : node -> node -> bool
(** Structural equality; attribute order is significant (documents we
    emit are canonical), text nodes compare byte-wise. *)

(** {1 Printing} *)

val escape : string -> string
(** Escape the five XML special characters (ampersand, angle brackets
    and both quotes) for use in text and attribute values. *)

val to_string : ?decl:bool -> node -> string
(** Compact serialization (no inserted whitespace).  [decl] prepends the
    XML version declaration (default false). *)

val to_string_pretty : ?decl:bool -> node -> string
(** Indented serialization.  Elements whose children include text are
    printed inline so that round-tripping does not invent whitespace
    inside text content. *)
