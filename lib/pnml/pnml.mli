(** PNML (ISO/IEC 15909-2) transfer syntax for the generated time Petri
    nets — the paper's exchange format (§4.1).

    The document follows the standard structure
    [pnml > net > page > place | transition | arc] with [initialMarking]
    on places and [inscription] (arc weight) on arcs.  Timing intervals,
    priorities and code bindings are not part of core PNML, so they
    travel in a [toolspecific tool="ezrealtime"] extension on each
    transition, as the standard prescribes for tool extensions. *)

val net_type : string

val to_xml : Ezrt_tpn.Pnet.t -> Ezrt_xml.Doc.node
val to_string : Ezrt_tpn.Pnet.t -> string
(** Pretty-printed document with XML declaration. *)

type error = { context : string; message : string }

val error_to_string : error -> string

val of_string : string -> (Ezrt_tpn.Pnet.t, error) result
(** Rebuilds a net from a PNML document.  Unknown [toolspecific]
    sections are ignored; a transition without an ezRealtime interval
    gets the unbounded default interval [[0, inf)], the usual reading
    of an untimed PNML transition. *)

val save_file : string -> Ezrt_tpn.Pnet.t -> unit
val load_file : string -> (Ezrt_tpn.Pnet.t, error) result
