(** TINA [.net] textual format.

    TINA (TIme petri Net Analyzer, LAAS/CNRS) is the reference analyzer
    for time Petri nets; this module reads and writes its textual net
    format so that generated models can be cross-checked with the real
    tool and TINA examples can be imported:

    {v
    net mine-pump
    tr tr_PMC [0,10] pwr_PMC -> pwg_PMC
    tr tc_PMC [10,10] pwc_PMC -> pwf_PMC
    pl pproc (1)
    v}

    Supported subset: [net], [tr] with closed intervals ([ [a,b] ] or
    [ [a,w[ ] for unbounded), arc weights ([place*3]), [pl] with
    initial markings.  Labels ([: lbl]), open intervals and stopwatch
    extensions are not supported; transition priorities (not part of
    TINA's core format) are carried in a [# priority] comment that this
    reader understands and TINA ignores. *)

val to_string : Pnet.t -> string

type error = { line : int; message : string }

val error_to_string : error -> string

val of_string : string -> (Pnet.t, error) result

val save_file : string -> Pnet.t -> unit
val load_file : string -> (Pnet.t, error) result
