(** Structural lint: static diagnostics over compiled time Petri nets.

    Every analysis here is polynomial in the net (the Farkas invariant
    computation is capped by [max_rows] and degrades to a truncation
    diagnostic) and none explores the state space — the pass is a
    cheap, sound oracle that runs before any search engine and scales
    to generated corpora of millions of specs.

    Findings are stable-coded [EZRT-L0xx] diagnostics (see
    docs/LINT.md for the catalogue) with severity error / warning /
    info, each carrying the spec fragment it was compiled from
    ({!Ezrt_blocks.Translate.origin}), rendered as plain text, a
    single-line JSON object, or a SARIF 2.1.0 log.

    The boundedness analysis is {e certifying}: the report carries the
    P-invariant rows themselves, and every certificate re-checks
    against the net with {!Ezrt_tpn.Invariants.is_invariant}.  The
    gate-explain analysis re-derives the class engines' subsumption
    gate with human-readable reasons, and cross-checks its verdict
    against the live gate ([Class_search.subsumption_applicable]) —
    disagreement is itself a (should-never-fire) error diagnostic. *)

open Ezrt_tpn

type severity = Info | Warning | Error

val severity_to_string : severity -> string
val severity_rank : severity -> int
(** [Info] = 0, [Warning] = 1, [Error] = 2. *)

val severity_of_string : string -> severity option

type diagnostic = {
  code : string;  (** stable identifier, e.g. ["EZRT-L005"] *)
  severity : severity;
  subject : string;  (** the net element, e.g. ["transition tr_pump"] *)
  message : string;
  origin : string option;
      (** spec provenance, e.g. ["task pump (id t2)"]; [None] on raw
          nets with no translation context *)
}

type gate = {
  gate : string;  (** ["subsumption"] *)
  gate_open : bool;
  reasons : string list;  (** why closed; empty when open *)
}

type report = {
  net_name : string;
  diagnostics : diagnostic list;
      (** sorted by (code, subject, message) — deterministic *)
  gates : gate list;  (** model context only; [] on raw nets *)
  certificates : int array list;
      (** the P-invariant rows backing the boundedness verdicts; each
          satisfies [Invariants.is_invariant net] *)
  truncated : bool;  (** the Farkas row bound tripped *)
  covered_places : int;
  place_count : int;
  transition_count : int;
}

val catalogue : (string * severity * string) list
(** [(code, default severity, summary)] for every documented code, in
    code order.  The SARIF renderer emits these as the tool rules. *)

val count : severity -> report -> int

val max_severity : report -> severity option
(** The worst severity present, [None] on a clean report. *)

val deny_hit : deny:severity -> report -> bool
(** Whether any diagnostic sits at or above the [deny] threshold. *)

val check_net :
  ?max_rows:int ->
  ?final_places:Pnet.place_id list ->
  ?dead_places:Pnet.place_id list ->
  ?resource_places:Pnet.place_id list ->
  ?required_firings:int array ->
  ?origin_of_place:(Pnet.place_id -> string option) ->
  ?origin_of_transition:(Pnet.transition_id -> string option) ->
  Pnet.t ->
  report
(** Lint a raw net.  The optional arguments supply translation
    context: final / dead-marker / resource places refine the
    accumulator and safety analyses, and [required_firings] enables
    the periodic-skeleton reproducibility check (L004) and the
    deadline-path escalation of L010.  [max_rows] (default 20_000)
    caps the Farkas invariant computation. *)

val check_model : ?max_rows:int -> Ezrt_blocks.Translate.t -> report
(** Lint a translated model: {!check_net} with the full context from
    the translation, plus spec provenance on every diagnostic and the
    gate-explain analysis (L012, L013). *)

val check_spec : ?max_rows:int -> Ezrt_spec.Spec.t -> (report, string) result
(** Validate, translate and lint; [Error] carries the validation or
    translation failure. *)

val explain_subsumption : Ezrt_blocks.Translate.t -> gate
(** The class engines' inclusion-subsumption gate, re-derived with
    reasons.  [gate_open] agrees with
    [Class_search.subsumption_applicable] by construction (asserted by
    L013 and the test suite). *)

val structurally_dead : Pnet.t -> Pnet.transition_id list
(** Transitions that can never fire, by the token-flow fixpoint: an
    input place is unsatisfiable when the initial marking falls short
    of the arc weight and no live transition produces into it.  Sound:
    a listed transition is dead in every reachable marking. *)

val unmarked_siphon : Pnet.t -> Pnet.place_id list
(** The maximal siphon among initially-unmarked places.  Such places
    stay empty forever and every consumer is structurally dead. *)

val unmarked_trap : ?exclude:Pnet.place_id list -> Pnet.t -> Pnet.place_id list
(** The maximal trap among initially-unmarked places that have at
    least one consumer (excluding [exclude], e.g. final and dead
    markers): once a token enters, the trap can never fully drain. *)

val to_text : report -> string

val to_json : report -> string
(** Single-line JSON; byte-identical across runs on the same spec. *)

val to_sarif : ?uri:string -> report -> string
(** SARIF 2.1.0 log with one run; [uri] attaches the spec file as the
    result artifact location. *)
