(** Independent check of a synthesized timeline against the
    specification.

    This deliberately does not look at the Petri net: it re-derives
    every timing constraint from the task parameters and relations, so
    that a bug in the block library or in the search cannot vouch for
    itself. *)

type violation =
  | Wrong_instance_count of string * int * int  (** task, expected, got *)
  | Wrong_amount of string * int * int * int
      (** task, instance, expected WCET, executed *)
  | Started_before_release of string * int * int * int
      (** task, instance, earliest legal start, actual *)
  | Missed_deadline of string * int * int * int
      (** task, instance, deadline, completion *)
  | Fragmented_non_preemptive of string * int
  | Processor_overlap of string * string * int
      (** two segments hold the processor at the same instant *)
  | Precedence_violated of string * string * int
      (** pred, succ, instance *)
  | Exclusion_interleaved of string * string * int
      (** the instance spans of an excluded pair overlap; time given *)
  | Message_too_early of string * int
      (** receiver started before the message could be delivered *)

val violation_to_string : violation -> string

val check :
  Ezrt_blocks.Translate.t -> Timeline.segment list -> (unit, violation list) result

(** Full certification of a synthesized firing schedule: replay it
    through the TPN semantics, require the final marking, derive the
    timeline and run {!check}.  This is the one gate every engine's
    output goes through in the differential fuzzer. *)

type certification_failure =
  | Replay_error of string
      (** some step is illegal under the firing rule, or the timeline
          cannot be derived *)
  | Wrong_final_marking
  | Violations of violation list

val certification_failure_to_string : certification_failure -> string

val certify :
  Ezrt_blocks.Translate.t ->
  Schedule.t ->
  (Timeline.segment list, certification_failure) result
