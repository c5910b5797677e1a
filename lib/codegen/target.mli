(** Code-generation target profiles.

    The paper's future-work list names ARM9, 8051, M68K and x86; each
    profile provides the platform-specific boilerplate (includes, timer
    programming, interrupt-handler qualifiers, idle instruction) while
    the schedule table and dispatcher are platform-independent.

    The [hosted] profile additionally wraps the program in a logical-
    clock harness so the generated file compiles with any host C
    compiler and, when run, prints its dispatch trace for one
    hyper-period — the container substitute for executing on a real
    microcontroller (see DESIGN.md). *)

type t = {
  name : string;
  description : string;
  includes : string list;
  isr_qualifier : string;  (** attribute/keyword marking the timer ISR *)
  timer_setup : string list;  (** body lines of [ezrt_timer_init] *)
  timer_program : string list;
      (** body lines of [ezrt_timer_program(next)] *)
  timer_ack : string list;  (** interrupt acknowledgment lines *)
  idle : string;  (** one statement for the main idle loop *)
  glue : string list;
      (** platform glue emitted before the dispatcher: register maps,
          port helpers, tick-rate constants *)
  int_bytes : int;  (** sizeof(int) on the target *)
  pointer_bytes : int;  (** size of a function pointer *)
  flash_bytes : int option;
      (** typical code-memory budget of the profile's reference part,
          used by footprint warnings; [None] for hosted *)
  hosted : bool;
}

val hosted : t
(** Self-contained ANSI C simulation harness (x86 or any host). *)

val x86 : t
(** Bare-metal x86 with the legacy PIT (port 0x40) timer. *)

val arm9 : t
(** ARM9 with a memory-mapped timer block. *)

val i8051 : t
(** Intel 8051, timer 0 in mode 1 (uses the SDCC [__interrupt]
    keyword; not compilable by a host compiler). *)

val all : (string * t) list
val find : string -> t option
