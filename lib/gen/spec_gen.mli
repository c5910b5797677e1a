(** Seeded random generation of specification models.

    Every generated specification is well-formed by construction and
    validated ({!Ezrt_spec.Validate}) before being returned, so the
    differential fuzzer only ever feeds the engines inputs they are
    specified to handle: mixed preemptive/non-preemptive task sets,
    acyclic PRECEDES relations, EXCLUDES pairs, inter-task messages,
    small hyper-periods (period menus), and a tunable fraction of
    specs whose utilization and deadline slack put them near the
    feasibility boundary — where engine disagreements live. *)

type profile = {
  min_tasks : int;
  max_tasks : int;
  preemptive_fraction : float;  (** probability a task is preemptive *)
  precedence_density : float;
      (** probability of a PRECEDES edge per equal-period pair (edges
          go from lower to higher task index, so DAGs by construction) *)
  exclusion_density : float;  (** probability of EXCLUDES per pair *)
  message_fraction : float;  (** probability the spec carries a message *)
  utilization : float * float;  (** target range for ordinary specs *)
  boundary_fraction : float;
      (** fraction of specs drawn with {!field-boundary_utilization}
          and tight deadlines instead *)
  boundary_utilization : float * float;
  period_menus : int array array;
      (** one menu per spec; small LCMs keep hyper-periods searchable *)
  max_phase : int;
}

val default : profile

val smoke : profile
(** Smaller task sets and lower utilization: fast enough for a CI
    smoke run. *)

val spec_at : ?profile:profile -> seed:int -> int -> Ezrt_spec.Spec.t
(** [spec_at ~seed i] is spec number [i] of the campaign keyed by
    [seed] — independent of every other index. *)

(** {2 Primitive distributions}

    Shared with the property-test suites so qcheck-style invariants
    sample the same value shapes the fuzzer exercises. *)

val interval : ?max_eft:int -> ?max_width:int -> Rng.t -> Ezrt_tpn.Time_interval.t
(** A static firing interval; unbounded LFTs appear with small
    probability. *)

val cell : Rng.t -> int
(** A state-vector cell value spanning the packed encoding's width
    classes: small counts, 16-bit extremes, 32-bit and full-word
    values (clock cells may be [-1]). *)
