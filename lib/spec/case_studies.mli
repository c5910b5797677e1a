(** The specifications used by the paper's figures and case study. *)

val mine_pump : Spec.t
(** Table 1: the simplified mine pump control system (Burns &
    Wellings HRT-HOOD).  10 non-preemptive tasks, hyper-period 30000,
    782 task instances. *)

val fig3_precedence : Spec.t
(** The two tasks of Fig 3: T1 (c=15, d=100) PRECEDES T2 (c=20, d=150),
    both with period 250. *)

val fig4_exclusion : Spec.t
(** The two preemptive tasks of Fig 4: T0 (c=10, d=100) EXCLUDES
    T2 (c=20, d=150), both with period 250. *)

val fig8_preemptive : Spec.t
(** A four-task preemptive set (TaskA..TaskD) whose synthesized
    schedule exhibits the preempt/resume structure of the Fig 8
    schedule table. *)

val quickstart : Spec.t
(** A small three-task non-preemptive set with one precedence, used by
    the quickstart example and the documentation. *)

val greedy_trap : Spec.t
(** Two non-preemptive tasks for which every work-conserving runtime
    policy (EDF, RM, DM) misses a deadline, while the pre-runtime
    search with inserted idle time ([latest_release]) finds a feasible
    schedule — the classic motivation for pre-runtime scheduling
    (Mok). *)

val flight_control : Spec.t
(** A small flight-control deployment exercising the whole metamodel
    at once: eight tasks with phases, preemptive and non-preemptive
    modes, two bus messages (gyro frames and actuator commands over
    CAN), a precedence chain and an exclusion on a shared parameter
    table. *)

val all : (string * Spec.t) list
(** Every case study, keyed by a short slug. *)
