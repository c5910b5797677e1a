open Ezrt_tpn
module Translate = Ezrt_blocks.Translate

type metrics = Search.metrics = {
  stored : int;
  visited : int;
  eager : int;
  backtracks : int;
  subsumed : int;
  max_depth : int;
  elapsed_s : float;
  por_reduced : int;
  por_fallback : int;
  por_skipped : int;
}

type failure =
  | Infeasible
  | Budget_exhausted
  | Extraction_failed

let failure_to_string = function
  | Infeasible -> "no feasible schedule exists (dense-time class graph)"
  | Budget_exhausted -> "stored-class budget exhausted"
  | Extraction_failed -> "class path could not be realized at integer times"

(* Fast path: realize the sequence at the earliest legal integer
   times, step by step, on one in-place engine: each firing costs its
   arcs, not a copy of the state, and is committed at once, since the
   walk never undoes.  The earliest time is the domain's lower bound,
   so only its upper end can reject it. *)
let extract_greedy net sequence =
  let e = State.Incremental.create net in
  let rec go acc = function
    | [] -> Some (Schedule.of_actions (List.rev acc))
    | tid :: rest ->
      if not (State.Incremental.is_enabled e tid) then None
      else
        let q, hi = State.Incremental.firing_domain e tid in
        if not (Time_interval.bound_le (Time_interval.Finite q) hi) then None
        else begin
          State.Incremental.fire e tid q;
          State.Incremental.commit e;
          go ((tid, q) :: acc) rest
        end
  in
  go [] sequence

(* Exact path: the firing dates S_1..S_n of the sequence form a system
   of difference constraints —

   - monotonicity           S_{i-1} - S_i       <= 0
   - interval of the firing EFT <= S_i - S_e <= LFT  (e = enabling step)
   - urgency of bystanders  S_k - S_e <= LFT(t) for every transition t
     enabled from step e through firing k (time cannot pass beyond an
     enabled transition's latest firing time)

   Enabling steps follow Def 3.1 persistence.  The system is solved by
   Bellman-Ford; the earliest solution realizes the class path, which
   is exactly a timed run of the net. *)
let extract_exact (net : Pnet.t) sequence =
  let seq = Array.of_list sequence in
  let n = Array.length seq in
  (* untimed walk computing per-step enabling points *)
  let n_trans = Pnet.transition_count net in
  let enabled_since = Array.make n_trans (-1) in
  (* -1 = disabled; otherwise the step index (0 = initially) whose date
     starts the clock *)
  let marking = Array.copy net.Pnet.m0 in
  for t = 0 to n_trans - 1 do
    if State.marking_enables net marking t then enabled_since.(t) <- 0
  done;
  (* constraints as (a, b, w) meaning S_b - S_a <= w, nodes 0..n *)
  let constraints = ref [] in
  let add a b w = constraints := (a, b, w) :: !constraints in
  for i = 1 to n do
    add i (i - 1) 0 (* S_{i-1} <= S_i *)
  done;
  let ok = ref true in
  for i = 1 to n do
    if !ok then begin
      let tid = seq.(i - 1) in
      let e = enabled_since.(tid) in
      if e < 0 then ok := false
      else begin
        let itv = Pnet.interval net tid in
        (* S_i - S_e >= EFT  <=>  S_e - S_i <= -EFT *)
        add i e (-Time_interval.eft itv);
        (match Time_interval.lft itv with
        | Time_interval.Finite l -> add e i l
        | Time_interval.Infinity -> ());
        (* urgency: every transition enabled across this firing bounds
           this step's date *)
        for t = 0 to n_trans - 1 do
          if t <> tid && enabled_since.(t) >= 0 then
            match Time_interval.lft (Pnet.interval net t) with
            | Time_interval.Finite l -> add enabled_since.(t) i l
            | Time_interval.Infinity -> ()
        done;
        (* fire untimed, update enabling points per Def 3.1 *)
        let before = Array.copy marking in
        Array.iter (fun (p, w) -> marking.(p) <- marking.(p) - w) net.Pnet.pre.(tid);
        Array.iter (fun (p, w) -> marking.(p) <- marking.(p) + w) net.Pnet.post.(tid);
        for t = 0 to n_trans - 1 do
          if not (State.marking_enables net marking t) then enabled_since.(t) <- -1
          else if t = tid || not (State.marking_enables net before t) then
            enabled_since.(t) <- i
          (* persistent: keep its enabling point *)
        done
      end
    end
  done;
  if not !ok then None
  else begin
    (* earliest solution: x_i = -d(i) with d = shortest paths from node
       0 over reversed edges (b -> a, weight w) *)
    let dist = Array.make (n + 1) Dbm.infinity in
    dist.(0) <- 0;
    let edges = List.map (fun (a, b, w) -> (b, a, w)) !constraints in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds <= n + 1 do
      changed := false;
      incr rounds;
      List.iter
        (fun (src, dst, w) ->
          if dist.(src) < Dbm.infinity && dist.(src) + w < dist.(dst) then begin
            dist.(dst) <- dist.(src) + w;
            changed := true
          end)
        edges
    done;
    if !changed then None (* negative cycle: infeasible *)
    else begin
      let dates = Array.init (n + 1) (fun i -> -dist.(i)) in
      if Array.exists (fun d -> d < 0) dates then None
      else begin
        let actions =
          List.init n (fun i -> (seq.(i), dates.(i + 1) - dates.(i)))
        in
        Some (Schedule.of_actions actions)
      end
    end
  end

let extraction_counter result =
  Ezrt_obs.Metrics.incr
    (Ezrt_obs.Metrics.counter
       ~help:"Class-path realizations by extraction strategy"
       ~labels:[ ("result", result) ]
       "ezrt_class_extractions_total")

let extract net sequence =
  match extract_greedy net sequence with
  | Some schedule ->
    extraction_counter "greedy";
    Some schedule
  | None -> (
    Ezrt_obs.Trace.instant ~cat:"search" "extract-greedy-failed";
    match extract_exact net sequence with
    | Some schedule -> (
      (* certify against the step semantics before handing it out *)
      match Schedule.replay net schedule with
      | (_ : State.t) ->
        extraction_counter "exact";
        Some schedule
      | exception Invalid_argument _ ->
        extraction_counter "failed";
        Ezrt_obs.Trace.instant ~cat:"search" "extract-exact-failed";
        None)
    | None ->
      extraction_counter "failed";
      Ezrt_obs.Trace.instant ~cat:"search" "extract-exact-failed";
      None)

(* Candidate order: smallest delay lower bound first (ties by id) —
   the dense-time analogue of the discrete engine's earliest-first
   policy. *)
let order_candidates net c candidates =
  let keyed =
    List.map (fun tid -> (fst (State_class.delay_bounds net c tid), tid))
      candidates
  in
  let by_key ((l1 : int), (t1 : int)) (l2, t2) =
    if l1 <> l2 then Int.compare l1 l2 else Int.compare t1 t2
  in
  List.map snd (List.sort by_key keyed)

(* Inclusion pruning is sound for the feasibility verdict only when
   priorities cannot un-suppress a transition inside the subsumed
   class.  Candidates of a contained class are a subset of the
   container's, so the minimum priority over them can only be WORSE
   (numerically larger); a transition filtered out in the container
   could then survive the filter in the contained class and open a
   branch the container never explores.  Two structural conditions
   rule that out for the nets our translation emits:

   (A) every transition with a better-than-default priority has static
       interval [0,0] — its time-firability is then marking-determined
       (an enabled [0,0] transition always can fire first), so it is a
       candidate in the contained class iff it is one in the
       container, and the priority filter picks the same winners;
   (B) every transition with a worse-than-default priority marks a
       dead place — it only ever fires into a state the search prunes
       as dead, so losing it in the contained class cannot lose a
       feasible witness, and a miss reachable below the contained
       class is equally reachable below the container.

   The translation satisfies both (deadline_ok/finish/bookkeeping are
   immediate; only deadline-miss watchdogs are demoted, and they mark
   [pdm]); hand-written nets may not, so subsumption silently turns
   itself off when the check fails. *)
let subsumption_applicable (model : Translate.t) =
  let net = model.Translate.net in
  let default = Pnet.default_priority in
  let marks_dead tid =
    Array.exists
      (fun (p, _) -> List.mem p model.Translate.dead_places)
      net.Pnet.post.(tid)
  in
  let immediate tid =
    let itv = Pnet.interval net tid in
    Time_interval.eft itv = 0 && Time_interval.lft itv = Time_interval.Finite 0
  in
  let rec go tid =
    tid < 0
    ||
    let p = Pnet.priority net tid in
    (if p < default then immediate tid
     else if p > default then marks_dead tid
     else true)
    && go (tid - 1)
  in
  go (Pnet.transition_count net - 1)

(* The class semantics for the kernel.  A lone firable transition is
   forced whatever its interval: the firing time stays symbolic, so no
   choice is lost. *)
let semantics model store =
  let net = model.Translate.net in
  let marking (c : State_class.t) = c.State_class.marking in
  {
    Search.root = State_class.initial net;
    is_final = (fun c -> (marking c).(model.Translate.final_place) >= 1);
    is_dead =
      (fun c ->
        List.exists (fun p -> (marking c).(p) > 0) model.Translate.dead_places);
    seen = (fun _ -> false);
    claim =
      (fun c ->
        match
          Class_store.visit store ~marking:(marking c)
            ~domain:c.State_class.domain
        with
        | Class_store.Fresh -> Search.Fresh
        | Class_store.Duplicate -> Search.Seen
        | Class_store.Subsumed -> Search.Subsumed);
    fireable = State_class.firable net;
    forced =
      (fun _ firable ->
        match firable with [ tid ] -> Some tid | [] | _ :: _ -> None);
    branches = order_candidates net;
    advance = State_class.fire net;
    mark = (fun () -> 0);
    restore = ignore;
  }

let find_schedule ?(max_stored = 500_000) ?(subsume = true)
    ?(cancel = Search.no_cancel) model =
  let subsume = subsume && subsumption_applicable model in
  let store = Class_store.create ~subsume () in
  let outcome, metrics =
    Search.explore ~engine:"classes"
      ~args:[ ("subsume", Ezrt_obs.Trace.Str (string_of_bool subsume)) ]
      ~max_stored ~cancel (semantics model store)
  in
  let bump name help v =
    Ezrt_obs.Metrics.add
      (Ezrt_obs.Metrics.counter ~help ~labels:[ ("engine", "classes") ] name)
      v
  in
  bump "ezrt_class_store_entries_total" "Canonical domains stored"
    (Class_store.length store);
  bump "ezrt_class_subsumed_total"
    "Classes pruned by inclusion in an already-explored domain"
    metrics.subsumed;
  let outcome =
    match outcome with
    | Ok path -> (
      match extract model.Translate.net path with
      | Some schedule -> Ok schedule
      | None -> Error Extraction_failed)
    | Error Search.Infeasible -> Error Infeasible
    | Error Search.Budget_exhausted -> Error Budget_exhausted
  in
  (outcome, metrics)
