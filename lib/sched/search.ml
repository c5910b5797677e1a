open Ezrt_tpn
module Translate = Ezrt_blocks.Translate
module Meaning = Ezrt_blocks.Meaning

type options = {
  policy : Priority.policy;
  partial_order : bool;
  latest_release : bool;
  max_stored : int;
  incremental : bool;
}

let default_options =
  { policy = Priority.Edf; partial_order = true; latest_release = false;
    max_stored = 500_000; incremental = true }

type failure =
  | Infeasible
  | Budget_exhausted

let failure_to_string = function
  | Infeasible -> "no feasible schedule exists for the explored choice space"
  | Budget_exhausted -> "stored-state budget exhausted"

let no_cancel () = false

type metrics = {
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

type claim = Fresh | Seen | Subsumed

type ('node, 'step) semantics = {
  root : 'node;
  is_final : 'node -> bool;
  is_dead : 'node -> bool;
  seen : 'node -> bool;
  claim : 'node -> claim;
  fireable : 'node -> Pnet.transition_id list;
  forced : 'node -> Pnet.transition_id list -> 'step option;
  branches : 'node -> Pnet.transition_id list -> 'step list;
  advance : 'node -> 'step -> 'node;
  mark : unit -> int;
  restore : int -> unit;
}

(* --- the kernel ------------------------------------------------------
   The DFS keeps its own unsynchronized counter record (hot path); the
   Ezrt_obs registry receives the totals in one bulk update per search,
   and the progress reporter renders from the live record only when a
   line is due.  With no sink installed all of this is a branch on
   [None] per stored node. *)

type counters = {
  mutable c_stored : int;
  mutable c_visited : int;
  mutable c_eager : int;
  mutable c_backtracks : int;
  mutable c_subsumed : int;
  mutable c_max_depth : int;
}

let flush_metrics ~engine (m : metrics) =
  let open Ezrt_obs in
  let labels = [ ("engine", engine) ] in
  let bump name help v =
    Metrics.add (Metrics.counter ~help ~labels name) v
  in
  bump "ezrt_search_stored_states_total" "Search nodes stored" m.stored;
  bump "ezrt_search_visited_states_total" "Search nodes visited" m.visited;
  bump "ezrt_search_eager_fires_total"
    "Forced immediate firings collapsed without storing a node" m.eager;
  bump "ezrt_search_backtracks_total" "Exhausted search nodes" m.backtracks;
  Metrics.observe
    (Metrics.timer ~help:"Wall-clock time spent in search" ~labels
       "ezrt_search_duration")
    (max 0.0 m.elapsed_s);
  Metrics.record_gc_gauges ()

let explore (type node step) ~engine ~args ~max_stored ~cancel
    (sem : (node, step) semantics) =
  let exception Found of step list in
  let started = Unix.gettimeofday () in
  let c =
    { c_stored = 0; c_visited = 0; c_eager = 0; c_backtracks = 0;
      c_subsumed = 0; c_max_depth = 0 }
  in
  let snapshot () =
    Printf.sprintf "search[%s]: %d stored, %d visited, depth %d, %.0f states/s"
      engine c.c_stored c.c_visited c.c_max_depth
      (float_of_int c.c_visited /. max 1e-9 (Unix.gettimeofday () -. started))
  in
  let budget_hit = ref false in
  (* A forced firing leaves no choice and no time passes, so the node
     it leaves need not become a search node.  Cancel is polled at each
     link, so a long forced chain cannot run past the caller's
     deadline.  A node already in the memo is answered before its
     fireable set is computed: forcedness depends on the state alone
     and only unforced states are claimed, so such a node would have
     reached [claim] and come back [Seen].  [revisit] keeps the rest of
     that path: the depth update and the second cancel poll. *)
  let rec descend depth path n =
    if sem.is_final n || sem.is_dead n then expand depth path n []
    else if cancel () then begin
      budget_hit := true;
      expand depth path n []
    end
    else if sem.seen n then revisit depth
    else
      let fireable = sem.fireable n in
      match sem.forced n fireable with
      | Some step ->
        c.c_eager <- c.c_eager + 1;
        c.c_visited <- c.c_visited + 1;
        descend depth (step :: path) (sem.advance n step)
      | None -> expand depth path n fireable
  and revisit depth =
    if depth > c.c_max_depth then c.c_max_depth <- depth;
    if cancel () then budget_hit := true
  (* A node is claimed at its first visit: the DFS exhausts everything
     below it before any second copy is reached, so skipping copies
     (and subsumed nodes, whose behaviours a claimed node covers) loses
     no witness, and a cycle terminates instead of recursing.
     [fireable] is the node's fireable set, computed once in [descend];
     it is only read once the node is claimed, which a final, dead or
     cancelled node never is.  [claim] only ever follows a [seen] that
     said false on the same node. *)
  and expand depth path n fireable =
    if depth > c.c_max_depth then c.c_max_depth <- depth;
    if sem.is_final n then raise (Found path);
    if cancel () then budget_hit := true;
    if (not (sem.is_dead n)) && not !budget_hit then
      match sem.claim n with
      | Seen -> ()
      | Subsumed -> c.c_subsumed <- c.c_subsumed + 1
      | Fresh when c.c_stored >= max_stored -> budget_hit := true
      | Fresh ->
        c.c_stored <- c.c_stored + 1;
        c.c_visited <- c.c_visited + 1;
        Ezrt_obs.Progress.tick snapshot;
        let steps = sem.branches n fireable in
        let here = sem.mark () in
        List.iter
          (fun step ->
            if not !budget_hit then begin
              descend (depth + 1) (step :: path) (sem.advance n step);
              sem.restore here
            end)
          steps;
        c.c_backtracks <- c.c_backtracks + 1
  in
  Ezrt_obs.Trace.begin_span ~cat:"search"
    ~args:(("engine", Ezrt_obs.Trace.Str engine) :: args)
    "search";
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Ezrt_obs.Trace.end_span ~cat:"search"
          ~args:
            [
              ("stored", Ezrt_obs.Trace.Int c.c_stored);
              ("visited", Ezrt_obs.Trace.Int c.c_visited);
              ("subsumed", Ezrt_obs.Trace.Int c.c_subsumed);
            ]
          "search")
      (fun () ->
        match descend 0 [] sem.root with
        | () -> Error (if !budget_hit then Budget_exhausted else Infeasible)
        | exception Found path -> Ok (List.rev path))
  in
  let metrics =
    {
      stored = c.c_stored;
      visited = c.c_visited;
      eager = c.c_eager;
      backtracks = c.c_backtracks;
      subsumed = c.c_subsumed;
      max_depth = c.c_max_depth;
      elapsed_s = Unix.gettimeofday () -. started;
      por_reduced = 0;
      por_fallback = 0;
      por_skipped = 0;
    }
  in
  flush_metrics ~engine metrics;
  (outcome, metrics)

(* --- the discrete TLTS ----------------------------------------------- *)

let is_immediate net tid =
  let itv = Pnet.interval net tid in
  Time_interval.is_point itv && Time_interval.eft itv = 0

(* a lone [0,0] candidate is forced, under the Lilius-style pruning *)
let forced_step options net fireable =
  if not options.partial_order then None
  else
    match fireable with
    | [ tid ] when is_immediate net tid -> Some (tid, 0)
    | [] | _ :: _ -> None

(* The steps to try, candidate by candidate: the earliest firing time
   always, plus the latest time of release windows when inserted idle
   time is allowed.  Order and domains are read before the first step
   is taken, so an engine that mutates in place can hand them out too. *)
let timed_steps options model ordered domain =
  List.fold_right
    (fun tid steps ->
      let lo, hi = domain tid in
      let latest =
        match hi with
        | Time_interval.Finite hi
          when hi > lo
               && options.latest_release
               && Meaning.is_release model.Translate.meanings.(tid) ->
          (tid, hi) :: steps
        | Time_interval.Finite _ | Time_interval.Infinity -> steps
      in
      (tid, lo) :: latest)
    ordered []

(* The copying engine: immutable states and a [State.Table] memo.  Kept
   as the semantic oracle for the differential tests. *)
let copying options model =
  let net = model.Translate.net in
  let memo = State.Table.create 4096 in
  {
    root = State.initial net;
    is_final = Translate.is_final model;
    is_dead = Translate.is_dead model;
    seen = State.Table.mem memo;
    claim =
      (fun s ->
        State.Table.replace memo s ();
        Fresh);
    fireable = State.fireable net;
    forced = (fun _ fireable -> forced_step options net fireable);
    branches =
      (fun s fireable ->
        timed_steps options model
          (Priority.order options.policy model s fireable)
          (State.firing_domain net s));
    advance = (fun s (tid, q) -> State.fire net s tid q);
    mark = (fun () -> 0);
    restore = ignore;
  }

(* The incremental engine: one mutable [State.Incremental] engine walked
   fire/undo (the node is the engine itself), with a memo of packed
   byte states keyed by the engine's maintained Zobrist word.  [seen]
   writes the node's cells into one reused vector and looks them up in
   place; [claim], which follows it on the same node, packs that vector
   into the memo. *)
let incremental options model =
  let net = model.Translate.net in
  let memo = Packed_state.Memo.create () in
  let eng = State.Incremental.create net in
  let cells = Array.make (Pnet.place_count net + Pnet.transition_count net) 0 in
  let view = Priority.view_of_engine eng in
  let marked p = State.Incremental.tokens eng p > 0 in
  {
    root = ();
    is_final = (fun () -> marked model.Translate.final_place);
    is_dead = (fun () -> List.exists marked model.Translate.dead_places);
    seen =
      (fun () ->
        State.Incremental.write_cells eng cells;
        Packed_state.Memo.mem memo ~hash:(State.Incremental.zhash eng) cells);
    claim =
      (fun () ->
        Packed_state.Memo.add memo ~hash:(State.Incremental.zhash eng) cells;
        Fresh);
    fireable = (fun () -> State.Incremental.fireable eng);
    forced = (fun () fireable -> forced_step options net fireable);
    branches =
      (fun () fireable ->
        timed_steps options model
          (Priority.order_view options.policy model view fireable)
          (State.Incremental.firing_domain eng));
    advance = (fun () (tid, q) -> State.Incremental.fire eng tid q);
    mark = (fun () -> State.Incremental.depth eng);
    restore = State.Incremental.undo_to eng;
  }

let find_schedule ?(options = default_options) ?(cancel = no_cancel) model =
  let run engine sem =
    let outcome, metrics =
      explore ~engine
        ~args:
          [ ("policy", Ezrt_obs.Trace.Str (Priority.to_string options.policy)) ]
        ~max_stored:options.max_stored ~cancel sem
    in
    (Result.map Schedule.of_actions outcome, metrics)
  in
  if options.incremental then
    run "discrete-incremental" (incremental options model)
  else run "discrete-copying" (copying options model)
