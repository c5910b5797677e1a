(* Analytic schedulability: sound quick-reject via necessary
   conditions on the task parameters, sound quick-accept via an EDF
   simulation replayed on the translated net.

   Everything here decides *before* any search runs, so the arithmetic
   must be honest on adversarial inputs: absolute times are computed
   with saturating operations (never wrap), and window enumerations
   are capped — evaluating fewer windows only weakens the reject, it
   never unsounds it. *)

module Spec = Ezrt_spec.Spec
module Task = Ezrt_spec.Task
module Message = Ezrt_spec.Message
module Translate = Ezrt_blocks.Translate
module Meaning = Ezrt_blocks.Meaning
module State = Ezrt_tpn.State

let sat_add = Spec.sat_add
let sat_mul = Spec.sat_mul

(* floor/ceil division for a possibly negative numerator, b > 0 *)
let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b)
let cdiv a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

(* --- witnesses ------------------------------------------------------- *)

type witness =
  | Negative_laxity of {
      task : string;
      instance : int;
      ready : int;
      wcet : int;
      deadline : int;
    }
  | Demand_overload of { t1 : int; t2 : int; demand : int; capacity : int }
  | Chain_overrun of {
      task : string;
      instance : int;
      chain : string list;
      earliest_finish : int;
      deadline : int;
    }
  | Exclusion_conflict of {
      task_a : string;
      instance_a : int;
      task_b : string;
      instance_b : int;
      forward_finish : int;
      deadline_b : int;
      backward_finish : int;
      deadline_a : int;
    }
  | Edf_overload of { task : string; instance : int; time : int }

let witness_kind = function
  | Negative_laxity _ -> "negative-laxity"
  | Demand_overload _ -> "demand-overload"
  | Chain_overrun _ -> "chain-overrun"
  | Exclusion_conflict _ -> "exclusion-conflict"
  | Edf_overload _ -> "edf-overload"

let witness_to_string = function
  | Negative_laxity { task; instance; ready; wcet; deadline } ->
    Printf.sprintf
      "task %s instance %d: window [%d, %d] holds %d < wcet %d" task instance
      ready deadline (deadline - ready) wcet
  | Demand_overload { t1; t2; demand; capacity } ->
    Printf.sprintf "demand %d > capacity %d in window [%d, %d]" demand
      capacity t1 t2
  | Chain_overrun { task; instance; chain; earliest_finish; deadline } ->
    Printf.sprintf
      "chain %s: earliest finish %d > deadline %d of %s instance %d"
      (String.concat " -> " chain)
      earliest_finish deadline task instance
  | Exclusion_conflict
      {
        task_a;
        instance_a;
        task_b;
        instance_b;
        forward_finish;
        deadline_b;
        backward_finish;
        deadline_a;
      } ->
    Printf.sprintf
      "exclusion %s#%d | %s#%d: %s first finishes %s by %d > %d, %s first \
       finishes %s by %d > %d"
      task_a instance_a task_b instance_b task_a task_b forward_finish
      deadline_b task_b task_a backward_finish deadline_a
  | Edf_overload { task; instance; time } ->
    Printf.sprintf
      "EDF (optimal here) leaves %s instance %d unfinished at its deadline %d"
      task instance time

type verdict =
  | Infeasible of witness
  | Feasible of (Ezrt_tpn.Pnet.transition_id * int) list
  | Unknown of string

(* --- absolute instance times ----------------------------------------- *)

let arrival (t : Task.t) k = sat_add t.Task.phase (sat_mul k t.Task.period)
let ready (t : Task.t) k = sat_add (arrival t k) t.Task.release

(* cyclic-executive semantics: every instance must also complete within
   the hyper-period (the net's [tcyc] kills any run that does not) *)
let eff_deadline ~h (t : Task.t) k = min (sat_add (arrival t k) t.Task.deadline) h

(* --- processor demand ------------------------------------------------ *)

(* Instances that must execute entirely inside [t1, t2]: ready >= t1
   and effective deadline <= t2.  Counted in closed form per task, so
   the cost is O(tasks) regardless of instance counts. *)
let demand_h spec ~h ~t1 ~t2 =
  List.fold_left
    (fun acc (t : Task.t) ->
      let n = Task.instances_in t h in
      if n = 0 then acc
      else begin
        let p = t.Task.period in
        let lo = max 0 (cdiv (t1 - t.Task.phase - t.Task.release) p) in
        let hi =
          if t2 >= h then n - 1
          else min (n - 1) (fdiv (t2 - t.Task.phase - t.Task.deadline) p)
        in
        let count = max 0 (hi - lo + 1) in
        sat_add acc (sat_mul count t.Task.wcet)
      end)
    0 spec.Spec.tasks

let demand spec ~t1 ~t2 = demand_h spec ~h:(Spec.hyperperiod spec) ~t1 ~t2

(* --- the relation graph (precedences + messages) --------------------- *)

type graph = {
  index_of : (string, int) Hashtbl.t;
  tasks : Task.t array;
  preds : (int * int) list array;  (** (predecessor, extra delay) *)
  topo : int list option;  (** None when the combined graph has a cycle *)
}

let relation_graph spec =
  let tasks = Array.of_list spec.Spec.tasks in
  let index_of = Hashtbl.create 16 in
  Array.iteri
    (fun i (t : Task.t) -> Hashtbl.replace index_of t.Task.id i)
    tasks;
  let n = Array.length tasks in
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  let edge a b extra =
    match (Hashtbl.find_opt index_of a, Hashtbl.find_opt index_of b) with
    | Some i, Some j ->
      preds.(j) <- (i, extra) :: preds.(j);
      succs.(i) <- j :: succs.(i)
    | _ -> ()
  in
  List.iter (fun (a, b) -> edge a b 0) spec.Spec.precedences;
  List.iter
    (fun (m : Message.t) ->
      edge m.Message.sender m.Message.receiver (Message.duration m))
    spec.Spec.messages;
  (* Kahn's algorithm over the tasks that have relations at all *)
  let indeg = Array.map List.length preds in
  let queue = Queue.create () in
  let involved = Array.make n false in
  Array.iteri
    (fun i _ ->
      if preds.(i) <> [] || succs.(i) <> [] then involved.(i) <- true)
    preds;
  Array.iteri
    (fun i d -> if involved.(i) && d = 0 then Queue.add i queue)
    indeg;
  let order = ref [] in
  let emitted = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order := i :: !order;
    incr emitted;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j queue)
      succs.(i)
  done;
  let total_involved =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 involved
  in
  let topo = if !emitted = total_involved then Some (List.rev !order) else None in
  { index_of; tasks; preds; topo }

(* Earliest-finish bounds of instance [k] along the relation DAG: a
   task cannot start before its own ready time nor before every
   predecessor instance finished (plus the message delay), and its
   finish is at least start + wcet even under preemption (the units
   occupy disjoint time).  Returns per-task (earliest_finish,
   argmax predecessor) for chain recovery. *)
let chain_finishes g k =
  let n = Array.length g.tasks in
  let ef = Array.make n min_int in
  let via = Array.make n (-1) in
  (match g.topo with
  | None -> ()
  | Some order ->
    List.iter
      (fun i ->
        let t = g.tasks.(i) in
        let start = ref (ready t k) in
        List.iter
          (fun (j, extra) ->
            let cand = sat_add ef.(j) extra in
            if cand > !start then begin
              start := cand;
              via.(i) <- j
            end)
          g.preds.(i);
        ef.(i) <- sat_add !start t.Task.wcet)
      order);
  (ef, via)

(* --- quick-reject ---------------------------------------------------- *)

(* enumeration budgets: sound to lower, they only skip windows *)
let max_demand_pairs = 200_000
let max_time_points = 10_000
let max_chain_rows = 200_000
let max_exclusion_checks = 50_000

let laxity_reject ~h tasks =
  let witness (t : Task.t) k =
    let r = ready t k and d = eff_deadline ~h t k in
    if d - r < t.Task.wcet then
      Some
        (Negative_laxity
           {
             task = t.Task.name;
             instance = k;
             ready = r;
             wcet = t.Task.wcet;
             deadline = d;
           })
    else None
  in
  Array.fold_left
    (fun acc (t : Task.t) ->
      match acc with
      | Some _ -> acc
      | None -> (
        match witness t 0 with
        | Some _ as w -> w
        | None ->
          if h = max_int then None
          else
            (* the last instance is the one the horizon can clip *)
            let n = Task.instances_in t h in
            if n > 1 then witness t (n - 1) else None))
    None tasks

let demand_reject spec ~h tasks =
  let points f =
    let out = ref [] in
    let per_task =
      max 1 (max_time_points / max 1 (Array.length tasks))
    in
    Array.iter
      (fun (t : Task.t) ->
        let n = Task.instances_in t h in
        let stride = max 1 (cdiv n per_task) in
        let k = ref 0 in
        while !k < n do
          out := f t !k :: !out;
          k := !k + stride
        done;
        (* the clipped tail matters most, keep it exact *)
        if n > 0 then out := f t (n - 1) :: !out)
      tasks;
    List.sort_uniq compare !out
  in
  let t1s = points ready in
  let t1s = if List.mem 0 t1s then t1s else 0 :: t1s in
  let t2s =
    points (fun t k -> eff_deadline ~h t k) @ [ h ] |> List.sort_uniq compare
  in
  (* cap the pair count by thinning the start points (0 is kept) *)
  let t1s =
    let n1 = List.length t1s and n2 = List.length t2s in
    if n1 * n2 <= max_demand_pairs then t1s
    else begin
      let keep = max 1 (max_demand_pairs / n2) in
      let stride = max 1 (cdiv n1 keep) in
      List.filteri (fun i _ -> i mod stride = 0) t1s
    end
  in
  List.fold_left
    (fun acc t1 ->
      match acc with
      | Some _ -> acc
      | None ->
        List.fold_left
          (fun acc t2 ->
            match acc with
            | Some _ -> acc
            | None when t1 < t2 ->
              let d = demand_h spec ~h ~t1 ~t2 in
              if d > t2 - t1 then
                Some (Demand_overload { t1; t2; demand = d; capacity = t2 - t1 })
              else None
            | None -> None)
          None t2s)
    None t1s

let chain_reject spec ~h =
  let g = relation_graph spec in
  match g.topo with
  | None -> None  (* cyclic relation graph: out of this check's fragment *)
  | Some order when order <> [] ->
    let max_n =
      List.fold_left
        (fun acc i -> max acc (Task.instances_in g.tasks.(i) h))
        0 order
    in
    let rows = List.length order in
    let k_cap =
      if sat_mul max_n rows > max_chain_rows then max_chain_rows / max 1 rows
      else max_n
    in
    let result = ref None in
    let k = ref 0 in
    while !result = None && !k < k_cap do
      let ef, via = chain_finishes g !k in
      List.iter
        (fun i ->
          if !result = None then begin
            let t = g.tasks.(i) in
            if !k < Task.instances_in t h then begin
              let d = eff_deadline ~h t !k in
              if ef.(i) > d then begin
                let rec walk i acc =
                  let acc = g.tasks.(i).Task.name :: acc in
                  if via.(i) >= 0 then walk via.(i) acc else acc
                in
                result :=
                  Some
                    (Chain_overrun
                       {
                         task = t.Task.name;
                         instance = !k;
                         chain = walk i [];
                         earliest_finish = ef.(i);
                         deadline = d;
                       })
              end
            end
          end)
        order;
      incr k
    done;
    !result
  | Some _ -> None

(* Exclusion serialization: the validator keeps excluded instances'
   whole spans disjoint, so for any pair of instances either a runs
   entirely first or b does.  If neither order can meet the later
   deadline, the pair is a proof of infeasibility. *)
let exclusion_reject spec ~h =
  let tasks = Array.of_list spec.Spec.tasks in
  let index_of = Hashtbl.create 16 in
  Array.iteri
    (fun i (t : Task.t) -> Hashtbl.replace index_of t.Task.id i)
    tasks;
  List.fold_left
    (fun acc (aid, bid) ->
      match acc with
      | Some _ -> acc
      | None -> (
        match (Hashtbl.find_opt index_of aid, Hashtbl.find_opt index_of bid) with
        | Some ai, Some bi ->
          let a = tasks.(ai) and b = tasks.(bi) in
          let ca = a.Task.wcet and cb = b.Task.wcet in
          let na = Task.instances_in a h and nb = Task.instances_in b h in
          let budget = ref max_exclusion_checks in
          let found = ref None in
          let check j k =
            if !found = None && k >= 0 && k < nb && !budget > 0 then begin
              decr budget;
              let ra = ready a j and da = eff_deadline ~h a j in
              let rb = ready b k and db = eff_deadline ~h b k in
              let forward = sat_add ra (sat_add ca cb) in
              let backward = sat_add rb (sat_add cb ca) in
              if forward > db && backward > da then
                found :=
                  Some
                    (Exclusion_conflict
                       {
                         task_a = a.Task.name;
                         instance_a = j;
                         task_b = b.Task.name;
                         instance_b = k;
                         forward_finish = forward;
                         deadline_b = db;
                         backward_finish = backward;
                         deadline_a = da;
                       })
            end
          in
          let j = ref 0 in
          while !found = None && !j < na && !budget > 0 do
            (* only instances of b whose window is near a#j can make
               both orders fail; derive the k band, pad it, and always
               look at the clipped last instance *)
            let ra = ready a !j and da = eff_deadline ~h a !j in
            let x = sat_add ra (sat_add ca cb) in
            let y = da - ca - cb in
            let pb = b.Task.period in
            let k_hi = cdiv (x - b.Task.phase - b.Task.deadline) pb in
            let k_lo = fdiv (y - b.Task.phase - b.Task.release) pb in
            for k = max 0 (k_lo - 1) to min (nb - 1) (k_hi + 1) do
              check !j k
            done;
            check !j 0;
            check !j (nb - 1);
            incr j
          done;
          !found
        | _ -> None))
    None spec.Spec.exclusions

let quick_reject spec =
  let h = Spec.hyperperiod spec in
  let tasks = Array.of_list spec.Spec.tasks in
  match laxity_reject ~h tasks with
  | Some _ as w -> w
  | None ->
    if h = max_int then None  (* saturated horizon: windows mean nothing *)
    else (
      match demand_reject spec ~h tasks with
      | Some _ as w -> w
      | None -> (
        match chain_reject spec ~h with
        | Some _ as w -> w
        | None -> exclusion_reject spec ~h))

(* --- EDF quick-accept ------------------------------------------------ *)

let max_edf_work = 10_000_000

let independent spec =
  spec.Spec.precedences = [] && spec.Spec.exclusions = []
  && spec.Spec.messages = []

let accept_applicable spec =
  independent spec
  && List.for_all
       (fun (t : Task.t) ->
         t.Task.mode = Task.Preemptive && t.Task.wcet >= 1)
       spec.Spec.tasks
  && spec.Spec.tasks <> []
  &&
  let h = Spec.hyperperiod spec in
  h < max_int && sat_mul h (Spec.total_instances spec) <= max_edf_work

type edf_miss = { m_task : int; m_inst : int; m_time : int }

(* Unit-stepped EDF over the hyper-period.  EDF is optimal for
   independent jobs with release times and deadlines on a preemptive
   uniprocessor, so a miss here is a proof of infeasibility, and a
   clean run is a concrete schedule (the occupant per time unit). *)
let edf_sim tasks ~h =
  let acc = ref [] in
  Array.iteri
    (fun i (t : Task.t) ->
      for k = 0 to Task.instances_in t h - 1 do
        acc := (i, k, ready t k, eff_deadline ~h t k, t.Task.wcet) :: !acc
      done)
    tasks;
  let jobs = Array.of_list (List.rev !acc) in
  let m = Array.length jobs in
  let task_of = Array.map (fun (i, _, _, _, _) -> i) jobs in
  let inst_of = Array.map (fun (_, k, _, _, _) -> k) jobs in
  let ready_at = Array.map (fun (_, _, r, _, _) -> r) jobs in
  let dline = Array.map (fun (_, _, _, d, _) -> d) jobs in
  let rem = Array.map (fun (_, _, _, _, c) -> c) jobs in
  let occupant = Array.make h (-1) in
  let miss = ref None in
  let t = ref 0 in
  while !miss = None && !t < h do
    let best = ref (-1) in
    for j = 0 to m - 1 do
      if rem.(j) > 0 then
        if dline.(j) <= !t then begin
          if !miss = None then
            miss :=
              Some
                { m_task = task_of.(j); m_inst = inst_of.(j); m_time = dline.(j) }
        end
        else if ready_at.(j) <= !t then
          if
            !best < 0
            || (dline.(j), task_of.(j), inst_of.(j))
               < (dline.(!best), task_of.(!best), inst_of.(!best))
          then best := j
    done;
    if !miss = None && !best >= 0 then begin
      occupant.(!t) <- task_of.(!best);
      rem.(!best) <- rem.(!best) - 1
    end;
    incr t
  done;
  if !miss = None then
    (* stragglers whose effective deadline is the horizon itself *)
    for j = 0 to m - 1 do
      if rem.(j) > 0 && !miss = None then
        miss :=
          Some { m_task = task_of.(j); m_inst = inst_of.(j); m_time = dline.(j) }
    done;
  match !miss with Some m -> Error m | None -> Ok occupant

(* --- certificate construction by guided replay ----------------------- *)

(* Drive the incremental engine along the EDF timeline: administrative
   transitions fire at their earliest time, each Unit_grab fires at
   the next time unit EDF gave its task, and the deadline-miss /
   cycle-overrun transitions are never chosen.  Every firing is
   validated by the TPN semantics itself ([fire] raises on anything
   illegal), so a desync degrades to an error, never to a bogus
   certificate. *)
let guided_replay model occupant =
  let net = model.Translate.net in
  let meanings = model.Translate.meanings in
  let h = Array.length occupant in
  let e = State.Incremental.create net in
  let limit = Translate.minimum_firings model + 8 in
  let actions = ref [] in
  let exception Stuck of string in
  try
    let steps = ref 0 in
    while State.Incremental.tokens e model.Translate.final_place = 0 do
      if !steps > limit then raise (Stuck "firing-count limit exceeded");
      incr steps;
      let now = State.Incremental.now e in
      let best = ref None in
      let consider target rank tid =
        match !best with
        | Some (bt, br, btid) when (bt, br, btid) <= (target, rank, tid) -> ()
        | _ -> best := Some (target, rank, tid)
      in
      List.iter
        (fun tid ->
          match meanings.(tid) with
          | Meaning.Deadline_miss _ | Meaning.Cycle_overrun -> ()
          | Meaning.Grab _ | Meaning.Excl_grab _ ->
            (* non-preemptive / exclusion structure is outside the
               quick-accept fragment *)
            raise (Stuck "unexpected non-preemptive structure")
          | Meaning.Unit_grab i ->
            let u = ref now in
            while !u < h && occupant.(!u) <> i do incr u done;
            if !u < h then consider !u 1 tid
          | _ -> consider (now + State.Incremental.dlb e tid) 0 tid)
        (State.Incremental.fireable e);
      match !best with
      | None -> raise (Stuck "no admissible fireable transition")
      | Some (target, _, tid) ->
        let q = target - now in
        State.Incremental.fire e tid q;
        actions := (tid, q) :: !actions
    done;
    Ok (List.rev !actions)
  with
  | Stuck msg -> Error msg
  | Invalid_argument msg -> Error msg

(* --- witness re-evaluation ------------------------------------------- *)

let witness_holds spec w =
  let h = Spec.hyperperiod spec in
  let by_name name =
    List.find_opt
      (fun (t : Task.t) -> String.equal t.Task.name name)
      spec.Spec.tasks
  in
  match w with
  | Negative_laxity { task; instance; ready = r; wcet; deadline } -> (
    match by_name task with
    | Some t ->
      instance >= 0
      && instance < Task.instances_in t h
      && ready t instance = r
      && eff_deadline ~h t instance = deadline
      && t.Task.wcet = wcet
      && deadline - r < wcet
    | None -> false)
  | Demand_overload { t1; t2; demand = dm; capacity } ->
    capacity = t2 - t1 && demand_h spec ~h ~t1 ~t2 = dm && dm > capacity
  | Chain_overrun { task; instance; chain = _; earliest_finish; deadline } -> (
    match by_name task with
    | Some t -> (
      let g = relation_graph spec in
      match Hashtbl.find_opt g.index_of t.Task.id with
      | Some i when g.topo <> None && instance >= 0
                    && instance < Task.instances_in t h ->
        let ef, _ = chain_finishes g instance in
        ef.(i) = earliest_finish
        && eff_deadline ~h t instance = deadline
        && earliest_finish > deadline
      | _ -> false)
    | None -> false)
  | Exclusion_conflict
      {
        task_a;
        instance_a;
        task_b;
        instance_b;
        forward_finish;
        deadline_b;
        backward_finish;
        deadline_a;
      } -> (
    match (by_name task_a, by_name task_b) with
    | Some a, Some b ->
      Spec.excludes spec a.Task.id b.Task.id
      && instance_a >= 0
      && instance_a < Task.instances_in a h
      && instance_b >= 0
      && instance_b < Task.instances_in b h
      && forward_finish
         = sat_add (ready a instance_a) (sat_add a.Task.wcet b.Task.wcet)
      && backward_finish
         = sat_add (ready b instance_b) (sat_add b.Task.wcet a.Task.wcet)
      && deadline_a = eff_deadline ~h a instance_a
      && deadline_b = eff_deadline ~h b instance_b
      && forward_finish > deadline_b
      && backward_finish > deadline_a
    | _ -> false)
  | Edf_overload { task; instance; time } -> (
    accept_applicable spec
    &&
    let tasks = Array.of_list spec.Spec.tasks in
    match edf_sim tasks ~h with
    | Error m ->
      tasks.(m.m_task).Task.name = task
      && m.m_inst = instance && m.m_time = time
    | Ok _ -> false)

(* --- the analyzer ----------------------------------------------------- *)

let count_verdict verdict =
  Ezrt_obs.Metrics.incr
    (Ezrt_obs.Metrics.counter ~help:"Analytic schedulability verdicts"
       ~labels:[ ("verdict", verdict) ]
       "ezrt_analysis_verdicts_total")

let count_reject w =
  Ezrt_obs.Metrics.incr
    (Ezrt_obs.Metrics.counter
       ~help:"Analytic quick-rejects by violated condition"
       ~labels:[ ("condition", witness_kind w) ]
       "ezrt_analysis_rejects_total")

let analyze model =
  let spec = model.Translate.spec in
  Ezrt_obs.Trace.begin_span ~cat:"analysis" "analysis";
  let verdict =
    match quick_reject spec with
    | Some w -> Infeasible w
    | None ->
      if accept_applicable spec then (
        match edf_sim model.Translate.tasks ~h:model.Translate.horizon with
        | Error m ->
          Infeasible
            (Edf_overload
               {
                 task = model.Translate.tasks.(m.m_task).Task.name;
                 instance = m.m_inst;
                 time = m.m_time;
               })
        | Ok occupant -> (
          match guided_replay model occupant with
          | Ok actions -> Feasible actions
          | Error why -> Unknown ("EDF certificate replay failed: " ^ why)))
      else
        Unknown
          "outside the analytic fragment (relations, messages, \
           non-preemptive tasks or an oversized hyper-period)"
  in
  (match verdict with
  | Infeasible w ->
    count_verdict "infeasible";
    count_reject w
  | Feasible _ -> count_verdict "feasible"
  | Unknown _ -> count_verdict "unknown");
  Ezrt_obs.Trace.end_span ~cat:"analysis"
    ~args:
      [
        ( "verdict",
          Ezrt_obs.Trace.Str
            (match verdict with
            | Infeasible _ -> "infeasible"
            | Feasible _ -> "feasible"
            | Unknown _ -> "unknown") );
      ]
    "analysis";
  verdict
