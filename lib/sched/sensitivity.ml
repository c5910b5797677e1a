module Spec = Ezrt_spec.Spec
module Task = Ezrt_spec.Task

type row = {
  task : string;
  wcet : int;
  max_wcet : int;
  margin : int;
}

type t = {
  rows : row list;
  syntheses : int;
}

let with_wcet spec task_id wcet =
  {
    spec with
    Spec.tasks =
      List.map
        (fun (t : Task.t) ->
          if String.equal t.Task.id task_id then { t with Task.wcet } else t)
        spec.Spec.tasks;
  }

(* One probe, counted in [syntheses]: the candidate validates and the
   discrete engine finds it a certified schedule. *)
let schedulable ?(options = Search.default_options) syntheses candidate =
  incr syntheses;
  match
    Result.bind (Pipeline.translate candidate)
      (Pipeline.solve ~engine:(Pipeline.Discrete options))
  with
  | Ok { Pipeline.verdict = Pipeline.Certified _; _ } -> true
  | Ok _ | Error _ -> false

let analyze ?options ?(limit_factor = 16) spec =
  let syntheses = ref 0 in
  let schedulable = schedulable ?options syntheses in
  if not (Ezrt_spec.Validate.is_valid spec) then
    Error "specification does not validate"
  else if not (schedulable spec) then
    Error "specification is not schedulable as given"
  else begin
    let rows =
      List.map
        (fun (task : Task.t) ->
          (* a feasible WCET can never exceed the window d - r, and the
             utilization ceiling caps it too; binary search on the
             monotone feasibility predicate *)
          let hard_cap =
            min
              (task.Task.deadline - task.Task.release)
              (limit_factor * task.Task.wcet)
          in
          let ok c = schedulable (with_wcet spec task.Task.id c) in
          let rec search lo hi =
            (* invariant: ok lo, not (ok (hi + 1)) or hi = cap *)
            if lo >= hi then lo
            else
              let mid = (lo + hi + 1) / 2 in
              if ok mid then search mid hi else search lo (mid - 1)
          in
          let max_wcet = search task.Task.wcet hard_cap in
          {
            task = task.Task.name;
            wcet = task.Task.wcet;
            max_wcet;
            margin = max_wcet - task.Task.wcet;
          })
        spec.Spec.tasks
    in
    Ok { rows; syntheses = !syntheses }
  end

type deadline_row = {
  d_task : string;
  deadline : int;
  min_deadline : int;
  d_margin : int;
}

type deadline_report = {
  d_rows : deadline_row list;
  d_syntheses : int;
}

let with_deadline spec task_id deadline =
  {
    spec with
    Spec.tasks =
      List.map
        (fun (t : Task.t) ->
          if String.equal t.Task.id task_id then { t with Task.deadline }
          else t)
        spec.Spec.tasks;
  }

let deadline_margins ?options spec =
  let syntheses = ref 0 in
  let schedulable = schedulable ?options syntheses in
  if not (Ezrt_spec.Validate.is_valid spec) then
    Error "specification does not validate"
  else if not (schedulable spec) then
    Error "specification is not schedulable as given"
  else begin
    let d_rows =
      List.map
        (fun (task : Task.t) ->
          (* feasibility is monotone in the deadline: search for the
             smallest feasible one in [r + c, d] *)
          let floor = task.Task.release + task.Task.wcet in
          let ok d = schedulable (with_deadline spec task.Task.id d) in
          let rec search lo hi =
            (* invariant: ok hi, not (ok (lo - 1)) or lo = floor *)
            if lo >= hi then hi
            else
              let mid = (lo + hi) / 2 in
              if ok mid then search lo mid else search (mid + 1) hi
          in
          let min_deadline = search floor task.Task.deadline in
          {
            d_task = task.Task.name;
            deadline = task.Task.deadline;
            min_deadline;
            d_margin = task.Task.deadline - min_deadline;
          })
        spec.Spec.tasks
    in
    Ok { d_rows; d_syntheses = !syntheses }
  end

let pp_deadlines fmt t =
  Format.fprintf fmt "%-10s %9s %13s %7s@." "task" "deadline" "min-deadline"
    "margin";
  List.iter
    (fun row ->
      Format.fprintf fmt "%-10s %9d %13d %7d@." row.d_task row.deadline
        row.min_deadline row.d_margin)
    t.d_rows;
  Format.fprintf fmt "(%d syntheses)@." t.d_syntheses

let pp fmt t =
  Format.fprintf fmt "%-10s %6s %9s %7s@." "task" "wcet" "max-wcet" "margin";
  List.iter
    (fun row ->
      Format.fprintf fmt "%-10s %6d %9d %7d@." row.task row.wcet row.max_wcet
        row.margin)
    t.rows;
  Format.fprintf fmt "(%d syntheses)@." t.syntheses
