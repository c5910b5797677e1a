module Translate = Ezrt_blocks.Translate
module Task = Ezrt_spec.Task
module Spec = Ezrt_spec.Spec
module Message = Ezrt_spec.Message

type violation =
  | Wrong_instance_count of string * int * int
  | Wrong_amount of string * int * int * int
  | Started_before_release of string * int * int * int
  | Missed_deadline of string * int * int * int
  | Fragmented_non_preemptive of string * int
  | Processor_overlap of string * string * int
  | Precedence_violated of string * string * int
  | Exclusion_interleaved of string * string * int
  | Message_too_early of string * int

let violation_to_string = function
  | Wrong_instance_count (t, want, got) ->
    Printf.sprintf "%s: expected %d executed instances, found %d" t want got
  | Wrong_amount (t, k, want, got) ->
    Printf.sprintf "%s#%d: executed %d units instead of %d" t k got want
  | Started_before_release (t, k, lo, got) ->
    Printf.sprintf "%s#%d: started at %d before earliest release %d" t k got lo
  | Missed_deadline (t, k, d, got) ->
    Printf.sprintf "%s#%d: completed at %d after deadline %d" t k got d
  | Fragmented_non_preemptive (t, k) ->
    Printf.sprintf "%s#%d: non-preemptive instance executed in pieces" t k
  | Processor_overlap (a, b, time) ->
    Printf.sprintf "%s and %s both hold the processor at %d" a b time
  | Precedence_violated (a, b, k) ->
    Printf.sprintf "precedence %s -> %s violated for instance %d" a b k
  | Exclusion_interleaved (a, b, time) ->
    Printf.sprintf "exclusion %s -- %s interleaved around time %d" a b time
  | Message_too_early (b, k) ->
    Printf.sprintf "%s#%d started before its input message was delivered" b k

(* Segments of one instance, plus its span. *)
type instance_run = {
  segs : Timeline.segment list;  (* in start order *)
  first_start : int;
  last_finish : int;
  executed : int;
}

let group_instances model segments =
  let n = Array.length model.Translate.tasks in
  let table = Hashtbl.create 64 in
  List.iter
    (fun (seg : Timeline.segment) ->
      let key = (seg.Timeline.task, seg.Timeline.instance) in
      let old = Option.value (Hashtbl.find_opt table key) ~default:[] in
      Hashtbl.replace table key (seg :: old))
    segments;
  let runs = Array.make n [] in
  Hashtbl.iter
    (fun (task, instance) segs ->
      let segs =
        List.sort (fun a b -> compare a.Timeline.start b.Timeline.start) segs
      in
      let first = List.hd segs in
      let last = List.nth segs (List.length segs - 1) in
      let run =
        {
          segs;
          first_start = first.Timeline.start;
          last_finish = last.Timeline.finish;
          executed = Timeline.busy_time segs;
        }
      in
      runs.(task) <- (instance, run) :: runs.(task))
    table;
  Array.map (fun l -> List.sort compare l) runs

let check model segments =
  let violations = ref [] in
  let report v = violations := v :: !violations in
  let tasks = model.Translate.tasks in
  let name i = tasks.(i).Task.name in
  let runs = group_instances model segments in
  (* Per-instance timing. *)
  Array.iteri
    (fun i per_task ->
      let task = tasks.(i) in
      let expected = model.Translate.instance_counts.(i) in
      if List.length per_task <> expected then
        report (Wrong_instance_count (name i, expected, List.length per_task));
      List.iter
        (fun (k, run) ->
          let arrival = task.Task.phase + (k * task.Task.period) in
          if run.executed <> task.Task.wcet then
            report (Wrong_amount (name i, k, task.Task.wcet, run.executed));
          let earliest = arrival + task.Task.release in
          if run.first_start < earliest then
            report (Started_before_release (name i, k, earliest, run.first_start));
          let deadline = arrival + task.Task.deadline in
          if run.last_finish > deadline then
            report (Missed_deadline (name i, k, deadline, run.last_finish));
          if task.Task.mode = Task.Non_preemptive && List.length run.segs > 1
          then report (Fragmented_non_preemptive (name i, k)))
        per_task)
    runs;
  (* Mutual exclusion of the processor. *)
  let ordered =
    List.sort
      (fun a b -> compare a.Timeline.start b.Timeline.start)
      segments
  in
  let rec overlap = function
    | a :: (b :: _ as rest) ->
      if b.Timeline.start < a.Timeline.finish then
        report
          (Processor_overlap
             (name a.Timeline.task, name b.Timeline.task, b.Timeline.start));
      overlap rest
    | [ _ ] | [] -> ()
  in
  overlap ordered;
  (* Relations. *)
  let run_of i k = List.assoc_opt k runs.(i) in
  let spec = model.Translate.spec in
  List.iter
    (fun (a, b) ->
      let ia = Translate.task_index model a
      and ib = Translate.task_index model b in
      List.iter
        (fun (k, run_b) ->
          match run_of ia k with
          | Some run_a when run_a.last_finish <= run_b.first_start -> ()
          | Some _ | None -> report (Precedence_violated (name ia, name ib, k)))
        runs.(ib))
    spec.Spec.precedences;
  List.iter
    (fun (a, b) ->
      let ia = Translate.task_index model a
      and ib = Translate.task_index model b in
      List.iter
        (fun (_, run_a) ->
          List.iter
            (fun (_, run_b) ->
              let disjoint =
                run_a.last_finish <= run_b.first_start
                || run_b.last_finish <= run_a.first_start
              in
              if not disjoint then
                report
                  (Exclusion_interleaved
                     (name ia, name ib, max run_a.first_start run_b.first_start)))
            runs.(ib))
        runs.(ia))
    spec.Spec.exclusions;
  List.iter
    (fun (m : Message.t) ->
      let ia = Translate.task_index model m.Message.sender
      and ib = Translate.task_index model m.Message.receiver in
      List.iter
        (fun (k, run_b) ->
          match run_of ia k with
          | Some run_a
            when run_a.last_finish + Message.duration m <= run_b.first_start ->
            ()
          | Some _ | None -> report (Message_too_early (name ib, k)))
        runs.(ib))
    spec.Spec.messages;
  match List.rev !violations with [] -> Ok () | vs -> Error vs

type certification_failure =
  | Replay_error of string
  | Wrong_final_marking
  | Violations of violation list

let certification_failure_to_string = function
  | Replay_error msg -> Printf.sprintf "schedule does not replay: %s" msg
  | Wrong_final_marking -> "replayed schedule does not reach the final marking"
  | Violations vs ->
    String.concat "; " (List.map violation_to_string vs)

let certify model schedule =
  match Schedule.replay model.Translate.net schedule with
  | exception Invalid_argument msg -> Error (Replay_error msg)
  | final ->
    if not (Translate.is_final model final) then Error Wrong_final_marking
    else (
      match Timeline.of_schedule model schedule with
      | exception Invalid_argument msg -> Error (Replay_error msg)
      | segments -> (
        match check model segments with
        | Ok () -> Ok segments
        | Error vs -> Error (Violations vs)))
