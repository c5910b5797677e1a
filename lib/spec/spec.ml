type t = {
  name : string;
  disp_overhead : int;
  tasks : Task.t list;
  processors : Processor.t list;
  messages : Message.t list;
  precedences : (string * string) list;
  exclusions : (string * string) list;
}

let normalize_exclusion (a, b) = if String.compare a b <= 0 then (a, b) else (b, a)

let make ?(disp_overhead = 0) ?processors ?(messages = [])
    ?(precedences = []) ?(exclusions = []) ~name ~tasks () =
  let processors =
    match processors with
    | Some ps -> ps
    | None -> [ Processor.make "cpu0" ]
  in
  let exclusions =
    List.sort_uniq compare (List.map normalize_exclusion exclusions)
  in
  { name; disp_overhead; tasks; processors; messages; precedences; exclusions }

let find_task spec id =
  List.find_opt (fun (t : Task.t) -> String.equal t.Task.id id) spec.tasks

(* Saturating arithmetic on non-negative operands: adversarial period
   sets (large coprime periods) make the hyper-period and the derived
   instance counts exceed [max_int], and a silently wrapped negative
   horizon would poison every downstream consumer.  Saturating to
   [max_int] keeps all comparisons honest and is detectable
   ([hyperperiod spec = max_int]). *)
let sat_add a b = if a > max_int - b then max_int else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let lcm a b =
  if a = max_int || b = max_int then max_int else sat_mul (a / gcd a b) b

let hyperperiod spec =
  match spec.tasks with
  | [] -> invalid_arg "Spec.hyperperiod: no tasks"
  | tasks ->
    List.fold_left
      (fun acc (t : Task.t) ->
        if t.Task.period <= 0 then
          invalid_arg
            (Printf.sprintf "Spec.hyperperiod: task %s has period %d"
               t.Task.name t.Task.period)
        else lcm acc t.Task.period)
      1 tasks

let instance_counts spec =
  let horizon = hyperperiod spec in
  List.map
    (fun (t : Task.t) -> (t.Task.id, Task.instances_in t horizon))
    spec.tasks

let total_instances spec =
  List.fold_left (fun acc (_, n) -> sat_add acc n) 0 (instance_counts spec)

let utilization spec =
  List.fold_left
    (fun acc (t : Task.t) ->
      acc +. (float_of_int t.Task.wcet /. float_of_int t.Task.period))
    0.0 spec.tasks

let drop_task spec id =
  let keeps_pair (a, b) = not (String.equal a id || String.equal b id) in
  {
    spec with
    tasks = List.filter (fun (t : Task.t) -> not (String.equal t.Task.id id)) spec.tasks;
    precedences = List.filter keeps_pair spec.precedences;
    exclusions = List.filter keeps_pair spec.exclusions;
    messages =
      List.filter
        (fun (m : Message.t) ->
          keeps_pair (m.Message.sender, m.Message.receiver))
        spec.messages;
  }

let map_task spec id f =
  {
    spec with
    tasks =
      List.map
        (fun (t : Task.t) -> if String.equal t.Task.id id then f t else t)
        spec.tasks;
  }

let precedes spec a b =
  List.exists (fun (x, y) -> String.equal x a && String.equal y b)
    spec.precedences

let excludes spec a b =
  let pair = normalize_exclusion (a, b) in
  List.exists (fun p -> p = pair) spec.exclusions

let pp fmt spec =
  Format.fprintf fmt "spec %s: %d tasks, H=%d, %d instances, U=%.3f" spec.name
    (List.length spec.tasks) (hyperperiod spec) (total_instances spec)
    (utilization spec)
