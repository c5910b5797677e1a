module Spec = Ezrt_spec.Spec
module Task = Ezrt_spec.Task
module Search = Ezrt_sched.Search
module Pipeline = Ezrt_sched.Pipeline

type row = {
  approach : string;
  feasible : bool;
  detail : string;
}

let runtime_row spec (name, policy) =
  let result = Sim.simulate policy spec in
  let detail =
    match result.Sim.first_miss with
    | None -> Printf.sprintf "%d preemptions" result.Sim.preemptions
    | Some miss ->
      let tasks = Array.of_list spec.Spec.tasks in
      Printf.sprintf "first miss: %s#%d at t=%d"
        tasks.(miss.Sim.task).Task.name miss.Sim.instance miss.Sim.time
  in
  { approach = name; feasible = result.Sim.feasible; detail }

let pre_runtime_row ?(search = Search.default_options) spec =
  let engine = Pipeline.Discrete search in
  let feasible, detail =
    match Result.bind (Pipeline.translate spec) (Pipeline.solve ~engine) with
    | Ok { Pipeline.verdict = Pipeline.Certified _; run = m; _ } ->
      ( true,
        Printf.sprintf "%d states, %.1f ms" m.Search.stored
          (m.Search.elapsed_s *. 1000.) )
    | Ok { verdict; _ } -> (false, Pipeline.verdict_to_string engine verdict)
    | Error e -> (false, Pipeline.error_to_string e)
  in
  { approach = "pre-runtime (dfs)"; feasible; detail }

let run_all ?search spec =
  List.map (runtime_row spec) Sim.all_policies @ [ pre_runtime_row ?search spec ]

let pp fmt rows =
  List.iter
    (fun row ->
      Format.fprintf fmt "  %-18s %-10s %s@." row.approach
        (if row.feasible then "feasible" else "INFEASIBLE")
        row.detail)
    rows
