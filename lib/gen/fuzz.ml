module Spec = Ezrt_spec.Spec
module Dsl = Ezrt_spec.Dsl
module Pipeline = Ezrt_sched.Pipeline

type divergent = {
  index : int;
  spec : Spec.t;
  divergences : Differ.divergence list;
  shrunk : Spec.t;
}

type stats = {
  seed : int;
  count : int;
  generated : int;
  feasible : int;
  infeasible : int;
  unknown : int;
  divergent : divergent list;
  elapsed_s : float;
}

let class_verdict (report : Differ.report) =
  List.find_opt (fun r -> r.Differ.engine = "classes") report.Differ.results
  |> Option.map (fun r -> r.Differ.verdict)

(* Per-spec observability: one verdict counter bump per engine result,
   so campaigns expose which engine said what how often. *)
let obs_spec_result (report : Differ.report) =
  let open Ezrt_obs in
  List.iter
    (fun (r : Differ.engine_result) ->
      let verdict =
        match r.Differ.verdict with
        | Pipeline.Certified _ -> "feasible"
        | Pipeline.Infeasible _ -> "infeasible"
        | Pipeline.Timed_out | Pipeline.Undecided _ -> "unknown"
      in
      Metrics.incr
        (Metrics.counter ~help:"Fuzz verdicts by engine"
           ~labels:[ ("engine", r.Differ.engine); ("verdict", verdict) ]
           "ezrt_fuzz_engine_verdicts_total"))
    report.Differ.results;
  Metrics.incr
    (Metrics.counter ~help:"Fuzzed specifications checked"
       "ezrt_fuzz_specs_total");
  if report.Differ.divergences <> [] then
    Metrics.incr
      (Metrics.counter ~help:"Fuzzed specifications that diverged"
         "ezrt_fuzz_divergent_total")

let run ?(profile = Spec_gen.default) ?max_stored ?engines ?(shrink = true) ?log ~seed ~count () =
  let started = Unix.gettimeofday () in
  let feasible = ref 0 and infeasible = ref 0 and unknown = ref 0 in
  let divergent = ref [] in
  let done_specs = ref 0 in
  let progress_snapshot () =
    let dt = Unix.gettimeofday () -. started in
    Printf.sprintf "fuzz[seed %d]: %d/%d specs, %.1f specs/s, %d divergent"
      seed !done_specs count
      (float_of_int !done_specs /. max 1e-9 dt)
      (List.length !divergent)
  in
  Ezrt_obs.Trace.begin_span ~cat:"fuzz"
    ~args:
      [ ("seed", Ezrt_obs.Trace.Int seed); ("count", Ezrt_obs.Trace.Int count) ]
    "fuzz-campaign";
  Fun.protect
    ~finally:(fun () -> Ezrt_obs.Trace.end_span ~cat:"fuzz" "fuzz-campaign")
  @@ fun () ->
  for index = 0 to count - 1 do
    Ezrt_obs.Trace.begin_span ~cat:"fuzz"
      ~args:[ ("index", Ezrt_obs.Trace.Int index) ]
      "fuzz-spec";
    let spec = Spec_gen.spec_at ~profile ~seed index in
    let report = Differ.check ?max_stored ?engines spec in
    obs_spec_result report;
    (match log with Some f -> f index spec report | None -> ());
    (match class_verdict report with
    | Some (Pipeline.Certified _) -> incr feasible
    | Some (Pipeline.Infeasible _) -> incr infeasible
    | Some (Pipeline.Timed_out | Pipeline.Undecided _) | None -> incr unknown);
    if report.Differ.divergences <> [] then begin
      Ezrt_obs.Trace.instant ~cat:"fuzz" "divergence"
        ~args:[ ("index", Ezrt_obs.Trace.Int index) ];
      let shrunk =
        if shrink then
          Shrink.minimize
            ~failing:(fun s ->
              (Differ.check ?max_stored ?engines s)
                .Differ.divergences
              <> [])
            spec
        else spec
      in
      divergent :=
        { index; spec; divergences = report.Differ.divergences; shrunk }
        :: !divergent
    end;
    Ezrt_obs.Trace.end_span ~cat:"fuzz"
      ~args:[ ("index", Ezrt_obs.Trace.Int index) ]
      "fuzz-spec";
    incr done_specs;
    Ezrt_obs.Progress.checkpoint progress_snapshot
  done;
  {
    seed;
    count;
    generated = count;
    feasible = !feasible;
    infeasible = !infeasible;
    unknown = !unknown;
    divergent = List.rev !divergent;
    elapsed_s = Unix.gettimeofday () -. started;
  }

let specs_per_s stats =
  if stats.elapsed_s > 0.0 then float_of_int stats.generated /. stats.elapsed_s
  else 0.0

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let write_corpus ~dir stats =
  if stats.divergent <> [] then ensure_dir dir;
  List.map
    (fun d ->
      let path =
        Filename.concat dir (Printf.sprintf "div-seed%d-i%d.xml" stats.seed d.index)
      in
      Dsl.save_file path d.shrunk;
      path)
    stats.divergent
