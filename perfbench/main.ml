(* Repository benchmark: three single-domain workloads over the
   ezRealtime pipeline (see perfbench/README.md).

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--corpus-seed N] [--record]

   Run from the repository root.  The timed region is a closed loop on
   one domain with one job in flight: no worker pool, no parallel
   engine, no disk tier of the result cache and no printing.  With
   [--trace 0] the run reports the end-to-end metrics; with [--trace 1]
   it replaces each end-to-end call with the layer calls the library
   makes, times each from outside, and reports the per-layer metrics.
   The last line of standard output is one JSON object. *)

open Ezrealtime

let now = Unix.gettimeofday
let inputs_dir = Filename.concat "perfbench" "inputs"
let expected_dir = Filename.concat "perfbench" "expected"
let spans_dir = ".perfbench-out"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- tracing ------------------------------------------------------------ *)

(* Spans stay in memory during the run and are written at exit.  A job
   span has no parent; a layer span's parent is its job's span. *)
type span = {
  name : string;
  job : int;
  start : float;
  stop : float;
  alloc : float;  (** bytes allocated inside the span *)
}

let spans : span list ref = ref []
let current_job = ref 0

let record name ~start ~stop ~alloc =
  spans := { name; job = !current_job; start; stop; alloc } :: !spans

(* Bytes allocated so far.  [Gc.minor_words] is exact; the statistics
   behind [Gc.allocated_bytes] only catch up at a minor collection. *)
let allocated () =
  let s = Gc.quick_stat () in
  (Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let layer name f =
  let a0 = allocated () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  record name ~start:t0 ~stop:t1 ~alloc:(allocated () -. a0);
  r

let layer_if on name f = if on then layer name f else f ()

(* Counts read at the layer boundaries of the traced run. *)
type counts = {
  mutable places : int;
  mutable transitions : int;
  mutable diagnostics : int;
  mutable certificates : int;
  mutable s_visited : int;
  mutable s_stored : int;
  mutable s_backtracks : int;
  mutable por_reduced : int;
  mutable por_other : int;
  mutable c_visited : int;
  mutable c_stored : int;
  mutable c_subsumed : int;
  mutable analyses : int;
  mutable decided : int;
  mutable configs_started : int;
  mutable loser_stored : int;
  mutable race_stored : int;
  mutable c_bytes : int;
  mutable table_rows : int;
  mutable finds : int;
  mutable hits : int;
  mutable invalid : int;
}

let counts =
  {
    places = 0; transitions = 0; diagnostics = 0; certificates = 0;
    s_visited = 0; s_stored = 0; s_backtracks = 0; por_reduced = 0;
    por_other = 0; c_visited = 0; c_stored = 0; c_subsumed = 0;
    analyses = 0; decided = 0; configs_started = 0; loser_stored = 0;
    race_stored = 0; c_bytes = 0; table_rows = 0; finds = 0; hits = 0;
    invalid = 0;
  }

let count_translate (m : Translate.t) =
  counts.places <- counts.places + Pnet.place_count m.Translate.net;
  counts.transitions <- counts.transitions + Pnet.transition_count m.Translate.net

let count_search (m : Search.metrics) =
  counts.s_visited <- counts.s_visited + m.Search.visited;
  counts.s_stored <- counts.s_stored + m.Search.stored;
  counts.s_backtracks <- counts.s_backtracks + m.Search.backtracks;
  counts.por_reduced <- counts.por_reduced + m.Search.por_reduced;
  counts.por_other <-
    counts.por_other + m.Search.por_fallback + m.Search.por_skipped

let count_classes (m : Class_search.metrics) =
  counts.c_visited <- counts.c_visited + m.Class_search.visited;
  counts.c_stored <- counts.c_stored + m.Class_search.stored;
  counts.c_subsumed <- counts.c_subsumed + m.Class_search.subsumed

(* --- job results ---------------------------------------------------------- *)

type result = {
  verdict : string;  (** compared with the committed expected verdict *)
  detail : string;  (** compared between the traced and untraced runs *)
  valid : bool;  (** certificate or witness re-checked by the benchmark *)
  c_bytes : int;  (** bytes of C the schedule generates; 0 without one *)
}

type job = {
  label : string;  (** job type: one band of the latency distribution *)
  expected : string option;
  run : unit -> unit -> result;
      (** the timed call; the closure it returns checks the result,
          outside the timed region *)
}

let emit_bytes model segments =
  String.length (Emit.program model (Table.of_segments segments))

(* A found schedule, certified by the benchmark itself. *)
let certified_result ~verdict model schedule =
  match Validator.certify model schedule with
  | Ok segments ->
    let c_bytes = emit_bytes model segments in
    {
      verdict;
      detail =
        Printf.sprintf "%s firings=%d makespan=%d c=%d" verdict
          (Schedule.length schedule) (Schedule.makespan schedule) c_bytes;
      valid = true;
      c_bytes;
    }
  | Error f ->
    {
      verdict;
      detail = Validator.certification_failure_to_string f;
      valid = false;
      c_bytes = 0;
    }

let plain verdict = { verdict; detail = verdict; valid = true; c_bytes = 0 }

let parse xml =
  match Dsl.of_string xml with
  | Ok spec -> spec
  | Error e -> failwith (Dsl.error_to_string e)

(* --- workload: schedule-cases ---------------------------------------------- *)

(* What `ezrt schedule SPEC` does by default: lint pre-pass, then
   [synthesize] with the discrete engine and no analytic pre-pass. *)

let synth_result (r : (artifact, error) Stdlib.result) =
  match r with
  | Ok a ->
    let cert = certified_result ~verdict:"feasible" a.model a.schedule in
    let c_bytes = String.length a.c_program in
    { cert with valid = cert.valid && cert.c_bytes = c_bytes; c_bytes }
  | Error (Invalid_spec _) -> plain "invalid"
  | Error (No_schedule (Search.Infeasible, _)) -> plain "infeasible"
  | Error (No_schedule (Search.Budget_exhausted, _)) -> plain "budget"
  | Error (Not_certified _) ->
    { (plain "uncertified") with valid = false }

let case_job xml () =
  let spec = parse xml in
  ignore (Lint.check_model (Translate.translate spec) : Lint.report);
  let r = synthesize spec in
  fun () -> synth_result r

let traced_translate spec =
  let model = layer "translate" (fun () -> Translate.translate spec) in
  count_translate model;
  model

(* [synthesize], split at the layer calls lib/core/ezrealtime.ml makes. *)
let traced_case_job xml () =
  let spec = layer "dsl" (fun () -> parse xml) in
  let lint_model = traced_translate spec in
  let report = layer "lint" (fun () -> Lint.check_model lint_model) in
  counts.diagnostics <- counts.diagnostics + List.length report.Lint.diagnostics;
  counts.certificates <-
    counts.certificates + List.length report.Lint.certificates;
  let r =
    match layer "validate" (fun () -> (Validate.check spec).Validate.errors) with
    | _ :: _ as errors -> Error (Invalid_spec errors)
    | [] -> (
      let model = traced_translate spec in
      let outcome, metrics =
        layer "search" (fun () -> Search.find_schedule model)
      in
      count_search metrics;
      match outcome with
      | Error f -> Error (No_schedule (f, metrics))
      | Ok schedule -> (
        match
          layer "certify" (fun () ->
              let segments = Timeline.of_schedule model schedule in
              Result.map (fun () -> segments) (Validator.check model segments))
        with
        | Error violations -> Error (Not_certified violations)
        | Ok segments ->
          let table, c_program =
            layer "emit" (fun () ->
                let table = Table.of_segments segments in
                (table, Emit.program model table))
          in
          counts.c_bytes <- counts.c_bytes + String.length c_program;
          counts.table_rows <- counts.table_rows + List.length table;
          Ok { spec; model; schedule; segments; table; c_program; metrics }))
  in
  fun () -> synth_result r

(* --- workload: search-engines ---------------------------------------------- *)

(* Which engines run on which frozen spec.  Classes on large-tight-8 is
   left out: at ~3 s it would be ~80% of a pass. *)
let engine_mix =
  [
    ("mine-pump", [ `Discrete; `Classes ]);
    ("large-tight-8", [ `Discrete ]);
    ("relations", [ `Discrete; `Classes ]);
    ("flight-control", [ `Discrete; `Classes ]);
    ("fuzz-s42-i114", [ `Discrete; `Classes ]);
    ("fuzz-s42-i143", [ `Discrete; `Classes ]);
    ("fuzz-s42-i174", [ `Discrete; `Classes ]);
  ]

let engine_name = function `Discrete -> "discrete" | `Classes -> "classes"

let engine_job ~trace model engine () =
  match engine with
  | `Discrete ->
    let outcome, m = layer_if trace "search" (fun () -> Search.find_schedule model) in
    fun () ->
      count_search m;
      (match outcome with
      | Ok s -> certified_result ~verdict:"feasible" model s
      | Error Search.Infeasible -> plain "infeasible"
      | Error Search.Budget_exhausted -> plain "budget")
  | `Classes ->
    let outcome, m =
      layer_if trace "classes" (fun () -> Class_search.find_schedule model)
    in
    fun () ->
      count_classes m;
      (match outcome with
      | Ok s -> certified_result ~verdict:"feasible" model s
      | Error Class_search.Infeasible -> plain "infeasible"
      | Error Class_search.Budget_exhausted -> plain "budget"
      | Error Class_search.Extraction_failed -> plain "extraction-failed")

(* --- workload: batch-corpus ------------------------------------------------ *)

(* The `ezrt batch` job path on one domain: parse, then [Server.solve]
   behind an in-memory result cache. *)

(* Small enough that every job runs in dozens of cold passes of a run,
   so the median of its runs settles. *)
let corpus_size = 250
let default_corpus_seed = 42

let server_slug = function
  | Server.Feasible _ -> "feasible"
  | Server.Infeasible _ -> "infeasible"
  | Server.Timed_out -> "timed-out"
  | Server.Inconclusive -> "inconclusive"

(* A computed feasible verdict is certified from the cache entry it
   left; cache hits were already re-proved by the cache. *)
let solve_result cache spec = function
  | Error msg -> { (plain "error") with detail = msg; valid = false }
  | Ok (o : Server.outcome) -> (
    let verdict = server_slug o.Server.verdict in
    let line = Server.verdict_line o in
    match o.Server.verdict with
    | Server.Feasible { firings; makespan } when not o.Server.cached -> (
      let model = Translate.translate spec in
      match Result_cache.find cache ~digest:o.Server.digest ~spec ~model with
      | Some (Result_cache.Hit_feasible (schedule, _)) ->
        let r = certified_result ~verdict model schedule in
        {
          r with
          detail = line;
          valid =
            r.valid
            && Schedule.length schedule = firings
            && Schedule.makespan schedule = makespan;
        }
      | Some (Result_cache.Hit_infeasible _) | None ->
        { (plain verdict) with detail = line; valid = false })
    | Server.Infeasible (Some w) ->
      {
        (plain verdict) with
        detail = line;
        valid = Schedulability.witness_holds spec w;
      }
    | _ -> { (plain verdict) with detail = line })

let solve_job cache xml () =
  let spec = parse xml in
  let r = Server.solve ~cache spec in
  fun () -> solve_result cache spec r

(* [Server.solve], split at the layer calls lib/service/server.ml makes.
   [Portfolio] runs the analytic pre-pass itself, so the separate
   [analysis] call measures it and is subtracted from the portfolio's
   self time. *)
let traced_solve cache spec =
  match layer "validate" (fun () -> (Validate.check spec).Validate.errors) with
  | e :: _ -> Error ("invalid specification: " ^ Validate.error_to_string e)
  | [] -> (
    let digest = layer "digest" (fun () -> Spec_digest.digest spec) in
    let model = traced_translate spec in
    let outcome ?(cached = false) verdict =
      Ok
        {
          Server.verdict;
          digest;
          engine = "";
          cached;
          elapsed_ms = 0.;
          stored_states = 0;
        }
    in
    let hit =
      layer "cache.find" (fun () ->
          Result_cache.find cache ~digest ~spec ~model)
    in
    counts.finds <- counts.finds + 1;
    match hit with
    | Some (Result_cache.Hit_feasible (s, _)) ->
      counts.hits <- counts.hits + 1;
      outcome ~cached:true
        (Server.Feasible
           { firings = Schedule.length s; makespan = Schedule.makespan s })
    | Some (Result_cache.Hit_infeasible w) ->
      counts.hits <- counts.hits + 1;
      outcome ~cached:true (Server.Infeasible (Some w))
    | None -> (
      (match layer "analysis" (fun () -> Schedulability.analyze model) with
      | Schedulability.Unknown _ -> ()
      | Schedulability.Infeasible _ | Schedulability.Feasible _ ->
        counts.decided <- counts.decided + 1);
      counts.analyses <- counts.analyses + 1;
      let race =
        layer "portfolio" (fun () ->
            Portfolio.find_schedule ~max_stored:500_000 ~domains:1 model)
      in
      let stored, loser =
        List.fold_left
          (fun (all, lost) (a : Portfolio.attempt) ->
            let s = a.Portfolio.metrics.Search.stored in
            ( all + s,
              if Some a.Portfolio.config = race.Portfolio.winner then lost
              else lost + s ))
          (0, 0) race.Portfolio.attempts
      in
      counts.configs_started <-
        counts.configs_started + race.Portfolio.configs_started;
      counts.race_stored <- counts.race_stored + stored;
      counts.loser_stored <- counts.loser_stored + loser;
      let store verdict =
        let engine =
          match (race.Portfolio.winner, race.Portfolio.prepass) with
          | Some cfg, _ -> Portfolio.config_to_string cfg
          | None, (Portfolio.Prepass_accepted | Portfolio.Prepass_rejected _)
            ->
            "prepass"
          | None, _ -> "portfolio"
        in
        layer "cache.store" (fun () ->
            Result_cache.store cache ~digest
              {
                Result_cache.verdict;
                engine;
                elapsed_ms = race.Portfolio.elapsed_s *. 1000.;
                stored_states = stored;
              })
      in
      match race.Portfolio.outcome with
      | Ok schedule ->
        let net = model.Translate.net in
        store
          (Result_cache.Feasible
             (List.map
                (fun (e : Schedule.entry) ->
                  (Pnet.transition_name net e.Schedule.tid, e.Schedule.delay))
                schedule.Schedule.entries));
        outcome
          (Server.Feasible
             {
               firings = Schedule.length schedule;
               makespan = Schedule.makespan schedule;
             })
      | Error Search.Infeasible -> (
        match race.Portfolio.prepass with
        | Portfolio.Prepass_rejected w ->
          store (Result_cache.Infeasible w);
          outcome (Server.Infeasible (Some w))
        | _ -> outcome (Server.Infeasible None))
      | Error Search.Budget_exhausted -> outcome Server.Inconclusive))

let traced_solve_job cache xml () =
  let spec = layer "dsl" (fun () -> parse xml) in
  let r = traced_solve cache spec in
  fun () -> solve_result cache spec r

(* --- inputs and expected verdicts ------------------------------------------ *)

type expected = {
  mutable fingerprint : string option;
  verdicts : (string, string) Hashtbl.t;  (** job name to verdict *)
}

let expected_path workload = Filename.concat expected_dir (workload ^ ".txt")

let load_expected workload =
  let path = expected_path workload in
  if not (Sys.file_exists path) then die "missing %s" path;
  let e = { fingerprint = None; verdicts = Hashtbl.create 1024 } in
  In_channel.with_open_text path In_channel.input_lines
  |> List.iter (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ "" ] -> ()
         | w :: _ when w.[0] = '#' -> ()
         | [ "fingerprint"; f ] -> e.fingerprint <- Some f
         | [ name; verdict ] -> Hashtbl.replace e.verdicts name verdict
         | _ -> die "%s: bad line %S" path line);
  e

let expected_of (e : expected option) name =
  match e with
  | None -> None
  | Some e -> (
    match Hashtbl.find_opt e.verdicts name with
    | Some v -> Some v
    | None -> die "no expected verdict for job %s" name)

let xml_inputs sub =
  let dir = Filename.concat inputs_dir sub in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xml")
  |> List.sort compare
  |> List.map (fun f ->
         (Filename.chop_suffix f ".xml", read_file (Filename.concat dir f)))

(* The input fingerprint hashes the specs' canonical bytes, not their
   digests, so bumping [Spec_digest.version] does not invalidate it.
   A change to the generator or the DSL reader that alters a workload's
   inputs fails its set-up. *)
let fingerprint specs =
  let b = Buffer.create 65536 in
  List.iter (fun s -> Buffer.add_string b (Spec_digest.canonical_bytes s)) specs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the traced run's caches, for the cache.invalid count *)
let round_caches = ref []

(* A workload: [load] is the set-up (timed for setup_s), [round] builds
   one round's jobs with fresh per-round state such as the cache. *)
type 'i workload = {
  load : expected option -> 'i * string;
      (** the inputs, and the fingerprint of the specs they encode *)
  round : traced:bool -> 'i -> job array;
  rounds_share_cache : bool;
      (** the second pass of a round hits a cache the first filled; its
          latencies are reported by warm_jobs_per_s only *)
}

let schedule_cases =
  {
    load =
      (fun expected ->
        let inputs = xml_inputs "schedule-cases" in
        ( List.map (fun (name, xml) -> (name, xml, expected_of expected name)) inputs,
          fingerprint (List.map (fun (_, xml) -> parse xml) inputs) ));
    round =
      (fun ~traced inputs ->
        Array.of_list
          (List.map
             (fun (name, xml, expected) ->
               {
                 label = name;
                 expected;
                 run = (if traced then traced_case_job xml else case_job xml);
               })
             inputs));
    rounds_share_cache = false;
  }

let search_engines =
  {
    load =
      (fun expected ->
        let inputs = xml_inputs "search-engines" in
        let specs =
          List.map
            (fun (name, engines) ->
              match List.assoc_opt name inputs with
              | None -> die "missing input %s.xml" name
              | Some xml -> (name, parse xml, engines))
            engine_mix
        in
        let models =
          List.map (fun (name, spec, engines) -> (name, Translate.translate spec, engines)) specs
        in
        ( List.concat_map
            (fun (name, model, engines) ->
              List.map
                (fun e ->
                  let job = name ^ "/" ^ engine_name e in
                  (job, model, e, expected_of expected job))
                engines)
            models,
          fingerprint (List.map (fun (_, spec, _) -> spec) specs) ));
    round =
      (fun ~traced inputs ->
        Array.of_list
          (List.map
             (fun (name, model, engine, expected) ->
               { label = name; expected; run = engine_job ~trace:traced model engine })
             inputs));
    rounds_share_cache = false;
  }

let batch_corpus ~corpus_seed =
  {
    load =
      (fun expected ->
        let specs =
          List.init corpus_size (fun i -> Spec_gen.spec_at ~seed:corpus_seed i)
        in
        let xmls = List.map Dsl.to_string specs in
        ( List.mapi
            (fun i xml -> (xml, expected_of expected (string_of_int i)))
            xmls,
          fingerprint specs ));
    round =
      (fun ~traced inputs ->
        let cache =
          Result_cache.create ~capacity:(2 * List.length inputs) ()
        in
        if traced then round_caches := cache :: !round_caches;
        Array.of_list
          (List.map
             (fun (xml, expected) ->
               {
                 label = "spec";
                 expected;
                 run =
                   (if traced then traced_solve_job cache xml
                    else solve_job cache xml);
               })
             inputs));
    rounds_share_cache = true;
  }

(* --- measurement -------------------------------------------------------- *)

(* Two fixed loops, timed at the start and end of each run and printed
   beside the metrics: a diagnostic of host speed, never a metric.  The
   arithmetic loop tracks the processor's clock.  The random walk over
   32 MB misses cache like the workloads do, so it also shows
   contention for the memory system the host shares; its array lives
   outside the OCaml heap, so it leaves peak_heap_mb alone. *)
let sentinel () =
  let timed f =
    let t0 = now () in
    ignore (Sys.opaque_identity (f ()));
    (now () -. t0) *. 1000.
  in
  let alu () =
    let x = ref 1 in
    for i = 1 to 20_000_000 do
      x := ((!x * 1103515245) + i) land 0x3FFFFFFF
    done;
    !x
  in
  let n = 1 lsl 22 in
  let a = Bigarray.(Array1.create int c_layout n) in
  Bigarray.Array1.fill a 1;
  let walk () =
    let j = ref 0 and sum = ref 0 in
    for _ = 1 to 3_000_000 do
      j := ((!j * 1103515245) + 12345) land (n - 1);
      sum := !sum + Bigarray.Array1.unsafe_get a !j
    done;
    !sum
  in
  (timed alu, timed walk)

let permutation ~seed ~pass n =
  let st = Random.State.make [| seed; pass |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type sample = { ms : float; index : int; label : string; cold : bool }

type run = {
  samples : sample list;  (** newest first *)
  attempted : int;
  failed : int;
  passes : int;
  first : result array;  (** first cold pass, by job index *)
  jobs : int;  (** jobs per pass *)
  timed_s : float;
  gc_minor : int;
  gc_major : int;
}

let failed_result =
  { verdict = "exception"; detail = "exception"; valid = false; c_bytes = 0 }

(* Rounds of a cold and a warm pass over the same jobs, until [seconds]
   have passed, every job has run in at least [min_rounds] rounds, and
   p90 has ten samples beyond it.  Each pass has its own job order, so
   no job always follows the same one and inherits its garbage. *)
let min_rounds = 3

let measure ~trace ~seconds ~seed ~make_round =
  let jobs0 = make_round () in
  let n = Array.length jobs0 in
  let first = Array.make n failed_result in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let passes = ref 0 in
  let min_samples = 100 in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let jobs = ref jobs0 in
  while
    now () -. t0 < seconds || !passes < 2 * min_rounds || !attempted < min_samples
  do
    if !passes > 0 then jobs := make_round ();
    List.iter
      (fun cold ->
        let order = permutation ~seed ~pass:!passes n in
        Array.iter
          (fun i ->
            let j = !jobs.(i) in
            incr current_job;
            let start = now () in
            let check = try Some (j.run ()) with _ -> None in
            let stop = now () in
            if trace then record "job" ~start ~stop ~alloc:0.;
            let r =
              match check with
              | None -> failed_result
              | Some c -> ( try c () with _ -> failed_result)
            in
            let ok =
              r.valid
              && match j.expected with Some v -> v = r.verdict | None -> true
            in
            incr attempted;
            if not ok then incr failed;
            if !passes = 0 then first.(i) <- r;
            samples :=
              { ms = (stop -. start) *. 1000.; index = i; label = j.label; cold }
              :: !samples)
          order;
        incr passes)
      [ true; false ]
  done;
  let timed_s = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  {
    samples = !samples;
    attempted = !attempted;
    failed = !failed;
    passes = !passes;
    first;
    jobs = n;
    timed_s;
    gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* --- output ------------------------------------------------------------- *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else die "non-finite metric value"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " body)

let ratio a b = if b = 0. then 0. else a /. b

(* Per-layer metrics from the traced run's spans and counts, per pass. *)
let layer_metrics (run : run) ~span_cost =
  let time = Hashtbl.create 16 and alloc = Hashtbl.create 16 in
  let n_spans = ref 0 in
  List.iter
    (fun s ->
      incr n_spans;
      let add t k v =
        Hashtbl.replace t k (v +. Option.value (Hashtbl.find_opt t k) ~default:0.)
      in
      add time s.name (s.stop -. s.start);
      add alloc s.name s.alloc)
    !spans;
  let sec k = Option.value (Hashtbl.find_opt time k) ~default:0. in
  let mb k = Option.value (Hashtbl.find_opt alloc k) ~default:0. /. 1e6 in
  let passes = float_of_int run.passes in
  let per_pass x = x /. passes in
  let ms k = per_pass (sec k *. 1000.) in
  let count x = per_pass (float_of_int x) in
  (* the separate analysis call duplicates work the portfolio also does *)
  let job_s = sec "job" -. sec "analysis" in
  let layers =
    [ "dsl"; "validate"; "translate"; "lint"; "search"; "classes"; "analysis";
      "portfolio"; "certify"; "emit"; "digest"; "cache.find"; "cache.store" ]
  in
  let self k = if k = "portfolio" then sec k -. sec "analysis" else sec k in
  let attributed = List.fold_left (fun acc k -> acc +. self k) 0. layers in
  let shares = List.map (fun k -> (k, ratio (self k) job_s)) layers in
  let c = counts in
  c.invalid <-
    List.fold_left
      (fun acc k -> acc + (Result_cache.counters k).Result_cache.invalid)
      0 !round_caches;
  let metrics =
    [
      ("dsl.ms", "ms", ms "dsl");
      ("dsl.alloc_mb", "MB", per_pass (mb "dsl"));
      ("validate.ms", "ms", ms "validate");
      ("translate.ms", "ms", ms "translate");
      ("translate.alloc_mb", "MB", per_pass (mb "translate"));
      ("translate.places", "count", count c.places);
      ("translate.transitions", "count", count c.transitions);
      ("lint.ms", "ms", ms "lint");
      ("lint.alloc_mb", "MB", per_pass (mb "lint"));
      ("lint.diagnostics", "count", count c.diagnostics);
      ("lint.certificates", "count", count c.certificates);
      ("search.ms", "ms", ms "search");
      ("search.visited", "count", count c.s_visited);
      ("search.stored", "count", count c.s_stored);
      ("search.backtracks", "count", count c.s_backtracks);
      ("search.states_per_s", "1/s", ratio (float_of_int c.s_visited) (sec "search"));
      ( "search.por_useful_ratio", "ratio",
        ratio (float_of_int c.por_reduced)
          (float_of_int (c.por_reduced + c.por_other)) );
      ("search.alloc_mb", "MB", per_pass (mb "search"));
      ("classes.ms", "ms", ms "classes");
      ("classes.visited", "count", count c.c_visited);
      ("classes.stored", "count", count c.c_stored);
      ("classes.subsumed", "count", count c.c_subsumed);
      ("classes.per_s", "1/s", ratio (float_of_int c.c_visited) (sec "classes"));
      ("classes.alloc_mb", "MB", per_pass (mb "classes"));
      ("analysis.ms", "ms", ms "analysis");
      ( "analysis.decided_ratio", "ratio",
        ratio (float_of_int c.decided) (float_of_int c.analyses) );
      ("portfolio.ms", "ms", per_pass (self "portfolio" *. 1000.));
      ("portfolio.configs_started", "count", count c.configs_started);
      ( "portfolio.wasted_ratio", "ratio",
        ratio (float_of_int c.loser_stored) (float_of_int c.race_stored) );
      ("certify.ms", "ms", ms "certify");
      ("emit.ms", "ms", ms "emit");
      ("emit.c_bytes", "B", count c.c_bytes);
      ("emit.table_rows", "count", count c.table_rows);
      ("digest.ms", "ms", ms "digest");
      ("cache.find_ms", "ms", ms "cache.find");
      ("cache.store_ms", "ms", ms "cache.store");
      ("cache.hit_ratio", "ratio", ratio (float_of_int c.hits) (float_of_int c.finds));
      ("cache.invalid", "count", count c.invalid);
      ("gc.minor_collections", "count", count run.gc_minor);
      ("gc.major_collections", "count", count run.gc_major);
      ("trace.unattributed_share", "ratio", 1. -. ratio attributed job_s);
      ( "trace.overhead", "ratio",
        ratio (float_of_int !n_spans *. span_cost) job_s );
    ]
  in
  (metrics, shares)

(* Cost of one recorded span, for trace.overhead. *)
let calibrate_span () =
  let n = 20_000 in
  let saved = !spans in
  let t0 = now () in
  for _ = 1 to n do
    layer "calibrate" ignore
  done;
  let cost = (now () -. t0) /. float_of_int n in
  spans := saved;
  cost

let write_spans workload seed =
  if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
  let path =
    Filename.concat spans_dir (Printf.sprintf "spans-%s-%d.json" workload seed)
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"job\": %d, \"parent\": %s, \"start_us\": %.1f, \
             \"end_us\": %.1f}\n"
            (if i = 0 then "" else ",")
            s.name s.job
            (if s.name = "job" then "null" else string_of_int s.job)
            (s.start *. 1e6) (s.stop *. 1e6))
        (List.rev !spans);
      output_string oc "]\n");
  path

(* --- main ---------------------------------------------------------------- *)

let setups = 21

let run_workload (type i) ~name ~(w : i workload) ~seed ~seconds ~trace
    ~use_expected ~record_mode =
  let sentinel_start = sentinel () in
  (* set-up, repeated: setup_s is the median *)
  let setup () =
    let expected = if use_expected then Some (load_expected name) else None in
    let inputs, fp = w.load expected in
    (match expected with
    | Some { fingerprint = Some want; _ } when want = fp -> ()
    | Some { fingerprint; _ } ->
      die "%s: input fingerprint %s differs from the committed %s" name fp
        (Option.value fingerprint ~default:"(none)")
    | None -> ());
    (inputs, fp)
  in
  let timed_setup () =
    Gc.full_major ();
    let t0 = now () in
    let l = setup () in
    (now () -. t0, l)
  in
  let t1, (inputs, fp) = timed_setup () in
  let times =
    t1 :: List.init (if record_mode then 0 else setups - 1) (fun _ -> fst (timed_setup ()))
  in
  let setup_s = Bench_stats.median (Array.of_list times) in
  if record_mode then begin
    let jobs = w.round ~traced:false inputs in
    let lines =
      Array.to_list
        (Array.mapi
           (fun i j ->
             let r = j.run () () in
             if not r.valid then die "job %d (%s) failed its check" i j.label;
             let id = if w.rounds_share_cache then string_of_int i else j.label in
             id ^ " " ^ r.verdict)
           jobs)
    in
    let header =
      [ "# Expected verdicts for the " ^ name ^ " workload; regenerate with";
        "# dune exec perfbench/main.exe -- --workload " ^ name ^ " --record" ]
      @ [ "fingerprint " ^ fp ]
    in
    Out_channel.with_open_text (expected_path name) (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) (header @ lines));
    Printf.printf "wrote %s (%d jobs)\n" (expected_path name) (Array.length jobs);
    exit 0
  end;
  let traced_run = trace = 1 in
  let span_cost = if traced_run then calibrate_span () else 0. in
  let run =
    measure ~trace:traced_run ~seconds ~seed ~make_round:(fun () -> w.round ~traced:traced_run inputs)
  in
  let sentinel_end = sentinel () in
  (* before the identity check below adds untraced runs to the counts *)
  let layers = if traced_run then Some (layer_metrics run ~span_cost) else None in
  let c_bytes = Array.fold_left (fun acc r -> acc + r.c_bytes) 0 run.first in
  (* the traced run must reach the untraced run's verdicts and C *)
  let identical =
    (not traced_run)
    ||
    let saved = !spans in
    let jobs = w.round ~traced:false inputs in
    let same = ref true in
    Array.iteri
      (fun i j ->
        let r = try j.run () () with _ -> failed_result in
        if r.detail <> run.first.(i).detail || r.c_bytes <> run.first.(i).c_bytes
        then begin
          Printf.printf "mismatch on %s: traced %S, untraced %S\n" j.label
            run.first.(i).detail r.detail;
          same := false
        end)
      jobs;
    spans := saved;
    !same
  in
  (* A job's time is the median of its runs.  The host's shared memory
     system slows single runs by up to 2x (see perfbench/README.md);
     the median of a job's runs moves far less from one run of the
     benchmark to the next than its fastest run does.  Each latency
     sample is credited with its job's time, so the percentiles keep
     their sample counts and job-type bands. *)
  let typical keep =
    let runs = Array.make run.jobs [] in
    List.iter (fun s -> if keep s then runs.(s.index) <- s.ms :: runs.(s.index)) run.samples;
    Array.map (fun l -> Bench_stats.median (Array.of_list l)) runs
  in
  let rate cold =
    let t = typical (fun s -> s.cold = cold) in
    float_of_int run.jobs /. (Array.fold_left ( +. ) 0. t /. 1000.)
  in
  (* the latency figures use only the cold passes when a cache links
     the two passes of a round *)
  let timed s = s.cold || not w.rounds_share_cache in
  let job_time = typical timed in
  let credited =
    Array.of_list
      (List.filter_map
         (fun s -> if timed s then Some (job_time.(s.index), s.label) else None)
         (List.rev run.samples))
  in
  let pct = Array.map fst credited in
  let n_pct = Array.length pct in
  let p q = Bench_stats.percentile ~q pct in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let failed_ratio = Bench_stats.failed_ratio ~failed:run.failed ~attempted:run.attempted in
  let correct = run.failed = 0 && identical in
  Printf.printf
    "workload %s seed %d: %d passes of %d jobs, %d attempted, %d failed \
     (failed_ratio %g), %.1f s timed\n"
    name seed run.passes run.jobs run.attempted run.failed failed_ratio
    run.timed_s;
  Printf.printf
    "host sentinel (arithmetic / memory walk): %.1f / %.1f ms at start, %.1f / \
     %.1f ms at end\n"
    (fst sentinel_start) (snd sentinel_start) (fst sentinel_end)
    (snd sentinel_end);
  (* percentile placement: each reported rank inside one job type's band *)
  let placements_ok =
    w.rounds_share_cache
    ||
    List.for_all
      (fun q ->
        let pl = Bench_stats.placement ~q credited in
        let ok = Bench_stats.inside_band pl in
        Printf.printf "p%.0f placement: %s at %.2f of its band (%s)\n" (q *. 100.)
          pl.Bench_stats.label pl.Bench_stats.position
          (if ok then "inside" else "ON A BOUNDARY");
        ok)
      [ 0.5; 0.9 ]
  in
  if not placements_ok then die "a reported percentile sits on a job-type boundary";
  List.iter
    (fun q ->
      if not (Bench_stats.supports ~q n_pct) then
        die "p%g needs ten samples beyond it; only %d samples" (q *. 100.) n_pct)
    [ 0.5; 0.9 ];
  let end_to_end =
    [
      ("setup_s", "s", setup_s);
      ("jobs_per_s", "1/s", rate true);
      ("warm_jobs_per_s", "1/s", rate false);
      ("latency_ms_p50", "ms", p 0.5);
      ("latency_ms_p90", "ms", p 0.9);
      ("latency_ms_geomean", "ms", Bench_stats.geomean job_time);
      ("peak_heap_mb", "MB", peak_heap_mb);
      ("c_bytes", "B", float_of_int c_bytes);
    ]
  in
  List.iter
    (fun (k, u, v) -> Printf.printf "  %-22s %14.4f %s\n" k v u)
    (end_to_end @ [ ("failed_ratio", "ratio", failed_ratio) ]);
  Printf.printf "  (%d latency samples)\n" n_pct;
  match layers with
  | Some (metrics, shares) ->
    Printf.printf "layer shares of job time:\n";
    List.iter
      (fun (k, s) -> if s > 0. then Printf.printf "  %-12s %6.1f%%\n" k (s *. 100.))
      shares;
    List.iter (fun (k, u, v) -> Printf.printf "  %-26s %14.4f %s\n" k v u) metrics;
    Printf.printf "spans written to %s\n" (write_spans name seed);
    print_result ~correct ~attempted:run.attempted ~failed:run.failed metrics
  | None ->
    print_result ~correct ~attempted:run.attempted ~failed:run.failed end_to_end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let corpus_seed = ref default_corpus_seed and record_mode = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME schedule-cases | search-engines | batch-corpus");
      ("--seed", Arg.Set_int seed, "N job order seed");
      ("--seconds", Arg.Set_float seconds, "S timed run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--corpus-seed", Arg.Set_int corpus_seed, "N batch-corpus generator seed (default 42)");
      ("--record", Arg.Set record_mode, " write the expected verdicts");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %s" a) "main.exe --workload NAME [options]";
  if not (Sys.file_exists inputs_dir) then
    die "%s not found: run from the repository root" inputs_dir;
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let use_expected = not !record_mode in
  let go name w =
    run_workload ~name ~w ~seed:!seed ~seconds:!seconds ~trace:!trace
      ~use_expected ~record_mode:!record_mode
  in
  match !workload with
  | "schedule-cases" -> go "schedule-cases" schedule_cases
  | "search-engines" -> go "search-engines" search_engines
  | "batch-corpus" ->
    let use_expected = use_expected && !corpus_seed = default_corpus_seed in
    run_workload ~name:"batch-corpus"
      ~w:(batch_corpus ~corpus_seed:!corpus_seed)
      ~seed:!seed ~seconds:!seconds ~trace:!trace ~use_expected
      ~record_mode:!record_mode
  | w -> die "unknown workload %S" w
