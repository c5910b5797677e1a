(* Synthesis job server: a bounded queue drained by worker domains.

   Every job runs the same pipeline as `ezrt schedule --engine
   portfolio` ([Pipeline.solve]: analytic pre-pass, then discrete
   search, then classes, then certification) behind the shared
   re-validating cache.  The pool's concurrency lives at the job
   level: each portfolio runs on its worker's domain. *)

module Spec = Ezrt_spec.Spec
module Dsl = Ezrt_spec.Dsl
module Case_studies = Ezrt_spec.Case_studies
module Translate = Ezrt_blocks.Translate
module Schedulability = Ezrt_analysis.Schedulability
module Pnet = Ezrt_tpn.Pnet
module Schedule = Ezrt_sched.Schedule
module Search = Ezrt_sched.Search
module Portfolio = Ezrt_sched.Portfolio
module Pipeline = Ezrt_sched.Pipeline
module Metrics = Ezrt_obs.Metrics
module Trace = Ezrt_obs.Trace
module Json = Ezrt_obs.Json

type verdict =
  | Feasible of { firings : int; makespan : int }
  | Infeasible of Schedulability.witness option
  | Timed_out
  | Inconclusive

type outcome = {
  verdict : verdict;
  digest : string;
  engine : string;
  cached : bool;
  elapsed_ms : float;
  stored_states : int;
}

let verdict_line o =
  match o.verdict with
  | Feasible { firings; makespan } ->
    Printf.sprintf "%s feasible firings=%d makespan=%d" o.digest firings
      makespan
  | Infeasible (Some w) ->
    Printf.sprintf "%s infeasible witness=%s" o.digest
      (Schedulability.witness_kind w)
  | Infeasible None -> o.digest ^ " infeasible witness=none"
  | Timed_out -> o.digest ^ " timed-out"
  | Inconclusive -> o.digest ^ " inconclusive"

let jobs_metric which =
  Metrics.counter ~help:"Service jobs by lifecycle event"
    ("ezrt_service_jobs_" ^ which ^ "_total")

let solve ?cache ?(max_states = 500_000) ?deadline_at spec =
  let started = Unix.gettimeofday () in
  match Pipeline.translate spec with
  | Error e -> Error (Pipeline.error_to_string e)
  | Ok model -> (
    let digest = Spec_digest.digest spec in
    let finish ?(cached = false) ~engine ~stored verdict =
      {
        verdict;
        digest;
        engine;
        cached;
        elapsed_ms = (Unix.gettimeofday () -. started) *. 1000.;
        stored_states = stored;
      }
    in
    let feasible schedule =
      Feasible
        {
          firings = Schedule.length schedule;
          makespan = Schedule.makespan schedule;
        }
    in
    match Option.bind cache (fun c -> Cache.find c ~digest ~spec ~model) with
    | Some (Cache.Hit_feasible (schedule, _segments)) ->
      Ok (finish ~cached:true ~engine:"cache" ~stored:0 (feasible schedule))
    | Some (Cache.Hit_infeasible w) ->
      Ok (finish ~cached:true ~engine:"cache" ~stored:0 (Infeasible (Some w)))
    | None -> (
      let cancel () =
        match deadline_at with
        | None -> false
        | Some d -> Unix.gettimeofday () > d
      in
      match
        Pipeline.solve
          ~engine:(Pipeline.Portfolio { analysis = true; max_stored = max_states })
          ~cancel model
      with
      | Error e -> Error (Pipeline.error_to_string e)
      | Ok { Pipeline.verdict; run = portfolio; _ } ->
        let stored =
          List.fold_left
            (fun acc (a : Portfolio.attempt) ->
              acc + a.Portfolio.metrics.Search.stored)
            0 portfolio.Portfolio.attempts
        in
        let engine =
          match (portfolio.Portfolio.winner, portfolio.Portfolio.prepass) with
          | Some cfg, _ -> Portfolio.config_to_string cfg
          | None, (Portfolio.Prepass_accepted | Portfolio.Prepass_rejected _) ->
            "prepass"
          | None, _ -> "portfolio"
        in
        let store_entry verdict =
          Option.iter
            (fun c ->
              Cache.store c ~digest
                {
                  Cache.verdict;
                  engine;
                  elapsed_ms = portfolio.Portfolio.elapsed_s *. 1000.;
                  stored_states = stored;
                })
            cache
        in
        let net = model.Translate.net in
        let verdict =
          match verdict with
          | Pipeline.Certified { schedule; _ } ->
            store_entry
              (Cache.Feasible
                 (List.map
                    (fun (e : Schedule.entry) ->
                      (Pnet.transition_name net e.Schedule.tid, e.Schedule.delay))
                    schedule.Schedule.entries));
            feasible schedule
          | Pipeline.Infeasible (Some w) ->
            store_entry (Cache.Infeasible w);
            Infeasible (Some w)
          (* exhaustion proofs carry no witness to re-check later, so
             they are reported but never cached *)
          | Pipeline.Infeasible None -> Infeasible None
          | Pipeline.Timed_out -> Timed_out
          | Pipeline.Undecided _ -> Inconclusive
        in
        Ok (finish ~engine ~stored verdict)))

(* --- the worker pool -------------------------------------------------- *)

type request = {
  id : string;
  spec : Spec.t;
  timeout_ms : int option;
  max_states : int option;
}

type response = { id : string; result : (outcome, string) result }

type job = {
  req : request;
  deadline_at : float option;  (** absolute; fixed at admission *)
  on_done : response -> unit;
}

type t = {
  cache : Cache.t option;
  max_states : int;
  default_timeout_ms : int option;
  queue_limit : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  jobs : job Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  shed : int Atomic.t;
}

let process t job =
  Trace.begin_span ~cat:"service" "job"
    ~args:[ ("id", Trace.Str job.req.id) ];
  let result =
    match job.deadline_at with
    | Some d when Unix.gettimeofday () > d ->
      (* expired while queued: answer without burning a worker on a
         job whose client deadline is already gone *)
      Ok
        {
          verdict = Timed_out;
          digest = Spec_digest.digest job.req.spec;
          engine = "queue";
          cached = false;
          elapsed_ms = 0.;
          stored_states = 0;
        }
    | deadline_at -> (
      try
        solve ?cache:t.cache
          ~max_states:(Option.value job.req.max_states ~default:t.max_states)
          ?deadline_at job.req.spec
      with exn -> Error ("internal error: " ^ Printexc.to_string exn))
  in
  Trace.end_span ~cat:"service" "job"
    ~args:
      [
        ("id", Trace.Str job.req.id);
        ( "outcome",
          Trace.Str
            (match result with
            | Ok o -> verdict_line o
            | Error _ -> "error") );
      ];
  Metrics.incr (jobs_metric "completed");
  try job.on_done { id = job.req.id; result } with _ -> ()

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.jobs && not t.stopping do
    Condition.wait t.nonempty t.mutex
  done;
  if Queue.is_empty t.jobs then
    (* stopping and drained *)
    Mutex.unlock t.mutex
  else begin
    let job = Queue.pop t.jobs in
    Mutex.unlock t.mutex;
    Metrics.incr (jobs_metric "dequeued");
    (try process t job with _ -> ());
    worker_loop t
  end

let create ?workers ?(queue_limit = 64) ?cache ?(max_states = 500_000)
    ?default_timeout_ms () =
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      cache;
      max_states;
      default_timeout_ms;
      queue_limit = max 1 queue_limit;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      stopping = false;
      domains = [];
      shed = Atomic.make 0;
    }
  in
  t.domains <-
    List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t req ~on_done =
  Mutex.lock t.mutex;
  let decision =
    if t.stopping || Queue.length t.jobs >= t.queue_limit then `Overloaded
    else begin
      let timeout_ms =
        match req.timeout_ms with
        | Some _ as s -> s
        | None -> t.default_timeout_ms
      in
      let deadline_at =
        Option.map
          (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
          timeout_ms
      in
      Queue.push { req; deadline_at; on_done } t.jobs;
      Condition.signal t.nonempty;
      `Accepted
    end
  in
  Mutex.unlock t.mutex;
  (match decision with
  | `Accepted -> Metrics.incr (jobs_metric "enqueued")
  | `Overloaded ->
    Atomic.incr t.shed;
    Metrics.incr (jobs_metric "shed"));
  decision

let shed_count t = Atomic.get t.shed

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  let domains = t.domains in
  t.domains <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join domains

(* --- wire protocol ---------------------------------------------------- *)

let verdict_slug = function
  | Feasible _ -> "feasible"
  | Infeasible _ -> "infeasible"
  | Timed_out -> "timed-out"
  | Inconclusive -> "inconclusive"

let response_to_json (r : response) =
  match r.result with
  | Ok o ->
    let base =
      [
        ("id", Json.Str r.id);
        ("status", Json.Str "ok");
        ("digest", Json.Str o.digest);
        ("verdict", Json.Str (verdict_slug o.verdict));
        ("engine", Json.Str o.engine);
        ("cached", Json.Bool o.cached);
        ("elapsed_ms", Json.Num o.elapsed_ms);
        ("stored_states", Json.Num (float_of_int o.stored_states));
      ]
    in
    let extra =
      match o.verdict with
      | Feasible { firings; makespan } ->
        [
          ("firings", Json.Num (float_of_int firings));
          ("makespan", Json.Num (float_of_int makespan));
        ]
      | Infeasible (Some w) ->
        [ ("witness", Json.Str (Schedulability.witness_kind w)) ]
      | Infeasible None | Timed_out | Inconclusive -> []
    in
    Json.Obj (base @ extra)
  | Error msg ->
    Json.Obj
      [
        ("id", Json.Str r.id);
        ("status", Json.Str "error");
        ("error", Json.Str msg);
      ]

let str_member key j = Option.bind (Json.member key j) Json.to_str

(* An optional count field: absent is [None]; present, it must be a
   non-negative integer the int range holds *)
let count_member key j =
  match Json.member key j with
  | None -> Ok None
  | Some v -> (
    match Json.to_int v with
    | Some n when n >= 0 -> Ok (Some n)
    | Some _ | None ->
      Error (Printf.sprintf "%S must be a non-negative integer" key))

let spec_of_request j =
  match (str_member "spec" j, str_member "case" j) with
  | Some xml, None -> (
    match Dsl.of_string xml with
    | Ok spec -> Ok spec
    | Error e -> Error (Dsl.error_to_string e))
  | None, Some name -> (
    match List.assoc_opt name Case_studies.all with
    | Some spec -> Ok spec
    | None -> Error (Printf.sprintf "unknown case study %S" name))
  | Some _, Some _ -> Error "pass either \"spec\" or \"case\", not both"
  | None, None -> Error "request needs a \"spec\" or \"case\" field"

let serve_channels t ic oc =
  (* a client that hangs up mid-stream must not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let out_mutex = Mutex.create () in
  let pending = Atomic.make 0 in
  let write_json j =
    Mutex.lock out_mutex;
    (try
       output_string oc (Json.to_string j);
       output_char oc '\n';
       flush oc
     with Sys_error _ -> ());
    Mutex.unlock out_mutex
  in
  let drain () =
    while Atomic.get pending > 0 do
      Unix.sleepf 0.002
    done
  in
  let error_response ~id msg =
    write_json (response_to_json { id; result = Error msg })
  in
  let handle_request j =
    let id = Option.value (str_member "id" j) ~default:"?" in
    match
      ( spec_of_request j,
        count_member "timeout_ms" j,
        count_member "max_states" j )
    with
    | Error msg, _, _ | _, Error msg, _ | _, _, Error msg ->
      error_response ~id msg
    | Ok spec, Ok timeout_ms, Ok max_states -> (
      let req = { id; spec; timeout_ms; max_states } in
      Atomic.incr pending;
      match
        submit t req ~on_done:(fun r ->
            write_json (response_to_json r);
            Atomic.decr pending)
      with
      | `Accepted -> ()
      | `Overloaded ->
        Atomic.decr pending;
        write_json
          (Json.Obj
             [ ("id", Json.Str id); ("status", Json.Str "overloaded") ]))
  in
  let rec loop () =
    match In_channel.input_line ic with
    | None -> `Eof
    | Some line when String.trim line = "" -> loop ()
    | Some line -> (
      match Json.of_string line with
      | Error msg ->
        error_response ~id:"?" msg;
        loop ()
      | Ok j -> (
        match str_member "op" j with
        | Some "ping" ->
          write_json
            (Json.Obj
               [ ("status", Json.Str "ok"); ("op", Json.Str "pong") ]);
          loop ()
        | Some "shutdown" -> `Shutdown
        | Some op ->
          error_response ~id:"?" (Printf.sprintf "unknown op %S" op);
          loop ()
        | None ->
          handle_request j;
          loop ()))
  in
  let reason = loop () in
  (* every accepted job answers before the stream ends *)
  drain ();
  (match reason with
  | `Shutdown ->
    write_json
      (Json.Obj [ ("status", Json.Str "ok"); ("op", Json.Str "shutdown") ])
  | `Eof -> ());
  reason

let serve_socket t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let reason =
          try serve_channels t ic oc with _ -> `Eof
        in
        (* closing the out channel closes the shared descriptor *)
        close_out_noerr oc;
        match reason with `Eof -> accept_loop () | `Shutdown -> ()
      in
      accept_loop ())
