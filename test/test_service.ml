(* The synthesis service: digests, the re-validating cache, and the
   job server. *)

open Test_util
module Json = Ezrt_obs.Json
module Spec_digest = Ezrt_service.Spec_digest
module Cache = Ezrt_service.Cache
module Server = Ezrt_service.Server
module Spec = Ezrt_spec.Spec
module Task = Ezrt_spec.Task
module Translate = Ezrt_blocks.Translate
module Schedulability = Ezrt_analysis.Schedulability
module Portfolio = Ezrt_sched.Portfolio
module Search = Ezrt_sched.Search
module Schedule = Ezrt_sched.Schedule
module Pnet = Ezrt_tpn.Pnet
module Spec_gen = Ezrt_gen.Spec_gen

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ezrt-service-test-%d-%d" (Unix.getpid ()) !counter)
    in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    dir

(* A trivially feasible two-task spec. *)
let easy_spec ?(name = "easy") () =
  Spec.make ~name
    ~tasks:
      [
        Task.make ~name:"A" ~wcet:1 ~deadline:5 ~period:10 ();
        Task.make ~name:"B" ~wcet:2 ~deadline:10 ~period:10 ();
      ]
    ()

(* Valid (utilization 0.6) but analytically infeasible: 6 units of
   work must finish inside the deadline window [0, 5), so the pre-pass
   rejects it with a demand-overload witness. *)
let overloaded_spec ?(name = "overloaded") () =
  Spec.make ~name
    ~tasks:
      [
        Task.make ~name:"A" ~wcet:3 ~deadline:5 ~period:10 ();
        Task.make ~name:"B" ~wcet:3 ~deadline:5 ~period:10 ();
      ]
    ()

let solve_feasible cache spec =
  match Server.solve ~cache spec with
  | Ok ({ Server.verdict = Server.Feasible _; _ } as o) -> o
  | Ok o -> Alcotest.failf "expected feasible, got %s" (Server.verdict_line o)
  | Error msg -> Alcotest.failf "solve failed: %s" msg

(* --- Json ------------------------------------------------------------- *)

let test_json_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Num 3.;
      Json.Num (-0.25);
      Json.Str "plain";
      Json.Str "esc \" \\ \n \t \r \x01 end";
      Json.List [ Json.Num 1.; Json.Str "two"; Json.Null ];
      Json.Obj
        [
          ("id", Json.Str "x");
          ("nested", Json.Obj [ ("k", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      check_bool ("single line: " ^ s) false (String.contains s '\n');
      match Json.of_string s with
      | Ok v' ->
        check_string ("roundtrip " ^ s) s (Json.to_string v')
      | Error msg -> Alcotest.failf "reparse of %s failed: %s" s msg)
    values

let test_json_rejects () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Ok _ -> Alcotest.failf "accepted malformed %S" input
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_unicode () =
  match Json.of_string {|"aé😀b"|} with
  | Ok (Json.Str s) ->
    check_string "utf8 decoding" "a\xc3\xa9\xf0\x9f\x98\x80b" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape parse failed"

(* --- Spec_digest ------------------------------------------------------ *)

let shuffle seed xs =
  let rng = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let qcheck_digest_reorder =
  qcheck "digest is reorder-insensitive"
    QCheck.(pair arbitrary_spec small_int)
    (fun (spec, seed) ->
      let shuffled =
        {
          spec with
          Spec.tasks = shuffle seed spec.Spec.tasks;
          processors = shuffle (seed + 1) spec.Spec.processors;
          messages = shuffle (seed + 2) spec.Spec.messages;
          precedences = shuffle (seed + 3) spec.Spec.precedences;
          exclusions =
            shuffle (seed + 4)
              (List.map
                 (fun (a, b) -> if seed mod 2 = 0 then (b, a) else (a, b))
                 spec.Spec.exclusions);
        }
      in
      Spec_digest.digest spec = Spec_digest.digest shuffled)

let qcheck_digest_sensitive =
  qcheck "digest separates distinct specs" arbitrary_spec (fun spec ->
      let bumped =
        match spec.Spec.tasks with
        | t :: rest ->
          { spec with Spec.tasks = { t with Task.wcet = t.Task.wcet + 1 } :: rest }
        | [] -> QCheck.assume_fail ()
      in
      Spec_digest.digest spec <> Spec_digest.digest bumped)

let test_digest_shape () =
  let d = Spec_digest.digest (easy_spec ()) in
  check_int "32 hex chars" 32 (String.length d);
  String.iter
    (fun c ->
      check_bool "lowercase hex" true
        (match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false))
    d;
  (* the name participates: renamed copies are distinct cold entries *)
  check_bool "name is part of the address" true
    (Spec_digest.digest (easy_spec ~name:"other" ()) <> d)

(* --- Cache wire format ------------------------------------------------ *)

let entry_gen =
  let open QCheck.Gen in
  let str =
    string_size
      ~gen:
        (oneof
           [
             char_range 'a' 'z';
             oneofl [ ' '; '%'; '\n'; '"'; '\\'; '\x01'; '\x7f' ];
             char_range '\x80' '\xff';
           ])
      (int_range 1 12)
  in
  let witness =
    oneof
      [
        (let* task = str and* instance = nat and* ready = nat
         and* wcet = nat and* deadline = nat in
         return
           (Schedulability.Negative_laxity
              { task; instance; ready; wcet; deadline }));
        (let* t1 = nat and* t2 = nat and* demand = nat and* capacity = nat in
         return (Schedulability.Demand_overload { t1; t2; demand; capacity }));
        (let* task = str and* instance = nat
         and* chain = list_size (int_range 0 4) str
         and* earliest_finish = nat and* deadline = nat in
         return
           (Schedulability.Chain_overrun
              { task; instance; chain; earliest_finish; deadline }));
        (let* task_a = str and* instance_a = nat and* task_b = str
         and* instance_b = nat and* forward_finish = nat and* deadline_b = nat
         and* backward_finish = nat and* deadline_a = nat in
         return
           (Schedulability.Exclusion_conflict
              {
                task_a;
                instance_a;
                task_b;
                instance_b;
                forward_finish;
                deadline_b;
                backward_finish;
                deadline_a;
              }));
        (let* task = str and* instance = nat and* time = nat in
         return (Schedulability.Edf_overload { task; instance; time }));
      ]
  in
  let verdict =
    oneof
      [
        (let* actions =
           list_size (int_range 0 20)
             (let* name = str and* delay = nat in
              return (name, delay))
         in
         return (Cache.Feasible actions));
        (let* w = witness in
         return (Cache.Infeasible w));
      ]
  in
  let* verdict = verdict
  and* engine = str
  (* any finite float: random bit patterns reach every exponent *)
  and* elapsed_ms =
    map
      (fun bits ->
        let f = Int64.float_of_bits bits in
        if Float.is_finite f then f else 0.)
      ui64
  and* stored_states = nat in
  return { Cache.verdict; engine; elapsed_ms; stored_states }

let arbitrary_entry = QCheck.make entry_gen

let qcheck_entry_roundtrip =
  qcheck "cache entries roundtrip through the wire format" arbitrary_entry
    (fun entry ->
      let digest = String.make 32 'a' in
      match Cache.decode (Cache.encode ~digest entry) with
      | Ok (d, e) -> d = digest && e = entry
      | Error _ -> false)

let qcheck_truncation_detected =
  qcheck "any strict prefix fails to decode" arbitrary_entry (fun entry ->
      let text = Cache.encode ~digest:(String.make 32 'b') entry in
      let cut = String.length text / 2 in
      match Cache.decode (String.sub text 0 cut) with
      | Ok _ -> false
      | Error _ -> true)

(* --- Cache behaviour -------------------------------------------------- *)

let with_model spec f =
  let model = Translate.translate spec in
  f (Spec_digest.digest spec) model

let test_cache_memory_hit () =
  let cache = Cache.create () in
  let spec = easy_spec () in
  with_model spec (fun digest model ->
      check_bool "cold miss" true
        (Cache.find cache ~digest ~spec ~model = None);
      let o = solve_feasible cache spec in
      check_bool "computed, not cached" false o.Server.cached;
      match Cache.find cache ~digest ~spec ~model with
      | Some (Cache.Hit_feasible (schedule, segments)) ->
        check_bool "non-empty schedule" true (Schedule.length schedule > 0);
        check_bool "validated segments" true (segments <> []);
        let k = Cache.counters cache in
        check_int "one hit" 1 k.Cache.hits;
        check_int "no invalid" 0 k.Cache.invalid
      | Some (Cache.Hit_infeasible _) -> Alcotest.fail "wrong verdict class"
      | None -> Alcotest.fail "expected a memory hit")

let test_cache_disk_persistence () =
  let dir = tmp_dir () in
  let spec = easy_spec () in
  let cold = Cache.create ~dir () in
  ignore (solve_feasible cold spec);
  (* a fresh instance over the same directory only has the disk tier *)
  let warm = Cache.create ~dir () in
  with_model spec (fun digest model ->
      match Cache.find warm ~digest ~spec ~model with
      | Some (Cache.Hit_feasible _) ->
        check_int "disk hit" 1 (Cache.counters warm).Cache.hits
      | _ -> Alcotest.fail "expected a disk hit")

(* index of the first occurrence of [needle] in [haystack] *)
let substring_index haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then Alcotest.failf "substring %S not found" needle
    else if String.sub haystack i nn = needle then i
    else go (i + 1)
  in
  go 0

let corrupt_file path f =
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (f text))

let entry_file dir spec =
  Filename.concat dir (Spec_digest.digest spec ^ ".entry")

let test_cache_truncated_degrades_to_miss () =
  let dir = tmp_dir () in
  let spec = easy_spec () in
  ignore (solve_feasible (Cache.create ~dir ()) spec);
  corrupt_file (entry_file dir spec) (fun text ->
      String.sub text 0 (String.length text / 2));
  let warm = Cache.create ~dir () in
  with_model spec (fun digest model ->
      check_bool "truncated entry is a miss" true
        (Cache.find warm ~digest ~spec ~model = None);
      let k = Cache.counters warm in
      check_int "counted invalid" 1 k.Cache.invalid;
      check_int "counted miss" 1 k.Cache.misses;
      check_bool "self-healed: file deleted" false
        (Sys.file_exists (entry_file dir spec)))

let test_cache_bitflip_degrades_to_miss () =
  let dir = tmp_dir () in
  let spec = easy_spec () in
  ignore (solve_feasible (Cache.create ~dir ()) spec);
  let path = entry_file dir spec in
  (* flip a bit in the embedded digest: the file still decodes, but it
     no longer addresses this spec *)
  corrupt_file path (fun text ->
      let b = Bytes.of_string text in
      let key = {|"digest":"|} in
      let i = substring_index text key + String.length key in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Bytes.to_string b);
  let warm = Cache.create ~dir () in
  with_model spec (fun digest model ->
      check_bool "bit-flipped entry is a miss" true
        (Cache.find warm ~digest ~spec ~model = None);
      check_int "counted invalid" 1 (Cache.counters warm).Cache.invalid)

let test_cache_tampered_schedule_fails_certification () =
  let dir = tmp_dir () in
  let spec = easy_spec () in
  ignore (solve_feasible (Cache.create ~dir ()) spec);
  let path = entry_file dir spec in
  (* a syntactically valid entry whose first action delay is inflated:
     decode succeeds, replay/certification must reject it *)
  let text = In_channel.with_open_bin path In_channel.input_all in
  let digest, entry =
    match Cache.decode text with
    | Ok pair -> pair
    | Error msg -> Alcotest.failf "decode of fresh entry failed: %s" msg
  in
  let tampered =
    match entry.Cache.verdict with
    | Cache.Feasible ((name, delay) :: rest) ->
      { entry with Cache.verdict = Cache.Feasible ((name, delay + 1000) :: rest) }
    | _ -> Alcotest.fail "expected feasible actions"
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Cache.encode ~digest tampered));
  let warm = Cache.create ~dir () in
  with_model spec (fun digest model ->
      check_bool "uncertifiable entry is a miss" true
        (Cache.find warm ~digest ~spec ~model = None);
      check_int "counted invalid" 1 (Cache.counters warm).Cache.invalid)

let test_cache_wrong_digest_rejected () =
  let dir = tmp_dir () in
  let spec = easy_spec () in
  let other = easy_spec ~name:"other" () in
  ignore (solve_feasible (Cache.create ~dir ()) spec);
  (* renaming an entry file must not let it answer for another spec
     (the embedded digest catches it even before validation could) *)
  Sys.rename (entry_file dir spec) (entry_file dir other);
  let warm = Cache.create ~dir () in
  with_model other (fun digest model ->
      check_bool "renamed file is a miss" true
        (Cache.find warm ~digest ~spec:other ~model = None);
      check_int "counted invalid" 1 (Cache.counters warm).Cache.invalid)

let test_cache_lru_eviction () =
  let cache = Cache.create ~capacity:2 () in
  let entry verdict =
    { Cache.verdict; engine = "test"; elapsed_ms = 0.; stored_states = 0 }
  in
  let w =
    Schedulability.Demand_overload { t1 = 0; t2 = 10; demand = 16; capacity = 10 }
  in
  Cache.store cache ~digest:"d1" (entry (Cache.Infeasible w));
  Cache.store cache ~digest:"d2" (entry (Cache.Infeasible w));
  check_int "no eviction at capacity" 0 (Cache.counters cache).Cache.evictions;
  Cache.store cache ~digest:"d3" (entry (Cache.Infeasible w));
  check_int "one eviction past capacity" 1
    (Cache.counters cache).Cache.evictions

let test_cache_infeasible_witness_cached () =
  let cache = Cache.create () in
  let spec = overloaded_spec () in
  let cold =
    match Server.solve ~cache spec with
    | Ok o -> o
    | Error msg -> Alcotest.failf "solve failed: %s" msg
  in
  (match cold.Server.verdict with
  | Server.Infeasible (Some _) -> ()
  | _ -> Alcotest.failf "expected witnessed infeasible, got %s"
           (Server.verdict_line cold));
  let warm =
    match Server.solve ~cache spec with
    | Ok o -> o
    | Error msg -> Alcotest.failf "solve failed: %s" msg
  in
  check_bool "second solve is a cache hit" true warm.Server.cached;
  check_string "verdicts identical" (Server.verdict_line cold)
    (Server.verdict_line warm)

let test_server_concurrent_solve () =
  (* 4 domains each solve the same spec 8 times on one shared cache:
     every answer must be a feasible verdict the cache entry
     re-validates, and the cache must end up holding the entry.
     Duplicated computes are allowed; lost updates and invalid answers
     are not. *)
  let cache = Cache.create () in
  let spec = easy_spec () in
  with_model spec (fun digest model ->
      let worker () =
        List.init 8 (fun _ ->
            match Server.solve ~cache spec with
            | Ok o -> o
            | Error msg -> Alcotest.failf "solve failed: %s" msg)
      in
      let domains = List.init 4 (fun _ -> Domain.spawn worker) in
      let results = List.concat_map Domain.join domains in
      check_int "every call answered" 32 (List.length results);
      let schedule =
        match Cache.find cache ~digest ~spec ~model with
        | Some (Cache.Hit_feasible (schedule, _)) -> schedule
        | Some (Cache.Hit_infeasible _) | None ->
          Alcotest.fail "final state is not a feasible hit"
      in
      List.iter
        (fun (o : Server.outcome) ->
          match o.Server.verdict with
          | Server.Feasible { firings; makespan } ->
            check_bool "validated schedule" true
              (firings > 0
              && firings = Schedule.length schedule
              && makespan = Schedule.makespan schedule)
          | _ -> Alcotest.fail "lost or wrong answer under contention")
        results;
      check_bool "computed at least once" true
        (List.exists (fun (o : Server.outcome) -> not o.Server.cached) results))

(* --- Server ----------------------------------------------------------- *)

let test_server_matches_direct_portfolio () =
  let spec = easy_spec () in
  let model = Translate.translate spec in
  let direct = Portfolio.find_schedule model in
  let o =
    match Server.solve spec with
    | Ok o -> o
    | Error msg -> Alcotest.failf "solve failed: %s" msg
  in
  match (direct.Portfolio.outcome, o.Server.verdict) with
  | Ok _, Server.Feasible _ -> ()
  | Error Search.Infeasible, Server.Infeasible _ -> ()
  | _ -> Alcotest.fail "service and direct portfolio verdicts diverge"

(* A cold solve certifies the portfolio's schedule before reporting
   (and caching) it: fig3's precedence relation keeps the analytic
   pre-pass out, so the discrete member schedules it. *)
let test_server_certifies_cold_schedule () =
  let module Trace = Ezrt_obs.Trace in
  let sink = Trace.create () in
  Trace.install sink;
  let o =
    Fun.protect ~finally:Trace.uninstall (fun () ->
        match
          Server.solve ~cache:(Cache.create ())
            (List.assoc "fig3" Ezrt_spec.Case_studies.all)
        with
        | Ok o -> o
        | Error msg -> Alcotest.failf "solve failed: %s" msg)
  in
  check_string "the discrete member scheduled it" "discrete/fifo"
    o.Server.engine;
  check_bool "a certify span was recorded" true
    (List.exists
       (fun (e : Trace.event) ->
         e.Trace.name = "certify" && e.Trace.phase = Trace.Begin)
       (Trace.events sink))

let test_server_timeout_verdict () =
  let server = Server.create ~workers:1 () in
  let box = ref None in
  (* mine-pump is not prepass-decidable, so an expired deadline cannot
     be beaten by the analytic quick-accept *)
  let req =
    { Server.id = "t"; spec = Ezrt_spec.Case_studies.mine_pump;
      timeout_ms = Some 0; max_states = None }
  in
  (match Server.submit server req ~on_done:(fun r -> box := Some r) with
  | `Accepted -> ()
  | `Overloaded -> Alcotest.fail "fresh pool shed a job");
  Server.shutdown server;
  match !box with
  | Some { Server.result = Ok { Server.verdict = Server.Timed_out; _ }; _ } ->
    ()
  | Some { Server.result = Ok o; _ } ->
    Alcotest.failf "expected timed-out, got %s" (Server.verdict_line o)
  | Some { Server.result = Error msg; _ } ->
    Alcotest.failf "expected timed-out, got error %s" msg
  | None -> Alcotest.fail "job never answered"

let test_server_sheds_load () =
  (* one worker, queue of one, five instant submissions: at least one
     must be shed, every accepted job must be answered on shutdown *)
  let server = Server.create ~workers:1 ~queue_limit:1 () in
  let answered = Atomic.make 0 in
  let accepted = ref 0 and overloaded = ref 0 in
  for i = 0 to 4 do
    let req =
      { Server.id = string_of_int i;
        spec = Ezrt_spec.Case_studies.mine_pump; timeout_ms = None;
        max_states = None }
    in
    match Server.submit server req ~on_done:(fun _ -> Atomic.incr answered) with
    | `Accepted -> incr accepted
    | `Overloaded -> incr overloaded
  done;
  Server.shutdown server;
  check_bool "some jobs shed" true (!overloaded >= 1);
  check_int "shed counter agrees" !overloaded (Server.shed_count server);
  check_int "every accepted job answered" !accepted (Atomic.get answered);
  check_int "nothing lost" 5 (!accepted + !overloaded)

let test_server_rejects_after_shutdown () =
  let server = Server.create ~workers:1 () in
  Server.shutdown server;
  let req =
    { Server.id = "late"; spec = easy_spec (); timeout_ms = None;
      max_states = None }
  in
  match Server.submit server req ~on_done:(fun _ -> ()) with
  | `Overloaded -> ()
  | `Accepted -> Alcotest.fail "accepted a job after shutdown"

(* Runs [requests] (one NDJSON line each) through [serve_channels] on
   a fresh two-worker server; the stream's end reason and the
   response lines. *)
let serve_lines requests =
  let dir = tmp_dir () in
  let in_path = Filename.concat dir "requests" in
  let out_path = Filename.concat dir "responses" in
  Out_channel.with_open_text in_path (fun oc ->
      List.iter (fun r -> output_string oc (r ^ "\n")) requests);
  let server = Server.create ~workers:2 () in
  let reason =
    In_channel.with_open_text in_path (fun ic ->
        Out_channel.with_open_text out_path (fun oc ->
            Server.serve_channels server ic oc))
  in
  Server.shutdown server;
  (reason, In_channel.with_open_text out_path In_channel.input_lines)

let test_serve_channels_protocol () =
  let reason, lines =
    serve_lines
      [
        {|{"op":"ping"}|};
        "not json";
        {|{"id":"j1","case":"quickstart"}|};
        {|{"id":"j2","case":"no-such-case"}|};
      ]
  in
  check_bool "stream ended at EOF" true (reason = `Eof);
  check_int "four responses" 4 (List.length lines);
  let statuses =
    List.filter_map
      (fun line ->
        match Json.of_string line with
        | Ok j ->
          Some
            ( Option.bind (Json.member "id" j) Json.to_str,
              Option.bind (Json.member "status" j) Json.to_str,
              Option.bind (Json.member "op" j) Json.to_str )
        | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg)
      lines
  in
  check_bool "pong" true
    (List.exists (fun (_, s, op) -> s = Some "ok" && op = Some "pong") statuses);
  check_bool "parse error reported" true
    (List.exists (fun (id, s, _) -> id = Some "?" && s = Some "error") statuses);
  check_bool "job answered" true
    (List.exists (fun (id, s, _) -> id = Some "j1" && s = Some "ok") statuses);
  check_bool "unknown case errors" true
    (List.exists (fun (id, s, _) -> id = Some "j2" && s = Some "error") statuses)

(* The one response to a quickstart job carrying [field: raw]. *)
let count_field_response field raw =
  match
    serve_lines
      [ Printf.sprintf {|{"id":"c","case":"quickstart","%s":%s}|} field raw ]
  with
  | _, [ line ] -> (
    match Json.of_string line with
    | Ok j -> j
    | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg)
  | _, lines -> Alcotest.failf "expected one response, got %d" (List.length lines)

(* A count field the int range cannot hold, a negative one or one of
   the wrong type is an error naming the field, not a job. *)
let test_bad_count_field (field, raw) =
  case (Printf.sprintf "ndjson rejects %s %s" field raw) (fun () ->
      let j = count_field_response field raw in
      let member key = Option.bind (Json.member key j) Json.to_str in
      check_bool "status error" true (member "status" = Some "error");
      match member "error" with
      | Some msg -> ignore (substring_index msg field)
      | None -> Alcotest.fail "error response without a message")

let bad_count_fields =
  List.map test_bad_count_field
    [
      ("max_states", "1e19");
      ("max_states", "-5");
      ("max_states", {|"100"|});
      ("timeout_ms", "1e19");
      ("timeout_ms", "-1");
      ("timeout_ms", "true");
    ]

(* [timeout_ms: 0] is a valid (already expired) deadline, as
   [--timeout 0] is. *)
let test_zero_timeout_accepted () =
  let j = count_field_response "timeout_ms" "0" in
  check_bool "status ok" true
    (Option.bind (Json.member "status" j) Json.to_str = Some "ok")

let test_serve_socket_roundtrip () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "ezrt.sock" in
  let server = Server.create ~workers:1 () in
  let host = Domain.spawn (fun () -> Server.serve_socket server ~path) in
  let rec wait_for_socket n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "socket never appeared"
    else begin
      Unix.sleepf 0.02;
      wait_for_socket (n - 1)
    end
  in
  wait_for_socket 250;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* the socket file appears at bind time, fractionally before listen *)
  let rec connect n =
    try Unix.connect fd (Unix.ADDR_UNIX path)
    with Unix.Unix_error (Unix.ECONNREFUSED, _, _) when n > 0 ->
      Unix.sleepf 0.02;
      connect (n - 1)
  in
  connect 50;
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc "{\"op\":\"ping\"}\n{\"id\":\"s1\",\"case\":\"quickstart\"}\n{\"op\":\"shutdown\"}\n";
  flush oc;
  let lines = In_channel.input_lines ic in
  Domain.join host;
  Server.shutdown server;
  close_out_noerr oc;
  check_int "three responses" 3 (List.length lines);
  check_bool "job ok over the socket" true
    (List.exists
       (fun line ->
         match Json.of_string line with
         | Ok j ->
           Option.bind (Json.member "id" j) Json.to_str = Some "s1"
           && Option.bind (Json.member "status" j) Json.to_str = Some "ok"
         | Error _ -> false)
       lines);
  check_bool "socket file removed" false (Sys.file_exists path)

(* --- the service-path fuzz campaign ----------------------------------- *)

(* Seeded specs through the full service path, cache enabled, cold then
   warm, cross-checked against the direct portfolio on every spec: the
   cache and server layers must never change a verdict. *)
let test_service_fuzz_no_divergence () =
  let dir = tmp_dir () in
  let count = 12 in
  let specs =
    List.init count (fun i -> Spec_gen.spec_at ~profile:Spec_gen.smoke ~seed:7 i)
  in
  let classify = function
    | Server.Feasible _ -> "feasible"
    | Server.Infeasible _ -> "infeasible"
    | Server.Timed_out | Server.Inconclusive -> "unknown"
  in
  let direct_classify spec =
    let model = Translate.translate spec in
    match (Portfolio.find_schedule model).Portfolio.outcome with
    | Ok _ -> "feasible"
    | Error Search.Infeasible -> "infeasible"
    | Error Search.Budget_exhausted -> "unknown"
  in
  let run cache =
    List.map
      (fun spec ->
        match Server.solve ~cache spec with
        | Ok o -> o
        | Error msg -> Alcotest.failf "service solve failed: %s" msg)
      specs
  in
  let cold = run (Cache.create ~dir ()) in
  let warm_cache = Cache.create ~dir () in
  let warm = run warm_cache in
  let divergences = ref 0 in
  List.iteri
    (fun i spec ->
      let c = List.nth cold i and w = List.nth warm i in
      if
        classify c.Server.verdict <> direct_classify spec
        || Server.verdict_line c <> Server.verdict_line w
      then incr divergences)
    specs;
  check_int "0 divergences" 0 !divergences;
  check_bool "warm run actually hit the cache" true
    ((Cache.counters warm_cache).Cache.hits > 0)

let suite =
  [
    case "json roundtrip" test_json_roundtrip;
    case "json rejects malformed input" test_json_rejects;
    case "json unicode escapes" test_json_unicode;
    qcheck_digest_reorder;
    qcheck_digest_sensitive;
    case "digest shape and name sensitivity" test_digest_shape;
    qcheck_entry_roundtrip;
    qcheck_truncation_detected;
    case "memory hit is re-validated" test_cache_memory_hit;
    case "disk tier persists across instances" test_cache_disk_persistence;
    case "truncated entry degrades to miss" test_cache_truncated_degrades_to_miss;
    case "bit-flipped entry degrades to miss" test_cache_bitflip_degrades_to_miss;
    case "tampered schedule fails re-certification"
      test_cache_tampered_schedule_fails_certification;
    case "renamed entry file cannot impersonate" test_cache_wrong_digest_rejected;
    case "lru eviction past capacity" test_cache_lru_eviction;
    case "witnessed infeasible is cached and re-checked"
      test_cache_infeasible_witness_cached;
    slow_case "concurrent get-or-compute (4 domains)"
      test_server_concurrent_solve;
    case "service verdict matches direct portfolio"
      test_server_matches_direct_portfolio;
    case "cold solve certifies before reporting"
      test_server_certifies_cold_schedule;
    case "expired deadline yields timed-out" test_server_timeout_verdict;
    slow_case "admission control sheds load" test_server_sheds_load;
    case "submissions after shutdown are rejected"
      test_server_rejects_after_shutdown;
    case "ndjson protocol over channels" test_serve_channels_protocol;
    case "ndjson accepts timeout_ms 0" test_zero_timeout_accepted;
    slow_case "socket mode roundtrip" test_serve_socket_roundtrip;
    slow_case "service-path fuzz: cold/warm vs direct, 0 divergences"
      test_service_fuzz_no_divergence;
  ]
  @ bad_count_fields
