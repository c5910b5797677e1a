(* Tests for the observability subsystem (lib/obs): ring-buffer trace
   sink, Chrome trace-event export, Prometheus-style counters, and the
   throttled progress reporter.  The Chrome export is pinned by a
   byte-exact golden file produced with an injected fake clock;
   regenerate it with:

     EZRT_UPDATE_GOLDEN=1 dune test --force *)

open Ezrealtime
open Test_util

let golden name = Filename.concat "golden" name
let update_golden = Sys.getenv_opt "EZRT_UPDATE_GOLDEN" <> None

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A deterministic clock: starts at 0 and advances 1 ms per call.  The
   sink samples it once at creation for the epoch, then once per
   event, so event N gets ts_us = (N+1) * 1000. *)
let fake_clock () =
  let ticks = ref 0 in
  fun () ->
    let v = float_of_int !ticks /. 1000. in
    incr ticks;
    v

(* [with_sink] installs a fresh sink around [f] and always uninstalls,
   so a failing test cannot leak tracing into the rest of the suite. *)
let with_sink ?capacity ?clock f =
  let sink = Obs_trace.create ?capacity ?clock () in
  Obs_trace.install sink;
  Fun.protect ~finally:Obs_trace.uninstall (fun () -> f sink)

(* --- a minimal JSON well-formedness checker -------------------------- *)
(* Just enough of RFC 8259 to reject anything structurally broken in
   the Chrome export; values are discarded. *)

let json_well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos >= n then fail () else s.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true
                       | _ -> false)
    do advance () done
  in
  let expect c = if peek () <> c then fail () else advance () in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | '-' | '0' .. '9' -> number ()
    | _ -> fail ()
  and literal lit =
    if !pos + String.length lit > n then fail ();
    if String.sub s !pos (String.length lit) <> lit then fail ();
    pos := !pos + String.length lit
  and number () =
    if peek () = '-' then advance ();
    if peek () = '0' then advance ()
    else begin
      (match peek () with '1' .. '9' -> () | _ -> fail ());
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false)
      do advance () done
    end;
    if !pos < n && s.[!pos] = '.' then begin
      advance ();
      (match peek () with '0' .. '9' -> () | _ -> fail ());
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false)
      do advance () done
    end;
    if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
      advance ();
      if peek () = '+' || peek () = '-' then advance ();
      (match peek () with '0' .. '9' -> () | _ -> fail ());
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false)
      do advance () done
    end
  and string () =
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> advance ()
        | 'u' ->
          advance ();
          for _ = 1 to 4 do
            (match peek () with
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
            | _ -> fail ())
          done
        | _ -> fail ());
        go ()
      | c when Char.code c < 0x20 -> fail ()
      | _ -> advance (); go ()
    in
    go ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | ',' -> advance (); members ()
        | '}' -> advance ()
        | _ -> fail ()
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec elements () =
        value ();
        skip_ws ();
        match peek () with
        | ',' -> advance (); elements ()
        | ']' -> advance ()
        | _ -> fail ()
      in
      elements ()
  in
  match
    value ();
    skip_ws ();
    !pos = n
  with
  | complete -> complete
  | exception Exit -> false

(* --- trace sink ------------------------------------------------------- *)

let test_ring_wraparound () =
  with_sink ~capacity:8 ~clock:(fake_clock ()) (fun sink ->
      for i = 0 to 19 do
        Obs_trace.instant ~cat:"test"
          ~args:[ ("i", Obs_trace.Int i) ]
          (Printf.sprintf "e%d" i)
      done;
      check_int "written counts every event" 20 (Obs_trace.written sink);
      check_int "dropped counts the overwritten" 12 (Obs_trace.dropped sink);
      check_int "capacity is as configured" 8 (Obs_trace.capacity sink);
      let events = Obs_trace.events sink in
      check_int "ring keeps the newest [capacity]" 8 (List.length events);
      List.iteri
        (fun k (e : Obs_trace.event) ->
          check_string "surviving events are the last ones, in order"
            (Printf.sprintf "e%d" (12 + k))
            e.Obs_trace.name)
        events;
      let ts = List.map (fun e -> e.Obs_trace.ts_us) events in
      check_bool "timestamps are non-decreasing" true
        (List.sort compare ts = ts))

let test_no_sink_is_noop () =
  Obs_trace.uninstall ();
  check_bool "no sink installed" false (Obs_trace.enabled ());
  (* must not raise and must record nowhere *)
  Obs_trace.begin_span ~cat:"test" "ghost";
  Obs_trace.end_span ~cat:"test" "ghost";
  Obs_trace.instant ~cat:"test" "ghost";
  check_int "with_span still runs the thunk" 7
    (Obs_trace.with_span ~cat:"test" (fun () -> 7) "ghost")

let test_with_span_closes_on_exception () =
  with_sink ~clock:(fake_clock ()) (fun sink ->
      (try
         Obs_trace.with_span ~cat:"test"
           (fun () -> failwith "boom")
           "failing"
       with Failure _ -> ());
      match Obs_trace.events sink with
      | [ b; e ] ->
        check_bool "begin phase" true (b.Obs_trace.phase = Obs_trace.Begin);
        check_bool "end phase" true (e.Obs_trace.phase = Obs_trace.End);
        check_string "same name" b.Obs_trace.name e.Obs_trace.name
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_chrome_golden () =
  let sink = Obs_trace.create ~capacity:16 ~clock:(fake_clock ()) () in
  Obs_trace.install sink;
  Fun.protect ~finally:Obs_trace.uninstall (fun () ->
      Obs_trace.with_span ~cat:"search"
        ~args:
          [
            ("engine", Obs_trace.Str "discrete");
            ("budget", Obs_trace.Int 500_000);
          ]
        (fun () ->
          Obs_trace.instant ~cat:"search" "backtrack"
            ~args:[ ("depth", Obs_trace.Float 1.5) ];
          Obs_trace.instant ~cat:"search" "quo\"ted\nname")
        "search");
  let actual = Obs_trace.to_chrome_json sink in
  check_bool "chrome export is well-formed JSON" true (json_well_formed actual);
  let path = golden "obs-trace.json" in
  if update_golden then write_file path actual
  else check_string "chrome export matches the golden file" (read_file path)
      actual

(* Every byte 0x01-0x7f, UTF-8 text and floats that [%.6g] used to
   mangle (0.1 stays, 1e300 stays, nan becomes null) read back from
   the export with [Obs_json] as the values that were recorded. *)
let test_chrome_values_roundtrip () =
  let ascii = String.init 0x7f (fun i -> Char.chr (i + 1)) in
  let utf8 = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x98\x80" in
  let sink = Obs_trace.create ~capacity:16 ~clock:(fake_clock ()) () in
  Obs_trace.install sink;
  Fun.protect ~finally:Obs_trace.uninstall (fun () ->
      Obs_trace.instant ~cat:utf8 ascii
        ~args:
          [
            ("ascii", Obs_trace.Str ascii);
            ("utf8", Obs_trace.Str utf8);
            ("tenth", Obs_trace.Float 0.1);
            ("huge", Obs_trace.Float 1e300);
            ("nan", Obs_trace.Float Float.nan);
          ]);
  let text = Obs_trace.to_chrome_json sink in
  check_bool "well-formed JSON" true (json_well_formed text);
  let event =
    match Obs_json.of_string text with
    | Ok j -> (
      match Obs_json.member "traceEvents" j with
      | Some (Obs_json.List [ e ]) -> e
      | _ -> Alcotest.fail "expected one trace event")
    | Error msg -> Alcotest.failf "export does not parse: %s" msg
  in
  let get path =
    List.fold_left
      (fun j key ->
        match Option.bind j (Obs_json.member key) with
        | Some v -> Some v
        | None -> Alcotest.failf "missing %s" key)
      (Some event) path
  in
  let expect what want path =
    check_bool what true (get path = Some want)
  in
  expect "name" (Obs_json.Str ascii) [ "name" ];
  expect "cat" (Obs_json.Str utf8) [ "cat" ];
  expect "ascii arg" (Obs_json.Str ascii) [ "args"; "ascii" ];
  expect "utf8 arg" (Obs_json.Str utf8) [ "args"; "utf8" ];
  expect "0.1" (Obs_json.Num 0.1) [ "args"; "tenth" ];
  expect "1e300" (Obs_json.Num 1e300) [ "args"; "huge" ];
  expect "nan as null" Obs_json.Null [ "args"; "nan" ]

let test_trace_of_fuzz_campaign () =
  (* A real seeded campaign: every begin must LIFO-match an end on its
     own domain, nothing may be dropped, and the acceptance spans
     (search, portfolio members, fuzz specs) must all appear. *)
  Obs_metrics.reset_all ();
  with_sink ~capacity:65536 (fun sink ->
      let stats = Fuzz.run ~profile:Spec_gen.smoke ~seed:42 ~count:4 () in
      check_int "campaign ran every spec" 4 stats.Fuzz.generated;
      check_int "nothing dropped" 0 (Obs_trace.dropped sink);
      let events = Obs_trace.events sink in
      let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 4 in
      let stack tid =
        match Hashtbl.find_opt stacks tid with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add stacks tid s;
          s
      in
      List.iter
        (fun (e : Obs_trace.event) ->
          let s = stack e.Obs_trace.tid in
          match e.Obs_trace.phase with
          | Obs_trace.Begin -> s := e.Obs_trace.name :: !s
          | Obs_trace.End -> (
            match !s with
            | top :: rest when String.equal top e.Obs_trace.name -> s := rest
            | top :: _ ->
              Alcotest.failf "tid %d: end %S closes open span %S"
                e.Obs_trace.tid e.Obs_trace.name top
            | [] ->
              Alcotest.failf "tid %d: end %S with no open span" e.Obs_trace.tid
                e.Obs_trace.name)
          | Obs_trace.Instant -> ())
        events;
      Hashtbl.iter
        (fun tid s ->
          if !s <> [] then
            Alcotest.failf "tid %d: %d span(s) left open" tid (List.length !s))
        stacks;
      let names =
        List.sort_uniq compare
          (List.map (fun (e : Obs_trace.event) -> e.Obs_trace.name) events)
      in
      List.iter
        (fun required ->
          check_bool (Printf.sprintf "campaign trace has %S spans" required)
            true (List.mem required names))
        [ "search"; "portfolio-member"; "fuzz-spec"; "fuzz-campaign" ];
      check_bool "campaign export is well-formed JSON" true
        (json_well_formed (Obs_trace.to_chrome_json sink)));
  (* the flushed counters must agree with the campaign stats *)
  check_int "fuzz spec counter matches the campaign" 4
    (Obs_metrics.value (Obs_metrics.counter "ezrt_fuzz_specs_total"))

(* --- metrics ---------------------------------------------------------- *)

let test_counter_monotonic =
  qcheck "counter value is the sum of its additions"
    QCheck.(list (int_range 0 1000))
    (fun amounts ->
      let c =
        Obs_metrics.counter
          ~labels:[ ("case", string_of_int (Hashtbl.hash amounts)) ]
          "ezrt_test_monotonic_total"
      in
      let before = Obs_metrics.value c in
      List.iter (Obs_metrics.add c) amounts;
      Obs_metrics.value c = before + List.fold_left ( + ) 0 amounts)

let test_counter_rejects_negative () =
  let c = Obs_metrics.counter "ezrt_test_negative_total" in
  Alcotest.check_raises "negative add is rejected"
    (Invalid_argument
       "Metrics.add: negative increment -3 on ezrt_test_negative_total")
    (fun () -> Obs_metrics.add c (-3))

let test_counter_identity () =
  let a = Obs_metrics.counter ~labels:[ ("k", "1") ] "ezrt_test_identity_total"
  and b = Obs_metrics.counter ~labels:[ ("k", "1") ] "ezrt_test_identity_total"
  and c =
    Obs_metrics.counter ~labels:[ ("k", "2") ] "ezrt_test_identity_total"
  in
  let before_a = Obs_metrics.value a and before_c = Obs_metrics.value c in
  Obs_metrics.incr a;
  check_int "same (name, labels) is the same cell" (before_a + 1)
    (Obs_metrics.value b);
  check_int "different labels are different cells" before_c
    (Obs_metrics.value c)

let test_timer_accounting () =
  let t = Obs_metrics.timer ~labels:[ ("k", "t") ] "ezrt_test_timer" in
  let runs = Obs_metrics.timer_runs t in
  Obs_metrics.observe t 0.25;
  Obs_metrics.observe t 0.5;
  check_int "two runs recorded" (runs + 2) (Obs_metrics.timer_runs t);
  check_bool "accumulated seconds include both runs" true
    (Obs_metrics.timer_seconds t >= 0.75);
  check_int "time runs the thunk" 3 (Obs_metrics.time t (fun () -> 3));
  check_int "and counts its run" (runs + 3) (Obs_metrics.timer_runs t)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_dump_format () =
  Obs_metrics.reset_all ();
  let a = Obs_metrics.counter ~help:"Example" "ezrt_test_dump_a_total" in
  let b =
    Obs_metrics.counter ~labels:[ ("engine", "x\"y") ] "ezrt_test_dump_b_total"
  in
  Obs_metrics.add a 3;
  Obs_metrics.incr b;
  let dump = Obs_metrics.dump () in
  List.iter
    (fun needle ->
      if not (contains ~needle dump) then
        Alcotest.failf "dump lacks %S:\n%s" needle dump)
    [
      "# HELP ezrt_test_dump_a_total Example";
      "# TYPE ezrt_test_dump_a_total counter";
      "ezrt_test_dump_a_total 3";
      "ezrt_test_dump_b_total{engine=\"x\\\"y\"} 1";
    ];
  (* deterministic: same values, same dump *)
  check_string "dump is stable" dump (Obs_metrics.dump ())

(* Every search ends in the kernel's one metric flush: the discrete and
   the class engine export the same search series under their own
   engine label, and the flush also sets the process GC gauges. *)
let test_search_flush () =
  Obs_metrics.reset_all ();
  let model = Translate.translate Case_studies.fig3_precedence in
  ignore (Search.find_schedule model);
  ignore (Class_search.find_schedule model);
  List.iter
    (fun engine ->
      check_bool (engine ^ " exports ezrt_search_stored_states_total") true
        (Obs_metrics.value
           (Obs_metrics.counter
              ~labels:[ ("engine", engine) ]
              "ezrt_search_stored_states_total")
        > 0))
    [ "discrete-incremental"; "classes" ];
  check_bool "gc minor-words gauge set" true
    (Obs_metrics.gauge_value (Obs_metrics.gauge "ezrt_gc_minor_words") > 0);
  let dump = Obs_metrics.dump () in
  List.iter
    (fun series ->
      check_bool (series ^ " in dump") true (contains ~needle:series dump))
    [ "ezrt_gc_minor_words"; "ezrt_gc_major_words"; "ezrt_gc_compactions" ]

(* --- progress --------------------------------------------------------- *)

(* clock advancing 0.3 s per call *)
let fake_clock_scaled () =
  let ticks = ref 0 in
  fun () ->
    let v = float_of_int !ticks *. 0.3 in
    incr ticks;
    v

let test_progress_throttle () =
  let lines = ref [] in
  let rendered = ref 0 in
  let snapshot () =
    incr rendered;
    Printf.sprintf "snapshot %d" !rendered
  in
  (* clock advances 0.3 s per call; interval 1.0 s; every=1 so each
     tick consults the clock *)
  let reporter =
    Obs_progress.create ~interval_s:1.0 ~every:1 ~clock:(fake_clock_scaled ())
      ~out:(fun l -> lines := l :: !lines)
      ()
  in
  Obs_progress.install reporter;
  Fun.protect ~finally:Obs_progress.uninstall (fun () ->
      for _ = 1 to 10 do
        Obs_progress.tick snapshot
      done);
  let emitted = List.length !lines in
  check_bool "throttled below one line per tick" true (emitted < 10);
  check_bool "but some lines got through" true (emitted >= 2);
  check_int "snapshot rendered only when emitting" emitted !rendered;
  Obs_progress.tick snapshot;
  check_int "uninstalled reporter ignores ticks" emitted !rendered

let test_progress_mask () =
  (* every=4: only every 4th tick may reach the clock, so 7 ticks with
     an always-due clock emit exactly once *)
  let emitted = ref 0 in
  let reporter =
    Obs_progress.create ~interval_s:0.0 ~every:4
      ~clock:(fake_clock_scaled ())
      ~out:(fun _ -> incr emitted)
      ()
  in
  Obs_progress.install reporter;
  Fun.protect ~finally:Obs_progress.uninstall (fun () ->
      for _ = 1 to 7 do
        Obs_progress.tick (fun () -> "line")
      done);
  check_int "mask limits clock consultations" 1 !emitted

let test_progress_force () =
  let lines = ref [] in
  let reporter =
    Obs_progress.create
      ~out:(fun l -> lines := l :: !lines)
      ()
  in
  Obs_progress.install reporter;
  Fun.protect ~finally:Obs_progress.uninstall (fun () ->
      Obs_progress.force (fun () -> "final");
      Obs_progress.force (fun () -> "really final"));
  check_int "force always emits" 2 (List.length !lines)

let suite =
  [
    case "ring wraparound" test_ring_wraparound;
    case "no sink is a no-op" test_no_sink_is_noop;
    case "with_span closes on exception" test_with_span_closes_on_exception;
    case "chrome trace golden" test_chrome_golden;
    case "chrome export values round-trip" test_chrome_values_roundtrip;
    slow_case "fuzz campaign trace is balanced" test_trace_of_fuzz_campaign;
    test_counter_monotonic;
    case "counter rejects negative" test_counter_rejects_negative;
    case "counter identity by (name, labels)" test_counter_identity;
    case "timer accounting" test_timer_accounting;
    case "prometheus dump format" test_dump_format;
    case "search flush: gc gauges and engine counters" test_search_flush;
    case "progress throttling by interval" test_progress_throttle;
    case "progress throttling by mask" test_progress_mask;
    case "progress force" test_progress_force;
  ]
