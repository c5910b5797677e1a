open Ezrt_tpn
module Translate = Ezrt_blocks.Translate
module Class_search = Ezrt_sched.Class_search
module Json = Ezrt_service.Json

type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let severity_of_string = function
  | "info" -> Some Info
  | "warning" -> Some Warning
  | "error" -> Some Error
  | _ -> None

type diagnostic = {
  code : string;
  severity : severity;
  subject : string;
  message : string;
  origin : string option;
}

type gate = { gate : string; gate_open : bool; reasons : string list }

type report = {
  net_name : string;
  diagnostics : diagnostic list;
  gates : gate list;
  certificates : int array list;
  truncated : bool;
  covered_places : int;
  place_count : int;
  transition_count : int;
}

let catalogue =
  [
    ("EZRT-L001", Warning, "place not covered by any P-invariant");
    ("EZRT-L002", Warning, "invariant computation truncated (row bound)");
    ("EZRT-L003", Error, "resource place not certified 1-safe");
    ("EZRT-L004", Error, "periodic skeleton not reproducible");
    ("EZRT-L005", Error, "structurally dead transition");
    ("EZRT-L006", Warning, "sink transition (no output arcs)");
    ("EZRT-L007", Info, "isolated place (no arcs)");
    ("EZRT-L008", Info, "accumulator place (produced, never consumed)");
    ("EZRT-L009", Warning, "initially-unmarked siphon");
    ("EZRT-L010", Warning, "unbounded latest firing time");
    ("EZRT-L012", Info, "subsumption gate decision");
    ("EZRT-L013", Error, "gate-explain disagrees with the live gate");
    ("EZRT-L014", Info, "initially-unmarked trap");
  ]

let count sev report =
  List.length (List.filter (fun d -> d.severity = sev) report.diagnostics)

let max_severity report =
  List.fold_left
    (fun acc d ->
      match acc with
      | Some s when severity_rank s >= severity_rank d.severity -> acc
      | _ -> Some d.severity)
    None report.diagnostics

let deny_hit ~deny report =
  List.exists
    (fun d -> severity_rank d.severity >= severity_rank deny)
    report.diagnostics

(* ------------------------------------------------------------------ *)
(* Structural analyses (all polynomial, no state space)               *)
(* ------------------------------------------------------------------ *)

(* Token-flow liveness fixpoint.  A transition is (possibly) live when
   every input arc is satisfiable: the initial marking already meets
   the weight, or some live producer can feed the place (tokens then
   accumulate over repeated firings, so any finite weight is
   eventually met — a sound over-approximation).  Transitions never
   reaching liveness are dead in every reachable marking. *)
let structurally_dead net =
  let nt = Pnet.transition_count net in
  let producers = Pnet.producers net in
  let live = Array.make nt false in
  let sat (p, w) =
    net.Pnet.m0.(p) >= w
    || Array.exists (fun t -> live.(t)) producers.(p)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for t = 0 to nt - 1 do
      if (not live.(t)) && Array.for_all sat (Pnet.pre_arcs net t) then begin
        live.(t) <- true;
        changed := true
      end
    done
  done;
  List.filter (fun t -> not live.(t)) (List.init nt Fun.id)

(* Maximal siphon among the initially-unmarked places: drop any place
   with a producer whose preset is disjoint from the candidate set
   (that producer could fire and mark the place).  What remains can
   never acquire a token. *)
let unmarked_siphon net =
  let np = Pnet.place_count net in
  let producers = Pnet.producers net in
  let in_s = Array.init np (fun p -> net.Pnet.m0.(p) = 0) in
  let preset_meets_s t =
    Array.exists (fun (q, _) -> in_s.(q)) (Pnet.pre_arcs net t)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to np - 1 do
      if
        in_s.(p)
        && Array.exists (fun t -> not (preset_meets_s t)) producers.(p)
      then begin
        in_s.(p) <- false;
        changed := true
      end
    done
  done;
  List.filter (fun p -> in_s.(p)) (List.init np Fun.id)

(* Maximal trap among initially-unmarked places with at least one
   consumer: drop any place with a consumer whose postset misses the
   candidate set (that consumer could drain the trap).  Tokens that
   enter what remains can never all leave. *)
let unmarked_trap ?(exclude = []) net =
  let np = Pnet.place_count net in
  let in_s =
    Array.init np (fun p ->
        net.Pnet.m0.(p) = 0
        && Array.length (Pnet.consumers_of net p) > 0
        && not (List.mem p exclude))
  in
  let postset_meets_s t =
    Array.exists (fun (q, _) -> in_s.(q)) (Pnet.post_arcs net t)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to np - 1 do
      if
        in_s.(p)
        && Array.exists
             (fun t -> not (postset_meets_s t))
             (Pnet.consumers_of net p)
      then begin
        in_s.(p) <- false;
        changed := true
      end
    done
  done;
  List.filter (fun p -> in_s.(p)) (List.init np Fun.id)

(* ------------------------------------------------------------------ *)
(* Gate explain                                                       *)
(* ------------------------------------------------------------------ *)

(* Re-derivation of [Class_search.subsumption_applicable]'s two
   structural conditions, producing a reason per violating
   transition.  The conditions are copied, not shared, on purpose:
   the lint pass asserts agreement with the live gate (L013), so a
   drift between this explanation and the engine's own check is
   caught rather than hidden. *)
let subsumption_reasons (model : Translate.t) =
  let net = model.Translate.net in
  let default = Pnet.default_priority in
  let marks_dead tid =
    Array.exists
      (fun (p, _) -> List.mem p model.Translate.dead_places)
      (Pnet.post_arcs net tid)
  in
  let reasons = ref [] in
  for tid = Pnet.transition_count net - 1 downto 0 do
    let p = Pnet.priority net tid in
    let itv = Pnet.interval net tid in
    if
      p < default
      && not
           (Time_interval.eft itv = 0
           && Time_interval.lft itv = Time_interval.Finite 0)
    then
      reasons :=
        Printf.sprintf
          "transition %s has better-than-default priority %d but interval %s \
           instead of [0,0]"
          (Pnet.transition_name net tid)
          p
          (Time_interval.to_string itv)
        :: !reasons
    else if p > default && not (marks_dead tid) then
      reasons :=
        Printf.sprintf
          "transition %s has worse-than-default priority %d but does not mark \
           a dead-end place"
          (Pnet.transition_name net tid)
          p
        :: !reasons
  done;
  !reasons

let explain_subsumption model =
  let reasons = subsumption_reasons model in
  { gate = "subsumption"; gate_open = reasons = []; reasons }

(* ------------------------------------------------------------------ *)
(* The lint pass                                                      *)
(* ------------------------------------------------------------------ *)

let nets_counter =
  lazy
    (Ezrt_obs.Metrics.counter ~help:"Nets linted" "ezrt_lint_nets_total")

let diag_counter sev =
  Ezrt_obs.Metrics.counter ~help:"Lint diagnostics emitted"
    ~labels:[ ("severity", severity_to_string sev) ]
    "ezrt_lint_diagnostics_total"

let truncated_counter =
  lazy
    (Ezrt_obs.Metrics.counter
       ~help:"Lint runs whose Farkas invariant computation hit the row bound"
       "ezrt_lint_truncated_total")

let mismatch_counter =
  lazy
    (Ezrt_obs.Metrics.counter
       ~help:"Gate-explain verdicts disagreeing with the live gate (bug!)"
       "ezrt_lint_gate_mismatch_total")

let lint_timer =
  lazy
    (Ezrt_obs.Metrics.timer ~help:"Wall-clock time spent in structural lint"
       "ezrt_lint_duration")

let check_net_untraced ?(max_rows = 20_000) ?(final_places = [])
    ?(dead_places = []) ?(resource_places = []) ?required_firings
    ?(origin_of_place = fun _ -> None) ?(origin_of_transition = fun _ -> None)
    (net : Pnet.t) =
  let np = Pnet.place_count net in
  let nt = Pnet.transition_count net in
  let producers = Pnet.producers net in
  let diags = ref [] in
  let emit ?origin code severity subject message =
    diags := { code; severity; subject; message; origin } :: !diags
  in
  let place p = "place " ^ Pnet.place_name net p in
  let trans t = "transition " ^ Pnet.transition_name net t in
  (* --- P-invariant boundedness certification ---------------------- *)
  let outcome = Invariants.p_invariants ~max_rows net in
  let certificates = Invariants.invariants_of outcome in
  let truncated = Invariants.is_truncated outcome in
  let covered p = List.exists (fun y -> y.(p) <> 0) certificates in
  let covered_places =
    List.length (List.filter covered (List.init np Fun.id))
  in
  if truncated then
    emit "EZRT-L002" Warning ("net " ^ net.Pnet.net_name)
      (Printf.sprintf
         "P-invariant computation truncated at %d Farkas rows — boundedness \
          coverage unknown for %d uncovered place(s)"
         max_rows (np - covered_places));
  List.iter
    (fun p ->
      if not (covered p) then
        if List.mem p resource_places then
          emit ?origin:(origin_of_place p) "EZRT-L003" Error (place p)
            (if truncated then
               "resource place not certified 1-safe (invariant set truncated)"
             else
               "resource place not covered by any P-invariant — 1-safety \
                uncertified")
        else if not truncated then
          emit ?origin:(origin_of_place p) "EZRT-L001" Warning (place p)
            "not covered by any P-invariant — boundedness uncertified")
    (List.init np Fun.id);
  (* resource places covered by an invariant must be bounded at 1 *)
  List.iter
    (fun p ->
      match List.find_opt (fun y -> y.(p) <> 0) certificates with
      | None -> ()
      | Some y ->
        let bound = Invariants.weighted_tokens y net.Pnet.m0 / y.(p) in
        if List.mem p resource_places && bound <> 1 then
          emit ?origin:(origin_of_place p) "EZRT-L003" Error (place p)
            (Printf.sprintf
               "covering invariant bounds the resource at %d tokens, not 1"
               bound))
    (List.init np Fun.id);
  (* --- T-invariant reproducibility of the periodic skeleton ------- *)
  (match required_firings with
  | None -> ()
  | Some x when Array.length x <> nt -> ()
  | Some x ->
    let c = Invariants.incidence net in
    for p = 0 to np - 1 do
      let delta = ref 0 in
      for t = 0 to nt - 1 do
        delta := !delta + (c.(p).(t) * x.(t))
      done;
      let final = net.Pnet.m0.(p) + !delta in
      let expected =
        if List.mem p final_places then 1
        else if List.mem p resource_places then net.Pnet.m0.(p)
        else 0
      in
      if final <> expected then
        emit ?origin:(origin_of_place p) "EZRT-L004" Error (place p)
          (Printf.sprintf
             "periodic skeleton not reproducible: the required firing vector \
              leaves %d token(s) here, expected %d"
             final expected)
    done);
  (* --- structurally dead transitions ------------------------------ *)
  let dead = structurally_dead net in
  List.iter
    (fun t ->
      emit ?origin:(origin_of_transition t) "EZRT-L005" Error (trans t)
        "structurally dead — no reachable marking can ever satisfy its input \
         arcs")
    dead;
  (* --- sinks, isolated places, accumulators ----------------------- *)
  for t = 0 to nt - 1 do
    if Array.length (Pnet.post_arcs net t) = 0 then
      emit ?origin:(origin_of_transition t) "EZRT-L006" Warning (trans t)
        "sink transition — consumes tokens but produces none"
  done;
  for p = 0 to np - 1 do
    let produced = Array.length producers.(p) > 0 in
    let consumed = Array.length (Pnet.consumers_of net p) > 0 in
    if (not produced) && not consumed then
      emit ?origin:(origin_of_place p) "EZRT-L007" Info (place p)
        "isolated place — no arc touches it"
    else if
      produced && (not consumed)
      && (not (List.mem p final_places))
      && not (List.mem p dead_places)
    then
      emit ?origin:(origin_of_place p) "EZRT-L008" Info (place p)
        "accumulator place — produced but never consumed"
  done;
  (* --- siphon / trap hints ---------------------------------------- *)
  let name_list ps =
    String.concat ", " (List.map (Pnet.place_name net) ps)
  in
  (let siphon = unmarked_siphon net in
   if siphon <> [] then
     emit "EZRT-L009" Warning ("net " ^ net.Pnet.net_name)
       (Printf.sprintf
          "initially-unmarked siphon {%s} — these places stay empty forever \
           and every transition consuming from them is dead"
          (name_list siphon)));
  (let exclude = final_places @ dead_places in
   let trap = unmarked_trap ~exclude net in
   if trap <> [] then
     emit "EZRT-L014" Info ("net " ^ net.Pnet.net_name)
       (Printf.sprintf
          "initially-unmarked trap {%s} — once a token enters, the trap can \
           never fully drain"
          (name_list trap)));
  (* --- static time-interval sanity -------------------------------- *)
  for t = 0 to nt - 1 do
    if Pnet.interval net t |> Time_interval.lft = Time_interval.Infinity then
      let on_deadline_path =
        match required_firings with Some x -> x.(t) > 0 | None -> false
      in
      emit
        ?origin:(origin_of_transition t)
        "EZRT-L010"
        (if on_deadline_path then Error else Warning)
        (trans t)
        (if on_deadline_path then
           "no latest firing time, yet every feasible run must fire it — a \
            deadline can never be enforced along this path"
         else "no latest firing time — firing may be postponed forever")
  done;
  let diagnostics =
    List.sort
      (fun a b ->
        compare (a.code, a.subject, a.message) (b.code, b.subject, b.message))
      !diags
  in
  {
    net_name = net.Pnet.net_name;
    diagnostics;
    gates = [];
    certificates;
    truncated;
    covered_places;
    place_count = np;
    transition_count = nt;
  }

let flush_report report =
  Ezrt_obs.Metrics.incr (Lazy.force nets_counter);
  if report.truncated then
    Ezrt_obs.Metrics.incr (Lazy.force truncated_counter);
  List.iter
    (fun d -> Ezrt_obs.Metrics.incr (diag_counter d.severity))
    report.diagnostics

let check_net ?max_rows ?final_places ?dead_places ?resource_places
    ?required_firings ?origin_of_place ?origin_of_transition net =
  Ezrt_obs.Trace.with_span ~cat:"lint"
    ~args:[ ("net", Ezrt_obs.Trace.Str net.Pnet.net_name) ]
    (fun () ->
      let report =
        Ezrt_obs.Metrics.time (Lazy.force lint_timer) (fun () ->
            check_net_untraced ?max_rows ?final_places ?dead_places
              ?resource_places ?required_firings ?origin_of_place
              ?origin_of_transition net)
      in
      flush_report report;
      report)
    "lint"

let check_model ?max_rows (model : Translate.t) =
  Ezrt_obs.Trace.with_span ~cat:"lint"
    ~args:[ ("net", Ezrt_obs.Trace.Str model.Translate.net.Pnet.net_name) ]
    (fun () ->
      let net = model.Translate.net in
      let origin_of_place p =
        Some (Translate.origin_to_string model (Translate.place_origin model p))
      in
      let origin_of_transition t =
        Some
          (Translate.origin_to_string model
             (Translate.transition_origin model t))
      in
      let base =
        Ezrt_obs.Metrics.time (Lazy.force lint_timer) (fun () ->
            check_net_untraced ?max_rows
              ~final_places:[ model.Translate.final_place ]
              ~dead_places:model.Translate.dead_places
              ~resource_places:model.Translate.resource_places
              ~required_firings:(Translate.required_firings model)
              ~origin_of_place ~origin_of_transition net)
      in
      (* gate explain, cross-checked against the live gate *)
      let sub = explain_subsumption model in
      let live_sub = Class_search.subsumption_applicable model in
      let gate_diag code (g : gate) =
        {
          code;
          severity = Info;
          subject = "gate " ^ g.gate;
          message =
            (if g.gate_open then "open — the optimization applies to this net"
             else "closed: " ^ String.concat "; " g.reasons);
          origin = None;
        }
      in
      let mismatch_diag name explained live =
        if explained = live then []
        else begin
          Ezrt_obs.Metrics.incr (Lazy.force mismatch_counter);
          [
            {
              code = "EZRT-L013";
              severity = Error;
              subject = "gate " ^ name;
              message =
                Printf.sprintf
                  "gate-explain says %s but the live gate says %s — lint and \
                   engine have drifted apart"
                  (if explained then "open" else "closed")
                  (if live then "open" else "closed");
              origin = None;
            };
          ]
        end
      in
      let extra =
        gate_diag "EZRT-L012" sub
        :: mismatch_diag "subsumption" sub.gate_open live_sub
      in
      let diagnostics =
        List.sort
          (fun a b ->
            compare (a.code, a.subject, a.message)
              (b.code, b.subject, b.message))
          (extra @ base.diagnostics)
      in
      let report = { base with diagnostics; gates = [ sub ] } in
      flush_report report;
      report)
    "lint"

let check_spec ?max_rows spec =
  match Translate.translate spec with
  | model -> Ok (check_model ?max_rows model)
  | exception Failure msg -> Result.Error msg
  | exception Invalid_argument msg -> Result.Error msg

(* ------------------------------------------------------------------ *)
(* Renderers                                                          *)
(* ------------------------------------------------------------------ *)

let to_text report =
  let buf = Buffer.create 1024 in
  let errors = count Error report
  and warnings = count Warning report
  and infos = count Info report in
  Buffer.add_string buf
    (Printf.sprintf "lint %s: %d error(s), %d warning(s), %d info(s)\n"
       report.net_name errors warnings infos);
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "  %s %-7s %s: %s%s\n" d.code
           (severity_to_string d.severity)
           d.subject d.message
           (match d.origin with Some o -> " [" ^ o ^ "]" | None -> "")))
    report.diagnostics;
  Buffer.add_string buf
    (Printf.sprintf "invariants: %d certificate(s) covering %d/%d place(s)%s\n"
       (List.length report.certificates)
       report.covered_places report.place_count
       (if report.truncated then " (truncated)" else ""));
  List.iter
    (fun g ->
      Buffer.add_string buf
        (Printf.sprintf "gate %s: %s\n" g.gate
           (if g.gate_open then "open" else "closed")))
    report.gates;
  Buffer.contents buf

let json_of_diag d =
  Json.Obj
    [
      ("code", Json.Str d.code);
      ("severity", Json.Str (severity_to_string d.severity));
      ("subject", Json.Str d.subject);
      ("message", Json.Str d.message);
      ( "origin",
        match d.origin with Some o -> Json.Str o | None -> Json.Null );
    ]

let json_of_gate g =
  Json.Obj
    [
      ("gate", Json.Str g.gate);
      ("open", Json.Bool g.gate_open);
      ("reasons", Json.List (List.map (fun r -> Json.Str r) g.reasons));
    ]

let json_value report =
  Json.Obj
    [
      ("schema", Json.Str "ezrt-lint/1");
      ("net", Json.Str report.net_name);
      ( "summary",
        Json.Obj
          [
            ("errors", Json.Num (float_of_int (count Error report)));
            ("warnings", Json.Num (float_of_int (count Warning report)));
            ("infos", Json.Num (float_of_int (count Info report)));
          ] );
      ("diagnostics", Json.List (List.map json_of_diag report.diagnostics));
      ("gates", Json.List (List.map json_of_gate report.gates));
      ( "invariants",
        Json.Obj
          [
            ( "count",
              Json.Num (float_of_int (List.length report.certificates)) );
            ("truncated", Json.Bool report.truncated);
            ("covered_places", Json.Num (float_of_int report.covered_places));
            ("place_count", Json.Num (float_of_int report.place_count));
            ( "transition_count",
              Json.Num (float_of_int report.transition_count) );
            ( "certificates",
              Json.List
                (List.map
                   (fun y ->
                     Json.List
                       (Array.to_list
                          (Array.map
                             (fun w -> Json.Num (float_of_int w))
                             y)))
                   report.certificates) );
          ] );
    ]

let to_json report = Json.to_string (json_value report)

let sarif_level = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

let to_sarif ?uri report =
  let rules =
    List.map
      (fun (code, _sev, summary) ->
        Json.Obj
          [
            ("id", Json.Str code);
            ("shortDescription", Json.Obj [ ("text", Json.Str summary) ]);
          ])
      catalogue
  in
  let location d =
    let logical =
      Json.Obj
        [
          ("name", Json.Str d.subject);
          ( "fullyQualifiedName",
            Json.Str (report.net_name ^ "/" ^ d.subject) );
        ]
    in
    let fields = [ ("logicalLocations", Json.List [ logical ]) ] in
    let fields =
      match uri with
      | None -> fields
      | Some u ->
        ( "physicalLocation",
          Json.Obj
            [ ("artifactLocation", Json.Obj [ ("uri", Json.Str u) ]) ] )
        :: fields
    in
    Json.Obj fields
  in
  let results =
    List.map
      (fun d ->
        Json.Obj
          [
            ("ruleId", Json.Str d.code);
            ("level", Json.Str (sarif_level d.severity));
            ( "message",
              Json.Obj
                [
                  ( "text",
                    Json.Str
                      (d.subject ^ ": " ^ d.message
                      ^
                      match d.origin with
                      | Some o -> " [" ^ o ^ "]"
                      | None -> "") );
                ] );
            ("locations", Json.List [ location d ]);
          ])
      report.diagnostics
  in
  let driver =
    Json.Obj
      [
        ("name", Json.Str "ezrt-lint");
        ("version", Json.Str "1.0.0");
        ( "informationUri",
          Json.Str "https://example.org/ezrealtime/docs/LINT.md" );
        ("rules", Json.List rules);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ( "$schema",
           Json.Str "https://json.schemastore.org/sarif-2.1.0.json" );
         ("version", Json.Str "2.1.0");
         ( "runs",
           Json.List
             [
               Json.Obj
                 [
                   ("tool", Json.Obj [ ("driver", driver) ]);
                   ("results", Json.List results);
                 ];
             ] );
       ])
