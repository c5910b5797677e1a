(* Interoperability and analysis walkthrough: export a generated time
   Petri net to PNML (the ISO/IEC 15909-2 transfer format the paper
   adopts), read it back, and prove resource safety twice — once by
   exhaustive reachability and once by place invariants.

   Run with:  dune exec examples/interop.exe *)

open Ezrealtime

let () =
  let spec = Case_studies.fig4_exclusion in
  let model = Translate.translate spec in
  let net = model.Translate.net in
  Format.printf "source net: %a@." Pnet.pp_summary net;

  (* 1. PNML round-trip, as another tool (TINA, Romeo, ...) would
     consume it. *)
  let doc = Pnml.to_string net in
  Format.printf "PNML document: %d bytes@." (String.length doc);
  let reloaded =
    match Pnml.of_string doc with
    | Ok reloaded -> reloaded
    | Error e -> failwith (Pnml.error_to_string e)
  in
  Format.printf "reloaded:   %a@." Pnet.pp_summary reloaded;

  (* 2. Behavioural proof: explore every reachable state and check the
     processor and the exclusion slot never hold two tokens. *)
  let report = Analysis.reachability_report ~max_states:100_000 reloaded in
  Format.printf
    "reachability: %d states, %d edges; every resource place 1-safe: %b@."
    report.Analysis.reachable_states report.Analysis.edges
    (List.for_all
       (fun p -> Analysis.is_safe_place report p)
       model.Translate.resource_places);

  (* 3. Structural proof of the same fact, without any state space:
     place invariants cover each resource with bound constant/weight =
     1. *)
  let invariants =
    Invariants.invariants_of (Invariants.p_invariants ~max_rows:20_000 reloaded)
  in
  Format.printf "place invariants found: %d@." (List.length invariants);
  List.iter
    (fun place ->
      match Invariants.invariant_covering reloaded place invariants with
      | Some y ->
        Format.printf "  %-14s bounded at %d token(s) structurally@."
          (Pnet.place_name reloaded place)
          (Invariants.conserved_constant reloaded y / y.(place))
      | None ->
        Format.printf "  %-14s not covered by any invariant@."
          (Pnet.place_name reloaded place))
    model.Translate.resource_places;

  (* 4. Reachability queries (the paper's "checking properties"). *)
  List.iter
    (fun q ->
      Format.printf "  %-34s %s@." q
        (Query.verdict_to_string (Query.check_exn reloaded q)))
    [
      "AG pexcl_T0_T2 <= 1";
      "AG pwx_T0 + pwx_T2 <= 1";
      "EF pend >= 1";
    ];

  (* 5. Graphviz export for the paper's figures. *)
  Out_channel.with_open_text "fig4.dot" (fun oc ->
      Out_channel.output_string oc (Dot.to_dot reloaded));
  Format.printf "wrote fig4.dot (render with: dot -Tpdf fig4.dot)@."
