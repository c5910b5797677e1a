module Doc = Ezrt_xml.Doc

let namespace = "http://pnmp.sf.net/EZRealtime"

type error = { context : string; message : string }

let error_to_string e = Printf.sprintf "DSL error (%s): %s" e.context e.message

exception Dsl_error of error

let fail context fmt =
  Printf.ksprintf (fun message -> raise (Dsl_error { context; message })) fmt

(* --- writing ------------------------------------------------------- *)

let refs_attr ids = String.concat " " (List.map (fun id -> "#" ^ id) ids)

let task_to_xml spec (t : Task.t) =
  let prec_targets =
    List.filter_map
      (fun (a, b) -> if String.equal a t.Task.id then Some b else None)
      spec.Spec.precedences
  in
  let excl_targets =
    List.concat_map
      (fun (a, b) ->
        if String.equal a t.Task.id then [ b ]
        else if String.equal b t.Task.id then [ a ]
        else [])
      spec.Spec.exclusions
  in
  let attrs =
    [ ("identifier", t.Task.id) ]
    @ (if prec_targets = [] then []
       else [ ("precedesTasks", refs_attr prec_targets) ])
    @
    if excl_targets = [] then []
    else [ ("excludesTasks", refs_attr excl_targets) ]
  in
  let leaf_int tag v = Doc.leaf tag (string_of_int v) in
  let children =
    [
      Doc.leaf "processor" t.Task.processor;
      Doc.leaf "name" t.Task.name;
      leaf_int "period" t.Task.period;
      leaf_int "phase" t.Task.phase;
      leaf_int "release" t.Task.release;
      leaf_int "power" t.Task.energy;
      Doc.leaf "schedulingMode" (Task.scheduling_mode_to_string t.Task.mode);
      leaf_int "computing" t.Task.wcet;
      leaf_int "deadline" t.Task.deadline;
    ]
    @ match t.Task.code with
      | Some code -> [ Doc.leaf "sourceCode" code ]
      | None -> []
  in
  Doc.elt "Task" ~attrs children

let message_to_xml (m : Message.t) =
  Doc.elt "Message"
    ~attrs:[ ("identifier", m.Message.id); ("bus", m.Message.bus) ]
    [
      Doc.leaf "name" m.Message.name;
      Doc.leaf "from" ("#" ^ m.Message.sender);
      Doc.leaf "to" ("#" ^ m.Message.receiver);
      Doc.leaf "grantBus" (string_of_int m.Message.grant_time);
      Doc.leaf "communication" (string_of_int m.Message.comm_time);
    ]

let processor_to_xml (p : Processor.t) =
  Doc.elt "Processor"
    ~attrs:[ ("identifier", p.Processor.id) ]
    [ Doc.leaf "name" p.Processor.name ]

let to_xml spec =
  let attrs =
    [ ("xmlns:rt", namespace); ("name", spec.Spec.name) ]
    @
    if spec.Spec.disp_overhead = 0 then []
    else [ ("dispatcherOverhead", string_of_int spec.Spec.disp_overhead) ]
  in
  Doc.elt "rt:ez-spec" ~attrs
    (List.map processor_to_xml spec.Spec.processors
    @ List.map (task_to_xml spec) spec.Spec.tasks
    @ List.map message_to_xml spec.Spec.messages)

let to_string spec = Doc.to_string_pretty ~decl:true (to_xml spec)

(* --- reading ------------------------------------------------------- *)

let strip_ref context s =
  let s = String.trim s in
  if String.length s > 1 && s.[0] = '#' then String.sub s 1 (String.length s - 1)
  else fail context "expected a #id reference, got %S" s

let refs_of_attr context s =
  String.split_on_char ' ' s
  |> List.filter (fun tok -> String.trim tok <> "")
  |> List.map (strip_ref context)

let int_child context node tag ~default =
  match Doc.child_text node tag with
  | None -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> fail context "element <%s> is not an integer: %S" tag s)

let req_int_child context node tag =
  match Doc.child_text node tag with
  | None -> fail context "missing element <%s>" tag
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> fail context "element <%s> is not an integer: %S" tag s)

let task_of_xml node =
  let id =
    match Doc.attr node "identifier" with
    | Some id -> id
    | None -> fail "Task" "missing identifier attribute"
  in
  let context = Printf.sprintf "Task %s" id in
  let name =
    match Doc.child_text node "name" with
    | Some n -> String.trim n
    | None -> id
  in
  let mode =
    match Doc.child_text node "schedulingMode" with
    | None -> Task.Non_preemptive
    | Some s -> (
      match Task.scheduling_mode_of_string (String.trim s) with
      | Some m -> m
      | None -> fail context "unknown schedulingMode %S" s)
  in
  let code = Doc.child_text node "sourceCode" in
  let processor =
    match Doc.child_text node "processor" with
    | Some p -> String.trim p
    | None -> "cpu0"
  in
  let task =
    Task.make ~id ~name
      ~phase:(int_child context node "phase" ~default:0)
      ~release:(int_child context node "release" ~default:0)
      ~energy:(int_child context node "power" ~default:0)
      ~mode ~processor ?code
      ~wcet:(req_int_child context node "computing")
      ~deadline:(req_int_child context node "deadline")
      ~period:(req_int_child context node "period")
      ()
  in
  let prec =
    match Doc.attr node "precedesTasks" with
    | None -> []
    | Some s -> List.map (fun b -> (id, b)) (refs_of_attr context s)
  in
  let excl =
    match Doc.attr node "excludesTasks" with
    | None -> []
    | Some s -> List.map (fun b -> (id, b)) (refs_of_attr context s)
  in
  (task, prec, excl)

let message_of_xml node =
  let id =
    match Doc.attr node "identifier" with
    | Some id -> id
    | None -> fail "Message" "missing identifier attribute"
  in
  let context = Printf.sprintf "Message %s" id in
  let text tag =
    match Doc.child_text node tag with
    | Some s -> String.trim s
    | None -> fail context "missing element <%s>" tag
  in
  Message.make ~id
    ~bus:(Option.value (Doc.attr node "bus") ~default:"bus0")
    ~grant_time:(int_child context node "grantBus" ~default:0)
    ~comm_time:(int_child context node "communication" ~default:1)
    ~name:(match Doc.child_text node "name" with Some n -> String.trim n | None -> id)
    ~sender:(strip_ref context (text "from"))
    ~receiver:(strip_ref context (text "to"))
    ()

let processor_of_xml node =
  let id =
    match Doc.attr node "identifier" with
    | Some id -> id
    | None -> fail "Processor" "missing identifier attribute"
  in
  let name =
    match Doc.child_text node "name" with
    | Some n -> String.trim n
    | None -> id
  in
  { Processor.id; name }

let of_xml node =
  match
    (match Doc.tag_of node with
    | Some "rt:ez-spec" | Some "ez-spec" -> ()
    | Some other -> fail "root" "expected <rt:ez-spec>, got <%s>" other
    | None -> fail "root" "expected an element");
    let name = Option.value (Doc.attr node "name") ~default:"untitled" in
    let disp_overhead =
      match Doc.attr node "dispatcherOverhead" with
      | None -> 0
      | Some s -> (
        match int_of_string_opt s with
        | Some v -> v
        | None -> fail "root" "dispatcherOverhead is not an integer: %S" s)
    in
    let parsed = List.map task_of_xml (Doc.find_children node "Task") in
    let tasks = List.map (fun (t, _, _) -> t) parsed in
    let precedences = List.concat_map (fun (_, p, _) -> p) parsed in
    let exclusions = List.concat_map (fun (_, _, e) -> e) parsed in
    let messages = List.map message_of_xml (Doc.find_children node "Message") in
    let processors =
      match Doc.find_children node "Processor" with
      | [] -> None
      | procs -> Some (List.map processor_of_xml procs)
    in
    Spec.make ~disp_overhead ?processors ~messages ~precedences ~exclusions
      ~name ~tasks ()
  with
  | spec -> Ok spec
  | exception Dsl_error e -> Error e

let of_string s =
  match Ezrt_xml.Parser.parse s with
  | Error e ->
    Error { context = "XML"; message = Ezrt_xml.Parser.error_to_string e }
  | Ok node -> of_xml node

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error { context = "file"; message = msg }

let save_file path spec =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string spec))
