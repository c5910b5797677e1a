open Ezrt_tpn
module Doc = Ezrt_xml.Doc

let tool_name = "ezrealtime"
let net_type = "http://www.pnml.org/version-2009/grammar/ptnet"
let pnml_ns = "http://www.pnml.org/version-2009/grammar/pnml"

type error = { context : string; message : string }

let error_to_string e = Printf.sprintf "PNML error (%s): %s" e.context e.message

exception Pnml_error of error

let fail context fmt =
  Printf.ksprintf (fun message -> raise (Pnml_error { context; message })) fmt

(* --- writing ------------------------------------------------------- *)

let name_elt text = Doc.elt "name" [ Doc.leaf "text" text ]

let place_to_xml (net : Pnet.t) p =
  let marking = net.Pnet.m0.(p) in
  Doc.elt "place"
    ~attrs:[ ("id", Printf.sprintf "p%d" p) ]
    (name_elt (Pnet.place_name net p)
    ::
    (if marking = 0 then []
     else
       [
         Doc.elt "initialMarking" [ Doc.leaf "text" (string_of_int marking) ];
       ]))

let transition_to_xml (net : Pnet.t) tid =
  let itv = Pnet.interval net tid in
  let interval_attrs =
    ("eft", string_of_int (Time_interval.eft itv))
    ::
    (match Time_interval.lft itv with
    | Time_interval.Finite l -> [ ("lft", string_of_int l) ]
    | Time_interval.Infinity -> [])
  in
  let tool_children =
    [ Doc.elt "interval" ~attrs:interval_attrs [] ]
    @ (if Pnet.priority net tid = Pnet.default_priority then []
       else [ Doc.leaf "priority" (string_of_int (Pnet.priority net tid)) ])
    @
    match net.Pnet.transitions.(tid).Pnet.code with
    | Some code -> [ Doc.leaf "code" code ]
    | None -> []
  in
  Doc.elt "transition"
    ~attrs:[ ("id", Printf.sprintf "t%d" tid) ]
    [
      name_elt (Pnet.transition_name net tid);
      Doc.elt "toolspecific"
        ~attrs:[ ("tool", tool_name); ("version", "1.0") ]
        tool_children;
    ]

let arcs_to_xml (net : Pnet.t) =
  let arcs = ref [] in
  let counter = ref 0 in
  let emit source target weight =
    let id = Printf.sprintf "a%d" !counter in
    incr counter;
    let children =
      if weight = 1 then []
      else [ Doc.elt "inscription" [ Doc.leaf "text" (string_of_int weight) ] ]
    in
    arcs :=
      Doc.elt "arc" ~attrs:[ ("id", id); ("source", source); ("target", target) ]
        children
      :: !arcs
  in
  Array.iteri
    (fun tid pre ->
      Array.iter
        (fun (p, w) ->
          emit (Printf.sprintf "p%d" p) (Printf.sprintf "t%d" tid) w)
        pre)
    net.Pnet.pre;
  Array.iteri
    (fun tid post ->
      Array.iter
        (fun (p, w) ->
          emit (Printf.sprintf "t%d" tid) (Printf.sprintf "p%d" p) w)
        post)
    net.Pnet.post;
  List.rev !arcs

let to_xml (net : Pnet.t) =
  let places =
    List.init (Pnet.place_count net) (fun p -> place_to_xml net p)
  in
  let transitions =
    List.init (Pnet.transition_count net) (fun tid -> transition_to_xml net tid)
  in
  let page =
    Doc.elt "page"
      ~attrs:[ ("id", "page0") ]
      (places @ transitions @ arcs_to_xml net)
  in
  Doc.elt "pnml"
    ~attrs:[ ("xmlns", pnml_ns) ]
    [
      Doc.elt "net"
        ~attrs:[ ("id", "net0"); ("type", net_type) ]
        [ name_elt net.Pnet.net_name; page ];
    ]

let to_string net = Doc.to_string_pretty ~decl:true (to_xml net)

(* --- reading ------------------------------------------------------- *)

let text_of_name node =
  match Doc.find_child node "name" with
  | Some name -> Doc.child_text name "text"
  | None -> None

let int_text context node tag ~default =
  match Doc.find_child node tag with
  | None -> default
  | Some child -> (
    match Doc.child_text child "text" with
    | None -> default
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v -> v
      | None -> fail context "<%s> text is not an integer: %S" tag s))

let find_toolspecific node =
  List.find_opt
    (fun ts -> Doc.attr ts "tool" = Some tool_name)
    (Doc.find_children node "toolspecific")

let transition_extras context node =
  match find_toolspecific node with
  | None -> (Time_interval.make_unbounded 0, Pnet.default_priority, None)
  | Some ts ->
    let interval =
      match Doc.find_child ts "interval" with
      | None -> Time_interval.make_unbounded 0
      | Some itv -> (
        let attr_int key =
          Option.bind (Doc.attr itv key) int_of_string_opt
        in
        match attr_int "eft", Doc.attr itv "lft" with
        | Some eft, None -> Time_interval.make_unbounded eft
        | Some eft, Some _ -> (
          match attr_int "lft" with
          | Some lft -> Time_interval.make eft lft
          | None -> fail context "interval lft is not an integer")
        | None, _ -> fail context "interval without eft attribute")
    in
    let priority =
      match Doc.child_text ts "priority" with
      | None -> Pnet.default_priority
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some p -> p
        | None -> fail context "priority is not an integer: %S" s)
    in
    (interval, priority, Doc.child_text ts "code")

let node_id context node =
  match Doc.attr node "id" with
  | Some id -> id
  | None -> fail context "missing id attribute"

let of_xml root =
  match
    (match Doc.tag_of root with
    | Some "pnml" -> ()
    | Some other -> fail "root" "expected <pnml>, got <%s>" other
    | None -> fail "root" "expected an element");
    let net_node =
      match Doc.find_child root "net" with
      | Some n -> n
      | None -> fail "root" "missing <net>"
    in
    let net_name = Option.value (text_of_name net_node) ~default:"pnml-net" in
    let pages =
      match Doc.find_children net_node "page" with
      | [] -> [ net_node ]  (* tolerate pageless documents *)
      | pages -> pages
    in
    let b = Pnet.Builder.create net_name in
    let place_ids = Hashtbl.create 64 in
    let trans_ids = Hashtbl.create 64 in
    List.iter
      (fun page ->
        List.iter
          (fun node ->
            let id = node_id "place" node in
            let context = Printf.sprintf "place %s" id in
            let name = Option.value (text_of_name node) ~default:id in
            let tokens = int_text context node "initialMarking" ~default:0 in
            Hashtbl.replace place_ids id
              (Pnet.Builder.add_place b ~tokens name))
          (Doc.find_children page "place"))
      pages;
    List.iter
      (fun page ->
        List.iter
          (fun node ->
            let id = node_id "transition" node in
            let context = Printf.sprintf "transition %s" id in
            let name = Option.value (text_of_name node) ~default:id in
            let interval, priority, code = transition_extras context node in
            Hashtbl.replace trans_ids id
              (Pnet.Builder.add_transition b ~priority ?code name interval))
          (Doc.find_children page "transition"))
      pages;
    List.iter
      (fun page ->
        List.iter
          (fun node ->
            let id = node_id "arc" node in
            let context = Printf.sprintf "arc %s" id in
            let source =
              match Doc.attr node "source" with
              | Some s -> s
              | None -> fail context "missing source"
            in
            let target =
              match Doc.attr node "target" with
              | Some t -> t
              | None -> fail context "missing target"
            in
            let weight = int_text context node "inscription" ~default:1 in
            match
              Hashtbl.find_opt place_ids source, Hashtbl.find_opt trans_ids target
            with
            | Some p, Some t -> Pnet.Builder.arc_pt b ~weight p t
            | _ -> (
              match
                Hashtbl.find_opt trans_ids source, Hashtbl.find_opt place_ids target
              with
              | Some t, Some p -> Pnet.Builder.arc_tp b ~weight t p
              | _ -> fail context "source/target do not name a place-transition pair"))
          (Doc.find_children page "arc"))
      pages;
    Pnet.Builder.build b
  with
  | net -> Ok net
  | exception Pnml_error e -> Error e
  | exception Invalid_argument msg -> Error { context = "build"; message = msg }

let of_string s =
  match Ezrt_xml.Parser.parse s with
  | Error e ->
    Error { context = "XML"; message = Ezrt_xml.Parser.error_to_string e }
  | Ok node -> of_xml node

let save_file path net =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string net))

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error { context = "file"; message = msg }
