type error = { line : int; message : string }

let error_to_string e =
  Printf.sprintf "TINA .net error at line %d: %s" e.line e.message

exception Tina_error of error

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Tina_error { line; message })) fmt

(* TINA names with special characters must be brace-quoted; we mangle
   instead (our generated names are already plain). *)
let plain_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '\'' -> c
      | _ -> '_')
    name

let to_string (net : Pnet.t) =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "net %s\n" (plain_name net.Pnet.net_name);
  let arc (p, w) =
    if w = 1 then plain_name (Pnet.place_name net p)
    else Printf.sprintf "%s*%d" (plain_name (Pnet.place_name net p)) w
  in
  Array.iteri
    (fun tid (tr : Pnet.transition) ->
      let itv = tr.Pnet.interval in
      let interval =
        match Time_interval.lft itv with
        | Time_interval.Finite l ->
          Printf.sprintf "[%d,%d]" (Time_interval.eft itv) l
        | Time_interval.Infinity ->
          Printf.sprintf "[%d,w[" (Time_interval.eft itv)
      in
      out "tr %s %s %s -> %s\n"
        (plain_name tr.Pnet.t_name)
        interval
        (String.concat " " (Array.to_list (Array.map arc net.Pnet.pre.(tid))))
        (String.concat " " (Array.to_list (Array.map arc net.Pnet.post.(tid))));
      if tr.Pnet.priority <> Pnet.default_priority then
        out "# priority %s %d\n" (plain_name tr.Pnet.t_name) tr.Pnet.priority)
    net.Pnet.transitions;
  Array.iteri
    (fun p name ->
      let tokens = net.Pnet.m0.(p) in
      if tokens = 0 then out "pl %s\n" (plain_name name)
      else out "pl %s (%d)\n" (plain_name name) tokens)
    net.Pnet.place_names;
  Buffer.contents buf

(* --- reading -------------------------------------------------------- *)

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_interval lineno s =
  (* [a,b] or [a,w[ *)
  let n = String.length s in
  if n < 5 || s.[0] <> '[' then fail lineno "malformed interval %S" s;
  let closer = s.[n - 1] in
  let body = String.sub s 1 (n - 2) in
  match String.split_on_char ',' body with
  | [ a; b ] -> (
    let eft =
      match int_of_string_opt a with
      | Some v -> v
      | None -> fail lineno "bad interval bound %S" a
    in
    match b, closer with
    | "w", '[' -> Time_interval.make_unbounded eft
    | _, ']' -> (
      match int_of_string_opt b with
      | Some lft -> Time_interval.make eft lft
      | None -> fail lineno "bad interval bound %S" b)
    | _, _ -> fail lineno "malformed interval %S" s)
  | _ -> fail lineno "malformed interval %S" s

let parse_arc lineno s =
  match String.index_opt s '*' with
  | None -> (s, 1)
  | Some i -> (
    let name = String.sub s 0 i in
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some w when w >= 1 -> (name, w)
    | Some _ | None -> fail lineno "bad arc weight in %S" s)

type raw_transition = {
  rt_line : int;
  rt_name : string;
  rt_interval : Time_interval.t;
  rt_pre : (string * int) list;
  rt_post : (string * int) list;
}

let of_string text =
  match
    let lines = String.split_on_char '\n' text in
    let name = ref "tina-net" in
    let transitions = ref [] in
    let places = ref [] in
    let priorities = ref [] in
    List.iteri
      (fun idx line ->
        let lineno = idx + 1 in
        let line = String.trim line in
        if line = "" then ()
        else
          match split_words line with
          | "net" :: rest -> name := String.concat " " rest
          | [ "#"; "priority"; t; p ] -> (
            match int_of_string_opt p with
            | Some p -> priorities := (t, p) :: !priorities
            | None -> fail lineno "bad priority %S" p)
          | "#" :: _ -> ()  (* other comments *)
          | "tr" :: tname :: interval :: rest ->
            let itv = parse_interval lineno interval in
            let rec split_at_arrow acc = function
              | [] -> fail lineno "transition %s has no ->" tname
              | "->" :: outputs -> (List.rev acc, outputs)
              | w :: rest -> split_at_arrow (w :: acc) rest
            in
            let inputs, outputs = split_at_arrow [] rest in
            transitions :=
              {
                rt_line = lineno;
                rt_name = tname;
                rt_interval = itv;
                rt_pre = List.map (parse_arc lineno) inputs;
                rt_post = List.map (parse_arc lineno) outputs;
              }
              :: !transitions
          | [ "pl"; pname ] -> places := (pname, 0) :: !places
          | [ "pl"; pname; marking ] ->
            let n = String.length marking in
            if n >= 3 && marking.[0] = '(' && marking.[n - 1] = ')' then
              match int_of_string_opt (String.sub marking 1 (n - 2)) with
              | Some tokens when tokens >= 0 ->
                places := (pname, tokens) :: !places
              | Some _ | None -> fail lineno "bad marking %S" marking
            else fail lineno "bad marking %S" marking
          | word :: _ -> fail lineno "unknown directive %S" word
          | [] -> ())
      lines;
    let b = Pnet.Builder.create !name in
    let place_ids = Hashtbl.create 64 in
    let place_of lineno pname =
      match Hashtbl.find_opt place_ids pname with
      | Some id -> id
      | None ->
        (* TINA allows arcs to implicitly declare places *)
        ignore lineno;
        let id = Pnet.Builder.add_place b pname in
        Hashtbl.replace place_ids pname id;
        id
    in
    List.iter
      (fun (pname, tokens) ->
        match Hashtbl.find_opt place_ids pname with
        | Some id -> Pnet.Builder.add_tokens b id tokens
        | None ->
          let id = Pnet.Builder.add_place b ~tokens pname in
          Hashtbl.replace place_ids pname id)
      (List.rev !places);
    List.iter
      (fun rt ->
        let priority =
          Option.value
            (List.assoc_opt rt.rt_name !priorities)
            ~default:Pnet.default_priority
        in
        let tid =
          Pnet.Builder.add_transition b ~priority rt.rt_name rt.rt_interval
        in
        List.iter
          (fun (pname, w) ->
            Pnet.Builder.arc_pt b ~weight:w (place_of rt.rt_line pname) tid)
          rt.rt_pre;
        List.iter
          (fun (pname, w) ->
            Pnet.Builder.arc_tp b ~weight:w tid (place_of rt.rt_line pname))
          rt.rt_post)
      (List.rev !transitions);
    Pnet.Builder.build b
  with
  | net -> Ok net
  | exception Tina_error e -> Error e
  | exception Invalid_argument msg -> Error { line = 0; message = msg }

let save_file path net =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string net))

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error { line = 0; message = msg }
