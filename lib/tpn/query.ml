type comparison =
  | Le
  | Lt
  | Eq
  | Ne
  | Ge
  | Gt

type prop =
  | Atom of (string * int) list * comparison * int
  | Deadlock
  | Not of prop
  | And of prop * prop
  | Or of prop * prop

type query =
  | Ef of prop
  | Ag of prop

(* --- parsing -------------------------------------------------------- *)

type token =
  | Tword of string
  | Tint of int
  | Tcmp of comparison
  | Tplus
  | Tand
  | Tor
  | Tlpar
  | Trpar

let tokenize s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      match s.[i] with
      | ' ' | '\t' | '\n' -> go (i + 1) acc
      | '(' -> go (i + 1) (Tlpar :: acc)
      | ')' -> go (i + 1) (Trpar :: acc)
      | '+' -> go (i + 1) (Tplus :: acc)
      | '&' when i + 1 < n && s.[i + 1] = '&' -> go (i + 2) (Tand :: acc)
      | '|' when i + 1 < n && s.[i + 1] = '|' -> go (i + 2) (Tor :: acc)
      | '<' when i + 1 < n && s.[i + 1] = '=' -> go (i + 2) (Tcmp Le :: acc)
      | '<' -> go (i + 1) (Tcmp Lt :: acc)
      | '>' when i + 1 < n && s.[i + 1] = '=' -> go (i + 2) (Tcmp Ge :: acc)
      | '>' -> go (i + 1) (Tcmp Gt :: acc)
      | '=' -> go (i + 1) (Tcmp Eq :: acc)
      | '!' when i + 1 < n && s.[i + 1] = '=' -> go (i + 2) (Tcmp Ne :: acc)
      | '0' .. '9' ->
        let j = ref i in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
          incr j
        done;
        let lit = String.sub s i (!j - i) in
        (match int_of_string_opt lit with
        | Some k -> go !j (Tint k :: acc)
        | None ->
          Error
            (Printf.sprintf
               "integer literal %s at offset %d does not fit in an int" lit i))
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let j = ref i in
        let word_char c =
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '\'' -> true
          | _ -> false
        in
        while !j < n && word_char s.[!j] do
          incr j
        done;
        go !j (Tword (String.sub s i (!j - i)) :: acc)
      | c -> Error (Printf.sprintf "unexpected character %C" c)
  in
  go 0 []

exception Syntax of string

let parse input =
  let fail fmt = Printf.ksprintf (fun m -> raise (Syntax m)) fmt in
  let parse_tokens tokens =
    let rest = ref tokens in
    let peek () = match !rest with [] -> None | t :: _ -> Some t in
    let advance () =
      match !rest with
      | [] -> fail "unexpected end of query"
      | t :: tl ->
        rest := tl;
        t
    in
    (* term := (INT? word) ("+" INT? word)* *)
    let parse_term first_coeff first_word =
      let items = ref [ (first_word, first_coeff) ] in
      let rec more () =
        match peek () with
        | Some Tplus ->
          ignore (advance ());
          (match advance () with
          | Tint c -> (
            match advance () with
            | Tword w -> items := (w, c) :: !items
            | _ -> fail "expected a place name after coefficient")
          | Tword w -> items := (w, 1) :: !items
          | _ -> fail "expected a place after '+'");
          more ()
        | _ -> ()
      in
      more ();
      List.rev !items
    in
    let parse_atom_tail weighted =
      match advance () with
      | Tcmp cmp -> (
        match advance () with
        | Tint k -> Atom (weighted, cmp, k)
        | _ -> fail "expected an integer bound")
      | _ -> fail "expected a comparison operator"
    in
    let rec parse_or () =
      let left = parse_and () in
      match peek () with
      | Some Tor ->
        ignore (advance ());
        Or (left, parse_or ())
      | _ -> left
    and parse_and () =
      let left = parse_unary () in
      match peek () with
      | Some Tand ->
        ignore (advance ());
        And (left, parse_and ())
      | _ -> left
    and parse_unary () =
      match advance () with
      | Tword "not" -> Not (parse_unary ())
      | Tword "deadlock" -> Deadlock
      | Tword w -> parse_atom_tail (parse_term 1 w)
      | Tint c -> (
        match advance () with
        | Tword w -> parse_atom_tail (parse_term c w)
        | _ -> fail "expected a place after coefficient")
      | Tlpar ->
        let inner = parse_or () in
        (match advance () with
        | Trpar -> inner
        | _ -> fail "expected ')'")
      | Tcmp _ | Tplus | Tand | Tor | Trpar -> fail "unexpected token"
    in
    let quantifier =
      match advance () with
      | Tword "EF" -> `Ef
      | Tword "AG" -> `Ag
      | _ -> fail "query must start with EF or AG"
    in
    let body = parse_or () in
    if !rest <> [] then fail "trailing tokens after the property";
    match quantifier with `Ef -> Ef body | `Ag -> Ag body
  in
  match tokenize input with
  | Error msg -> Error msg
  | Ok tokens -> (
    match parse_tokens tokens with
    | q -> Ok q
    | exception Syntax msg -> Error msg)

let comparison_to_string = function
  | Le -> "<="
  | Lt -> "<"
  | Eq -> "="
  | Ne -> "!="
  | Ge -> ">="
  | Gt -> ">"

let rec prop_to_string = function
  | Atom (weighted, cmp, k) ->
    Printf.sprintf "%s %s %d"
      (String.concat " + "
         (List.map
            (fun (w, c) -> if c = 1 then w else Printf.sprintf "%d %s" c w)
            weighted))
      (comparison_to_string cmp) k
  | Deadlock -> "deadlock"
  | Not p -> Printf.sprintf "not (%s)" (prop_to_string p)
  | And (a, b) -> Printf.sprintf "(%s && %s)" (prop_to_string a) (prop_to_string b)
  | Or (a, b) -> Printf.sprintf "(%s || %s)" (prop_to_string a) (prop_to_string b)

let to_string = function
  | Ef p -> "EF " ^ prop_to_string p
  | Ag p -> "AG " ^ prop_to_string p

(* --- checking ------------------------------------------------------- *)

type verdict =
  | Holds of string list
  | Fails of string list
  | Unknown

let verdict_to_string = function
  | Holds [] -> "holds"
  | Holds witness ->
    Printf.sprintf "holds; witness: %s" (String.concat " " witness)
  | Fails [] -> "does not hold"
  | Fails counterexample ->
    Printf.sprintf "does not hold; counterexample: %s"
      (String.concat " " counterexample)
  | Unknown -> "unknown (state budget exhausted)"

(* resolve place names once *)
let rec resolve_prop net = function
  | Atom (weighted, cmp, k) ->
    let resolved =
      List.map
        (fun (name, coeff) ->
          match Pnet.find_place_opt net name with
          | Some p -> (p, coeff)
          | None -> raise Not_found)
        weighted
    in
    `Atom (resolved, cmp, k)
  | Deadlock -> `Deadlock
  | Not p -> `Not (resolve_prop net p)
  | And (a, b) -> `And (resolve_prop net a, resolve_prop net b)
  | Or (a, b) -> `Or (resolve_prop net a, resolve_prop net b)

let rec unknown_places net = function
  | Atom (weighted, _, _) ->
    List.filter_map
      (fun (name, _) ->
        if Pnet.find_place_opt net name = None then Some name else None)
      weighted
  | Deadlock -> []
  | Not p -> unknown_places net p
  | And (a, b) | Or (a, b) -> unknown_places net a @ unknown_places net b

let compare_ints cmp a b =
  match cmp with
  | Le -> a <= b
  | Lt -> a < b
  | Eq -> a = b
  | Ne -> a <> b
  | Ge -> a >= b
  | Gt -> a > b

let rec eval net (s : State.t) = function
  | `Atom (weighted, cmp, k) ->
    let total =
      List.fold_left
        (fun acc (p, coeff) -> acc + (coeff * s.State.marking.(p)))
        0 weighted
    in
    compare_ints cmp total k
  | `Deadlock -> State.enabled_ids s = []
  | `Not p -> not (eval net s p)
  | `And (a, b) -> eval net s a && eval net s b
  | `Or (a, b) -> eval net s a || eval net s b

(* BFS with parent pointers: the first state satisfying [target]
   yields the shortest witness. *)
let find_state ?(max_states = 100_000) net target =
  let seen = State.Table.create 1024 in
  let queue = Queue.create () in
  let truncated = ref false in
  let visit parent s =
    if not (State.Table.mem seen s) then begin
      if State.Table.length seen >= max_states then truncated := true
      else begin
        State.Table.replace seen s parent;
        Queue.push s queue
      end
    end
  in
  let witness s =
    let rec build acc s =
      match State.Table.find seen s with
      | None -> acc
      | Some (prev, tid) -> build (Pnet.transition_name net tid :: acc) prev
    in
    build [] s
  in
  let initial = State.initial net in
  visit None initial;
  let found = ref None in
  if target net initial then found := Some initial;
  while !found = None && not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    List.iter
      (fun (action, s') ->
        if !found = None && not (State.Table.mem seen s') then begin
          visit (Some (s, action.Tlts.tid)) s';
          if target net s' then found := Some s'
        end)
      (Tlts.successors `Earliest net s)
  done;
  match !found with
  | Some s -> `Found (witness s)
  | None -> if !truncated then `Truncated else `Absent

let check ?max_states net query =
  let body = match query with Ef p | Ag p -> p in
  match unknown_places net body with
  | _ :: _ as missing ->
    Error
      (Printf.sprintf "unknown place(s): %s"
         (String.concat ", " (List.sort_uniq compare missing)))
  | [] ->
    let resolved = resolve_prop net body in
    Ok
      (match query with
      | Ef _ -> (
        (* a state satisfying the property is a witness that EF holds *)
        match find_state ?max_states net (fun net s -> eval net s resolved) with
        | `Found witness -> Holds witness
        | `Absent -> Fails []
        | `Truncated -> Unknown)
      | Ag _ -> (
        (* a state violating the property refutes AG *)
        match
          find_state ?max_states net (fun net s -> not (eval net s resolved))
        with
        | `Found counterexample -> Fails counterexample
        | `Absent -> Holds []
        | `Truncated -> Unknown))

(* The same BFS over the dense-time class graph. *)
let find_class ?(max_classes = 100_000) ~priorities net target =
  let seen = State_class.Table.create 1024 in
  let queue = Queue.create () in
  let truncated = ref false in
  let visit parent c =
    if not (State_class.Table.mem seen c) then begin
      if State_class.Table.length seen >= max_classes then truncated := true
      else begin
        State_class.Table.replace seen c parent;
        Queue.push c queue
      end
    end
  in
  let witness c =
    let rec build acc c =
      match State_class.Table.find seen c with
      | None -> acc
      | Some (prev, tid) -> build (Pnet.transition_name net tid :: acc) prev
    in
    build [] c
  in
  let initial = State_class.initial net in
  visit None initial;
  let found = ref None in
  if target initial then found := Some initial;
  while !found = None && not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    List.iter
      (fun tid ->
        if !found = None then begin
          let c' = State_class.fire net c tid in
          if not (State_class.Table.mem seen c') then begin
            visit (Some (c, tid)) c';
            if target c' then found := Some c'
          end
        end)
      (State_class.firable ~priorities net c)
  done;
  match !found with
  | Some c -> `Found (witness c)
  | None -> if !truncated then `Truncated else `Absent

let rec eval_class net (c : State_class.t) = function
  | `Atom (weighted, cmp, k) ->
    let total =
      List.fold_left
        (fun acc (p, coeff) -> acc + (coeff * c.State_class.marking.(p)))
        0 weighted
    in
    compare_ints cmp total k
  | `Deadlock -> State_class.firable net c = []  (* prioritized *)
  | `Not p -> not (eval_class net c p)
  | `And (a, b) -> eval_class net c a && eval_class net c b
  | `Or (a, b) -> eval_class net c a || eval_class net c b

let check_classes ?max_classes ?(priorities = true) net query =
  let body = match query with Ef p | Ag p -> p in
  match unknown_places net body with
  | _ :: _ as missing ->
    Error
      (Printf.sprintf "unknown place(s): %s"
         (String.concat ", " (List.sort_uniq compare missing)))
  | [] ->
    let resolved = resolve_prop net body in
    Ok
      (match query with
      | Ef _ -> (
        match
          find_class ?max_classes ~priorities net (fun c ->
              eval_class net c resolved)
        with
        | `Found witness -> Holds witness
        | `Absent -> Fails []
        | `Truncated -> Unknown)
      | Ag _ -> (
        match
          find_class ?max_classes ~priorities net (fun c ->
              not (eval_class net c resolved))
        with
        | `Found counterexample -> Fails counterexample
        | `Absent -> Holds []
        | `Truncated -> Unknown))

let check_exn ?max_states net query_text =
  match parse query_text with
  | Error msg -> failwith ("query syntax: " ^ msg)
  | Ok query -> (
    match check ?max_states net query with
    | Ok verdict -> verdict
    | Error msg -> failwith msg)
