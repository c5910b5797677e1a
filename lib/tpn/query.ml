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

(* Resolve place names once; unknown names are collected in
   [missing], and a prop with any is never evaluated. *)
let rec resolve_prop net missing = function
  | Atom (weighted, cmp, k) ->
    let place (name, coeff) =
      match Pnet.find_place_opt net name with
      | Some p -> (p, coeff)
      | None ->
        missing := name :: !missing;
        (-1, coeff)
    in
    `Atom (List.map place weighted, cmp, k)
  | Deadlock -> `Deadlock
  | Not p -> `Not (resolve_prop net missing p)
  | And (a, b) -> `And (resolve_prop net missing a, resolve_prop net missing b)
  | Or (a, b) -> `Or (resolve_prop net missing a, resolve_prop net missing b)

let compare_ints cmp a b =
  match cmp with
  | Le -> a <= b
  | Lt -> a < b
  | Eq -> a = b
  | Ne -> a <> b
  | Ge -> a >= b
  | Gt -> a > b

(* One evaluator for both semantics: a node is read through its
   marking and its own deadlock test. *)
let rec eval marking deadlock = function
  | `Atom (weighted, cmp, k) ->
    let total =
      List.fold_left (fun acc (p, coeff) -> acc + (coeff * marking.(p))) 0
        weighted
    in
    compare_ints cmp total k
  | `Deadlock -> deadlock ()
  | `Not p -> not (eval marking deadlock p)
  | `And (a, b) -> eval marking deadlock a && eval marking deadlock b
  | `Or (a, b) -> eval marking deadlock a || eval marking deadlock b

(* Resolve the place names, then let [walk] search breadth-first for
   the first admitted node deciding the query: a satisfying node is a
   witness that EF holds, a violating node refutes AG.  The first such
   node yields a shortest firing sequence. *)
let decide net query walk =
  let missing = ref [] in
  let prop = resolve_prop net missing (match query with Ef p | Ag p -> p) in
  match !missing with
  | _ :: _ ->
    Error
      (Printf.sprintf "unknown place(s): %s"
         (String.concat ", " (List.sort_uniq compare !missing)))
  | [] ->
    let wanted = match query with Ef _ -> true | Ag _ -> false in
    let r =
      walk (fun marking deadlock -> eval marking deadlock prop = wanted)
    in
    let names = List.map (Pnet.transition_name net) in
    Ok
      (match (r.Reach.found, query) with
      | Some path, Ef _ -> Holds (names path)
      | Some path, Ag _ -> Fails (names path)
      | None, _ when r.Reach.truncated -> Unknown
      | None, Ef _ -> Fails []
      | None, Ag _ -> Holds [])

let check ?(max_states = 100_000) net query =
  decide net query (fun decides ->
      let seen = State.Table.create 1024 in
      Reach.bfs ~max_nodes:max_states
        ~fresh:(fun s -> not (State.Table.mem seen s))
        ~on_node:(fun s -> State.Table.replace seen s ())
        ~stop:(fun s ->
          decides s.State.marking (fun () -> State.enabled_ids s = []))
        ~successors:(fun s ->
          List.map
            (fun (action, s') -> (action.Tlts.tid, s'))
            (Tlts.successors `Earliest net s))
        (State.initial net))

(* [Deadlock] reads the prioritized firable set whatever [priorities] *)
let check_classes ?(max_classes = 100_000) ?(priorities = true) net query =
  decide net query (fun decides ->
      let store = Class_store.create ~subsume:false () in
      Reach.bfs ~max_nodes:max_classes
        ~fresh:(fun (c : State_class.t) ->
          Class_store.visit store ~marking:c.marking ~domain:c.domain
          = Class_store.Fresh)
        ~stop:(fun (c : State_class.t) ->
          decides c.marking (fun () -> State_class.firable net c = []))
        ~successors:(fun c ->
          List.map
            (fun tid -> (tid, State_class.fire net c tid))
            (State_class.firable ~priorities net c))
        (State_class.initial net))

let check_exn ?max_states net query_text =
  match parse query_text with
  | Error msg -> failwith ("query syntax: " ^ msg)
  | Ok query -> (
    match check ?max_states net query with
    | Ok verdict -> verdict
    | Error msg -> failwith msg)
