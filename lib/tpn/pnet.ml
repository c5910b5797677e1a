type place_id = int
type transition_id = int

type transition = {
  t_name : string;
  interval : Time_interval.t;
  priority : int;
  code : string option;
}

type t = {
  net_name : string;
  place_names : string array;
  transitions : transition array;
  pre : (place_id * int) array array;
  post : (place_id * int) array array;
  consumers : transition_id array array;
  m0 : int array;
}

let default_priority = 100

let place_count net = Array.length net.place_names
let transition_count net = Array.length net.transitions

let arc_count net =
  let sum arcs = Array.fold_left (fun acc a -> acc + Array.length a) 0 arcs in
  sum net.pre + sum net.post

let place_name net p = net.place_names.(p)
let transition_name net t = net.transitions.(t).t_name
let interval net t = net.transitions.(t).interval
let priority net t = net.transitions.(t).priority

let array_find_index f arr =
  let n = Array.length arr in
  let rec go i = if i >= n then None else if f arr.(i) then Some i else go (i + 1) in
  go 0

let find_place_opt net name =
  array_find_index (String.equal name) net.place_names

let find_transition_opt net name =
  array_find_index (fun t -> String.equal t.t_name name) net.transitions

let find_place net name =
  match find_place_opt net name with Some p -> p | None -> raise Not_found

let find_transition net name =
  match find_transition_opt net name with Some t -> t | None -> raise Not_found

let pre_arcs net t = net.pre.(t)
let post_arcs net t = net.post.(t)
let consumers_of net p = net.consumers.(p)

let producers net =
  let prod = Array.make (place_count net) [] in
  Array.iteri
    (fun t arcs ->
      Array.iter (fun (p, _) -> prod.(p) <- t :: prod.(p)) arcs)
    net.post;
  Array.map (fun ts -> Array.of_list (List.rev ts)) prod

let pp_summary fmt net =
  Format.fprintf fmt "%s: |P|=%d, |T|=%d, |F|=%d, tokens(m0)=%d" net.net_name
    (place_count net) (transition_count net) (arc_count net)
    (Array.fold_left ( + ) 0 net.m0)

module Builder = struct
  type net = t

  type t = {
    name : string;
    mutable places : (string * int) list;       (* reversed *)
    mutable trans : transition list;            (* reversed *)
    mutable n_places : int;
    mutable n_trans : int;
    pre_arcs : (int * int, int) Hashtbl.t;      (* (t, p) -> weight *)
    post_arcs : (int * int, int) Hashtbl.t;     (* (t, p) -> weight *)
    place_index : (string, int) Hashtbl.t;
    trans_index : (string, int) Hashtbl.t;
    mutable extra_tokens : (int * int) list;
  }

  let create name =
    {
      name;
      places = [];
      trans = [];
      n_places = 0;
      n_trans = 0;
      pre_arcs = Hashtbl.create 64;
      post_arcs = Hashtbl.create 64;
      place_index = Hashtbl.create 64;
      trans_index = Hashtbl.create 64;
      extra_tokens = [];
    }

  let add_place b ?(tokens = 0) name =
    if tokens < 0 then invalid_arg "Builder.add_place: negative tokens";
    if Hashtbl.mem b.place_index name then
      invalid_arg (Printf.sprintf "Builder.add_place: duplicate place %S" name);
    let id = b.n_places in
    b.n_places <- id + 1;
    b.places <- (name, tokens) :: b.places;
    Hashtbl.add b.place_index name id;
    id

  let add_transition b ?(priority = default_priority) ?code name interval =
    if Hashtbl.mem b.trans_index name then
      invalid_arg
        (Printf.sprintf "Builder.add_transition: duplicate transition %S" name);
    let id = b.n_trans in
    b.n_trans <- id + 1;
    b.trans <- { t_name = name; interval; priority; code } :: b.trans;
    Hashtbl.add b.trans_index name id;
    id

  let check_ids b p t who =
    if p < 0 || p >= b.n_places then
      invalid_arg (Printf.sprintf "Builder.%s: bad place id %d" who p);
    if t < 0 || t >= b.n_trans then
      invalid_arg (Printf.sprintf "Builder.%s: bad transition id %d" who t)

  let accumulate table key weight =
    let prev = Option.value (Hashtbl.find_opt table key) ~default:0 in
    Hashtbl.replace table key (prev + weight)

  let arc_pt b ?(weight = 1) p t =
    check_ids b p t "arc_pt";
    if weight < 1 then invalid_arg "Builder.arc_pt: weight < 1";
    accumulate b.pre_arcs (t, p) weight

  let arc_tp b ?(weight = 1) t p =
    check_ids b p t "arc_tp";
    if weight < 1 then invalid_arg "Builder.arc_tp: weight < 1";
    accumulate b.post_arcs (t, p) weight

  let add_tokens b p n =
    if p < 0 || p >= b.n_places then
      invalid_arg "Builder.add_tokens: bad place id";
    if n < 0 then invalid_arg "Builder.add_tokens: negative tokens";
    b.extra_tokens <- (p, n) :: b.extra_tokens

  let place_count b = b.n_places
  let transition_count b = b.n_trans

  let build b =
    let place_rows = Array.of_list (List.rev b.places) in
    let place_names = Array.map fst place_rows in
    let m0 = Array.map snd place_rows in
    List.iter (fun (p, n) -> m0.(p) <- m0.(p) + n) b.extra_tokens;
    let transitions = Array.of_list (List.rev b.trans) in
    (* one pass buckets the arcs by transition; rows are sorted by place *)
    let gather table =
      let rows = Array.make b.n_trans [] in
      Hashtbl.iter (fun (t, p) w -> rows.(t) <- (p, w) :: rows.(t)) table;
      Array.map (fun arcs -> Array.of_list (List.sort compare arcs)) rows
    in
    let pre = gather b.pre_arcs in
    let post = gather b.post_arcs in
    Array.iteri
      (fun t arcs ->
        if Array.length arcs = 0 then
          invalid_arg
            (Printf.sprintf "Builder.build: transition %S has no input arc"
               transitions.(t).t_name))
      pre;
    let consumer_lists = Array.make b.n_places [] in
    Array.iteri
      (fun t arcs ->
        Array.iter
          (fun (p, _) -> consumer_lists.(p) <- t :: consumer_lists.(p))
          arcs)
      pre;
    let consumers =
      Array.map (fun l -> Array.of_list (List.sort compare l)) consumer_lists
    in
    {
      net_name = b.name;
      place_names;
      transitions;
      pre;
      post;
      consumers;
      m0;
    }
end
