open Ezrt_tpn
open Test_util

let test_universe_nonempty () =
  let d = Dbm.create 2 in
  Dbm.canonicalize d;
  check_bool "nonempty" false (Dbm.is_empty d);
  (* sized for two variables: x_2 exists and is unbounded *)
  check_int "x_2 unbounded" Dbm.infinity (Dbm.get d 2 0)

let test_constrain_and_bounds () =
  let d = Dbm.create 1 in
  Dbm.constrain d 1 0 7;
  Dbm.constrain d 0 1 (-2);
  Dbm.canonicalize d;
  check_bool "consistent" false (Dbm.is_empty d);
  check_bool "bounds" true (Dbm.bounds d 1 = (2, 7))

let test_tightening_only () =
  let d = Dbm.create 1 in
  Dbm.constrain d 1 0 5;
  Dbm.constrain d 1 0 9;  (* looser: ignored *)
  check_int "kept tight" 5 (Dbm.get d 1 0)

let test_inconsistency_detected () =
  let d = Dbm.create 1 in
  Dbm.constrain d 1 0 1;  (* x <= 1 *)
  Dbm.constrain d 0 1 (-3);  (* x >= 3 *)
  Dbm.canonicalize d;
  check_bool "empty" true (Dbm.is_empty d)

let test_transitive_tightening () =
  (* x - y <= 2, y <= 3  =>  x <= 5 *)
  let d = Dbm.create 2 in
  Dbm.constrain d 1 2 2;
  Dbm.constrain d 2 0 3;
  Dbm.constrain d 0 1 0;
  Dbm.constrain d 0 2 0;
  Dbm.canonicalize d;
  check_int "derived upper bound" 5 (Dbm.get d 1 0)

let test_equal_hash () =
  let make () =
    let d = Dbm.create 2 in
    Dbm.constrain d 1 0 4;
    Dbm.constrain d 0 2 (-1);
    Dbm.canonicalize d;
    d
  in
  let a = make () and b = make () in
  check_bool "equal" true (Dbm.equal a b);
  check_int "hash agrees" (Dbm.hash a) (Dbm.hash b);
  Dbm.constrain b 1 0 2;
  check_bool "not equal after change" false (Dbm.equal a b)

let test_subset () =
  let mk hi =
    let d = Dbm.create 1 in
    Dbm.constrain d 1 0 hi;
    Dbm.constrain d 0 1 0;
    Dbm.canonicalize d;
    d
  in
  check_bool "tighter in looser" true (Dbm.subset (mk 3) (mk 5));
  check_bool "looser not in tighter" false (Dbm.subset (mk 5) (mk 3));
  check_bool "reflexive" true (Dbm.subset (mk 4) (mk 4));
  check_bool "dimension mismatch" false (Dbm.subset (mk 3) (Dbm.create 2))

(* Seed-driven random canonical matrix, plus the LCG for drawing more
   values afterwards; the same recipe as prop_canonical_idempotent. *)
let random_canonical dim seed =
  let d = Dbm.create dim in
  let rng = ref seed in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    !rng
  in
  for _ = 1 to 6 do
    let i = next () mod (dim + 1) and j = next () mod (dim + 1) in
    if i <> j then Dbm.constrain d i j ((next () mod 15) - 3)
  done;
  Dbm.canonicalize d;
  (d, next)

let prop_subset_partial_order =
  qcheck ~count:300 "subset reflexive + antisymmetric on canonical forms"
    QCheck.(triple (int_range 1 3) (int_range 0 1_000_000)
              (int_range 0 1_000_000))
    (fun (dim, s1, s2) ->
      let a, _ = random_canonical dim s1 in
      let b, _ = random_canonical dim s2 in
      if Dbm.is_empty a || Dbm.is_empty b then true
      else
        Dbm.subset a a
        && ((not (Dbm.subset a b && Dbm.subset b a)) || Dbm.equal a b))

(* The reference the closed forms replace: the fires-first domain as
   the constraints x_f - x_j <= 0, one per other variable j, added to
   a copy and closed by Floyd-Warshall. *)
let tighten_chain dim d f =
  let r = Dbm.copy d in
  for j = 1 to dim do
    if j <> f then Dbm.constrain r f j 0
  done;
  Dbm.canonicalize r;
  r

(* Bounds that leave every fresh variable of a successor unconstrained. *)
let unbounded k = (Array.make k (-Dbm.infinity), Array.make k Dbm.infinity)

(* Random canonical matrices with every variable bounded below by 0
   and above, like a class domain, plus up to [max_differences - 1]
   random differences. *)
let random_domain ?(max_differences = 4) dim seed =
  let d = Dbm.create dim in
  let rng = ref seed in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    !rng
  in
  for v = 1 to dim do
    let lo = next () mod 6 in
    Dbm.constrain d 0 v (-lo);
    if next () mod 4 <> 0 then Dbm.constrain d v 0 (lo + (next () mod 8))
  done;
  for _ = 1 to next () mod max_differences do
    let i = 1 + (next () mod dim) and j = 1 + (next () mod dim) in
    if i <> j then Dbm.constrain d i j ((next () mod 9) - 4)
  done;
  Dbm.canonicalize d;
  (d, next)

(* Entry (a, b) of [successor d f vars] is the fires-first domain
   between old indices [src a] and [src b], the new reference standing
   for x_f; fresh variables are unconstrained. *)
let successor_matches chain d f vars =
  let lo, hi = unbounded (Array.length vars) in
  let s = Dbm.successor d f vars ~lo ~hi in
  let src a = if a = 0 then f else vars.(a - 1) in
  let indices = List.init (Array.length vars + 1) Fun.id in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          let expected =
            if a = b then 0
            else if src a < 0 || src b < 0 then Dbm.infinity
            else Dbm.get chain (src a) (src b)
          in
          Dbm.get s a b = expected)
        indices)
    indices

(* The verdict and the whole fires-first domain: keeping every old
   index but f, the old reference 0 included, [successor] reads out
   every entry of the closed form. *)
let prop_fires_first_closed_form =
  qcheck ~count:1000 "fires-first closed form = tighten chain (bit-for-bit)"
    QCheck.(triple (int_range 1 6) (int_range 0 1_000_000) bool)
    (fun (dim, seed, domain_like) ->
      let d, next =
        if domain_like then random_domain dim seed else random_canonical dim seed
      in
      Dbm.is_empty d
      ||
      let f = 1 + (next () mod dim) in
      let chain = tighten_chain dim d f in
      let firable = not (Dbm.is_empty chain) in
      Dbm.can_fire_first d f = firable
      && ((not firable)
         ||
         let all_but_f =
           Array.of_list
             (List.filter (fun v -> v <> f) (List.init (dim + 1) Fun.id))
         in
         successor_matches chain d f all_but_f))

(* The projection State_class.fire asks for: some variables, in any
   order, plus fresh ones; the result is already canonical. *)
let prop_successor_projects_closed_form =
  qcheck ~count:500 "successor projects the fires-first domain"
    QCheck.(pair (int_range 1 6) (int_range 0 1_000_000))
    (fun (dim, seed) ->
      let d, next = random_domain dim seed in
      let f = 1 + (next () mod dim) in
      let chain = tighten_chain dim d f in
      Dbm.is_empty chain
      ||
      let vars =
        Array.init (next () mod (dim + 2)) (fun _ ->
            let v = 1 + (next () mod (dim + 1)) in
            if v = f || v > dim then -1 else v)
      in
      let lo, hi = unbounded (Array.length vars) in
      let s = Dbm.successor d f vars ~lo ~hi in
      let again = Dbm.copy s in
      Dbm.canonicalize again;
      Dbm.equal s again && successor_matches chain d f vars)

(* Fresh variables in closed form: [successor] with static bounds must
   equal, bit for bit, the successor with unconstrained fresh variables
   bounded afterwards by [constrain] and closed by [canonicalize].
   Projections keep 0 to [dim] old variables, add 1 to 3 fresh ones
   anywhere among them, and draw point intervals and unbounded upper
   ends along with ordinary ones.  The unconstrained successor is also
   checked against the fires-first domain closed by Floyd-Warshall. *)
let fresh_closed_form ~f d next dim =
  (not (Dbm.can_fire_first d f))
  ||
  let persistent =
    List.filter
      (fun v -> v <> f && next () mod 3 <> 0)
      (List.init dim (fun v -> v + 1))
  in
  let vars =
    persistent @ List.init (1 + (next () mod 3)) (fun _ -> -1)
    |> List.map (fun v -> (next (), v))
    |> List.sort compare |> List.map snd |> Array.of_list
  in
  let k = Array.length vars in
  let lo = Array.init k (fun _ -> next () mod 6) in
  let hi =
    Array.init k (fun i ->
        match next () mod 4 with
        | 0 -> lo.(i)
        | 1 -> Dbm.infinity
        | _ -> lo.(i) + (next () mod 8))
  in
  let s = Dbm.successor d f vars ~lo ~hi in
  successor_matches (tighten_chain dim d f) d f vars
  &&
  let ulo, uhi = unbounded k in
  let reference = Dbm.successor d f vars ~lo:ulo ~hi:uhi in
  Array.iteri
    (fun i v ->
      if v < 0 then begin
        Dbm.constrain reference (i + 1) 0 hi.(i);
        Dbm.constrain reference 0 (i + 1) (-lo.(i))
      end)
    vars;
  Dbm.canonicalize reference;
  Dbm.equal s reference

let prop_fresh_closed_form =
  qcheck ~count:1000
    "fresh variables closed form = constrain + canonicalize (bit-for-bit)"
    QCheck.(triple (int_range 1 6) (int_range 0 1_000_000) bool)
    (fun (dim, seed, domain_like) ->
      let d, next =
        if domain_like then random_domain dim seed else random_canonical dim seed
      in
      Dbm.is_empty d || fresh_closed_form ~f:(1 + (next () mod dim)) d next dim)

(* The same at the dimensions the class engine runs at (mine-pump's
   domains have about 16 variables), on class-like domains with up to
   [dim / 2 - 1] random differences.  At these sizes a variable drawn
   at random seldom can fire first, so [f] is the first one that can,
   counting from a random variable; about 70% of the draws reach the
   comparison, the rest are empty or have no such variable. *)
let prop_fresh_closed_form_engine_sizes =
  qcheck ~count:300
    "successor at dimensions 7-24 = constrain + canonicalize (bit-for-bit)"
    QCheck.(pair (int_range 7 24) (int_range 0 1_000_000))
    (fun (dim, seed) ->
      let d, next = random_domain ~max_differences:(dim / 2) dim seed in
      Dbm.is_empty d
      ||
      let start = next () in
      match
        List.find_opt (Dbm.can_fire_first d)
          (List.init dim (fun i -> 1 + ((start + i) mod dim)))
      with
      | None -> true
      | Some f -> fresh_closed_form ~f d next dim)

let prop_canonical_idempotent =
  qcheck ~count:100 "canonicalize is idempotent"
    QCheck.(pair (int_range 1 4) (int_range 0 1000))
    (fun (dim, seed) ->
      let d = Dbm.create dim in
      let rng = ref seed in
      let next () =
        rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
        !rng
      in
      for _ = 1 to 6 do
        let i = next () mod (dim + 1) and j = next () mod (dim + 1) in
        if i <> j then Dbm.constrain d i j ((next () mod 15) - 3)
      done;
      Dbm.canonicalize d;
      if Dbm.is_empty d then true
      else begin
        let again = Dbm.copy d in
        Dbm.canonicalize again;
        Dbm.equal d again
      end)

let suite =
  [
    case "universe" test_universe_nonempty;
    case "constrain and bounds" test_constrain_and_bounds;
    case "constrain only tightens" test_tightening_only;
    case "inconsistency detected" test_inconsistency_detected;
    case "transitive tightening" test_transitive_tightening;
    case "equality and hashing" test_equal_hash;
    case "subset (inclusion)" test_subset;
    prop_canonical_idempotent;
    prop_subset_partial_order;
    prop_fires_first_closed_form;
    prop_successor_projects_closed_form;
    prop_fresh_closed_form;
    prop_fresh_closed_form_engine_sizes;
  ]
