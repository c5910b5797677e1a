let incidence (net : Pnet.t) =
  let n_places = Pnet.place_count net in
  let n_trans = Pnet.transition_count net in
  let c = Array.make_matrix n_places n_trans 0 in
  Array.iteri
    (fun t arcs -> Array.iter (fun (p, w) -> c.(p).(t) <- c.(p).(t) - w) arcs)
    net.Pnet.pre;
  Array.iteri
    (fun t arcs -> Array.iter (fun (p, w) -> c.(p).(t) <- c.(p).(t) + w) arcs)
    net.Pnet.post;
  c

let is_invariant net y =
  let c = incidence net in
  let n_places = Array.length c in
  if Array.length y <> n_places then false
  else begin
    let n_trans = Pnet.transition_count net in
    let rec column t =
      t >= n_trans
      ||
      let sum = ref 0 in
      for p = 0 to n_places - 1 do
        sum := !sum + (y.(p) * c.(p).(t))
      done;
      !sum = 0 && column (t + 1)
    in
    column 0
  end

let weighted_tokens y marking =
  let total = ref 0 in
  Array.iteri (fun p w -> total := !total + (w * marking.(p))) y;
  !total

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let normalize row =
  let g = Array.fold_left (fun acc x -> gcd acc (abs x)) 0 row in
  if g > 1 then Array.map (fun x -> x / g) row else row

let support row =
  let acc = ref [] in
  Array.iteri (fun i x -> if x <> 0 then acc := i :: !acc) row;
  !acc

type outcome =
  | Complete of int array list
  | Truncated of int array list

let invariants_of = function Complete ys | Truncated ys -> ys
let is_truncated = function Complete _ -> false | Truncated _ -> true

let default_max_rows = 20_000

(* Supports as bitsets: place p is bit (p mod word_bits) of word
   (p / word_bits), 63-bit words on a 64-bit host. *)
let word_bits = Sys.int_size

let bitset_of n_words y =
  let s = Array.make n_words 0 in
  Array.iteri
    (fun p x ->
      if x <> 0 then
        let w = p / word_bits in
        s.(w) <- s.(w) lor (1 lsl (p mod word_bits)))
    y;
  s

let subset a b =
  let n = Array.length a in
  let rec go i = i = n || (a.(i) land lnot b.(i) = 0 && go (i + 1)) in
  go 0

(* Rows are mostly zero: the stdlib's generic hash reads only the first
   few entries, so hash the nonzero ones instead. *)
module Vec = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash y =
    let h = ref 0 in
    Array.iteri (fun i x -> if x <> 0 then h := (((!h * 31) + i) * 31) + x) y;
    !h land max_int
end)

(* A Farkas row: the candidate invariant [y], its residual r = y . C
   and the support of [y] as a bitset. *)
type row = { y : int array; r : int array; support : int array }

let select f rows = Array.of_seq (Seq.filter f (Array.to_seq rows))

let finalize rows =
  List.map (fun row -> normalize row.y) (Array.to_list rows)
  |> List.filter (fun y -> support y <> [])
  |> List.sort compare

(* Farkas algorithm: eliminate each transition column in turn by
   nonnegative combinations of rows with opposite signs there, keeping
   only rows of minimal support.  Rows zero in the column carry over
   untested: they were pairwise minimal after the previous column, and
   a combination's support contains its positive parent's, so none can
   lie under them.  Only the new combinations are tested, against the
   carried rows and each other. *)
let p_invariants ?(max_rows = default_max_rows) (net : Pnet.t) =
  let c = incidence net in
  let n_places = Array.length c in
  let n_trans = Pnet.transition_count net in
  let n_words = (n_places + word_bits - 1) / word_bits in
  let rows =
    ref
      (Array.init n_places (fun p ->
           let y = Array.make n_places 0 in
           y.(p) <- 1;
           { y; r = Array.copy c.(p); support = bitset_of n_words y }))
  in
  let truncated = ref false in
  let t = ref 0 in
  while (not !truncated) && !t < n_trans do
    let t' = !t in
    let zero = select (fun row -> row.r.(t') = 0) !rows in
    let pos = select (fun row -> row.r.(t') > 0) !rows in
    let neg = select (fun row -> row.r.(t') < 0) !rows in
    (* seeded with the carried rows so a combination equal to one of
       them is dropped as a duplicate *)
    let seen = Vec.create (Array.length zero + 16) in
    Array.iter (fun row -> Vec.replace seen row.y ()) zero;
    let combos = ref [] in
    Array.iter
      (fun p1 ->
        Array.iter
          (fun p2 ->
            let a = -p2.r.(t') and b = p1.r.(t') in
            let y =
              Array.init n_places (fun p -> (a * p1.y.(p)) + (b * p2.y.(p)))
            in
            let r =
              Array.init n_trans (fun j -> (a * p1.r.(j)) + (b * p2.r.(j)))
            in
            let g =
              Array.fold_left (fun acc x -> gcd acc (abs x))
                (Array.fold_left (fun acc x -> gcd acc (abs x)) 0 y)
                r
            in
            let y, r =
              if g > 1 then
                (Array.map (fun x -> x / g) y, Array.map (fun x -> x / g) r)
              else (y, r)
            in
            if not (Vec.mem seen y) then begin
              Vec.add seen y ();
              (* nonnegative rows combined with positive weights: the
                 support is the union of the parents' *)
              let support = Array.map2 ( lor ) p1.support p2.support in
              combos := { y; r; support } :: !combos
            end)
          neg)
      pos;
    (* a row goes when another, different row's support lies within
       its own — so two different rows with equal supports both go *)
    let fresh = Array.of_list !combos in
    let minimal =
      select
        (fun row ->
          not
            (Array.exists (fun z -> subset z.support row.support) zero
            || Array.exists
                 (fun other -> other != row && subset other.support row.support)
                 fresh))
        fresh
    in
    let next = Array.append zero minimal in
    if Array.length next > max_rows then begin
      (* Row bound tripped mid-elimination.  Rows whose residual is
         already all-zero satisfy y . C = 0 outright, so they are
         genuine invariants even though later columns were never
         processed — salvage those and report the truncation. *)
      truncated := true;
      rows := select (fun row -> Array.for_all (fun x -> x = 0) row.r) next
    end
    else begin
      rows := next;
      incr t
    end
  done;
  let ys = finalize !rows in
  if !truncated then Truncated ys else Complete ys

let invariant_covering _net place invariants =
  List.find_opt (fun y -> y.(place) <> 0) invariants

let conserved_constant (net : Pnet.t) y = weighted_tokens y net.Pnet.m0
