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

(* The combination that cancels column [t]: [p1] positive there, [p2]
   negative, both weighted positively and divided by the gcd of [y]'s
   entries, which divides r = y . C too.  Nonnegative rows combined
   with positive weights: the support is the union of the parents'. *)
let combine t p1 p2 =
  let a = -p2.r.(t) and b = p1.r.(t) in
  let n_places = Array.length p1.y and n_trans = Array.length p1.r in
  let y = Array.make n_places 0 and g = ref 0 in
  for p = 0 to n_places - 1 do
    let x = (a * p1.y.(p)) + (b * p2.y.(p)) in
    y.(p) <- x;
    if x <> 0 && !g <> 1 then g := gcd !g x
  done;
  let g = !g in
  if g > 1 then
    for p = 0 to n_places - 1 do
      y.(p) <- y.(p) / g
    done;
  let r = Array.make n_trans 0 in
  for j = 0 to n_trans - 1 do
    r.(j) <- ((a * p1.r.(j)) + (b * p2.r.(j))) / g
  done;
  { y; r; support = Array.map2 ( lor ) p1.support p2.support }

(* Farkas algorithm: eliminate each transition column in turn by
   nonnegative combinations of rows with opposite signs there, keeping
   only rows of minimal support.  The rows are pairwise support-minimal
   after every column, so the rows zero in the column carry over
   untouched: a combination's support contains both parents', so none
   can lie under a carried row or equal one.  Only the new combinations
   are tested, against the carried rows and each other, and only they
   are deduplicated.  Row order is irrelevant: the result is sorted. *)
let p_invariants ?(max_rows = default_max_rows) (net : Pnet.t) =
  let c = incidence net in
  let n_places = Array.length c in
  let n_trans = Pnet.transition_count net in
  let n_words = (n_places + word_bits - 1) / word_bits in
  (* every row is nonzero with coprime weights: a unit row, or a
     combination divided by its gcd *)
  let finalize rows = List.sort compare (List.map (fun row -> row.y) rows) in
  let rec eliminate t rows =
    if t = n_trans then Complete (finalize rows)
    else begin
      (* one pass splits the rows by their sign in the column *)
      let neg = ref [] and zero = ref [] and pos = ref [] in
      List.iter
        (fun row ->
          let x = row.r.(t) in
          let side = if x > 0 then pos else if x < 0 then neg else zero in
          side := row :: !side)
        rows;
      let next =
        if List.is_empty !pos && List.is_empty !neg then rows
        else begin
          let seen = Vec.create 64 in
          let fresh =
            List.concat_map
              (fun p1 ->
                List.filter_map
                  (fun p2 ->
                    let row = combine t p1 p2 in
                    if Vec.mem seen row.y then None
                    else begin
                      Vec.add seen row.y ();
                      Some row
                    end)
                  !neg)
              !pos
          in
          (* a row goes when another, different row's support lies
             within its own — so two different rows with equal supports
             both go *)
          let carried = Array.of_list !zero and others = Array.of_list fresh in
          let minimal row =
            not
              (Array.exists (fun z -> subset z.support row.support) carried
              || Array.exists
                   (fun o -> o != row && subset o.support row.support)
                   others)
          in
          !zero @ List.filter minimal fresh
        end
      in
      if List.compare_length_with next max_rows > 0 then
        (* Row bound tripped mid-elimination.  Rows whose residual is
           already all-zero satisfy y . C = 0 outright, so they are
           genuine invariants even though later columns were never
           processed — salvage those and report the truncation. *)
        Truncated
          (finalize
             (List.filter (fun row -> Array.for_all (( = ) 0) row.r) next))
      else eliminate (t + 1) next
    end
  in
  eliminate 0
    (List.init n_places (fun p ->
         let y = Array.make n_places 0 in
         y.(p) <- 1;
         { y; r = Array.copy c.(p); support = bitset_of n_words y }))

let invariant_covering _net place invariants =
  List.find_opt (fun y -> y.(place) <> 0) invariants

let conserved_constant (net : Pnet.t) y = weighted_tokens y net.Pnet.m0
