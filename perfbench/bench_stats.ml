(* Order statistics behind the benchmark's reported figures.

   Percentiles use the nearest-rank definition over the sorted
   samples, so a reported percentile is always one measured job time,
   never an interpolation between two job types. *)

let sorted samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  s

let rank ~q n =
  if n <= 0 then invalid_arg "Bench_stats.rank: no samples";
  max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let percentile ~q samples = (sorted samples).(rank ~q (Array.length samples))

let median samples = percentile ~q:0.5 samples

let beyond ~q n = n - 1 - rank ~q n

(* A percentile is only reported when at least ten samples lie beyond
   it; with fewer, one slow job moves it. *)
let supports ~q n = n > 0 && beyond ~q n >= 10

let geomean samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Bench_stats.geomean: no samples";
  Array.iter
    (fun x -> if not (x > 0.) then invalid_arg "Bench_stats.geomean: sample <= 0")
    samples;
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. samples /. float_of_int n)

let failed_ratio ~failed ~attempted =
  if attempted <= 0 then invalid_arg "Bench_stats.failed_ratio: nothing attempted";
  float_of_int failed /. float_of_int attempted

type placement = {
  label : string;  (** job type whose sample sits at the percentile's rank *)
  position : float;
      (** where that rank falls among the type's own samples, 0 = its
          fastest, 1 = its slowest *)
}

(* The workloads repeat a fixed mix of job types, so the sorted samples
   fall into one band per type.  A percentile whose rank lands at the
   edge of a band flips between two types from run to run; one that
   lands inside a band reads the same type every time. *)
let placement ~q (samples : (float * string) array) =
  let n = Array.length samples in
  let s = Array.copy samples in
  Array.stable_sort (fun (a, _) (b, _) -> Float.compare a b) s;
  let r = rank ~q n in
  let label = snd s.(r) in
  let below = ref 0 and total = ref 0 in
  Array.iteri
    (fun i (_, l) ->
      if l = label then begin
        incr total;
        if i < r then incr below
      end)
    s;
  { label; position = (float_of_int !below +. 0.5) /. float_of_int !total }

let band_margin = 0.1

let inside_band p =
  p.position >= band_margin && p.position <= 1. -. band_margin
