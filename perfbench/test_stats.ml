(* The rules the benchmark applies before it reports a figure. *)

open Bench_stats

let close = Alcotest.float 1e-9

(* [types] job types with [per] samples each; type [k] takes the
   latencies [k·10 + 1 .. k·10 + per·0.01], so bands never overlap *)
let mix ~types ~per =
  Array.init (types * per) (fun i ->
      let k = i mod types and j = i / types in
      ( (float_of_int (k * 10) +. 1. +. (0.01 *. float_of_int j)),
        Printf.sprintf "type-%02d" k ))

let nearest_rank () =
  let s = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p50 of 1..100" 50. (percentile ~q:0.5 s);
  Alcotest.check close "p90 of 1..100" 90. (percentile ~q:0.9 s);
  Alcotest.check close "p99 of 1..100" 99. (percentile ~q:0.99 s);
  Alcotest.check close "median of one" 7. (median [| 7. |]);
  Alcotest.check close "p90 of 3" 3. (percentile ~q:0.9 [| 3.; 1.; 2. |])

let ten_beyond () =
  Alcotest.(check int) "beyond p90 of 100" 10 (beyond ~q:0.9 100);
  Alcotest.(check bool) "p90 needs 100 samples" true (supports ~q:0.9 100);
  Alcotest.(check bool) "99 are too few for p90" false (supports ~q:0.9 99);
  Alcotest.(check bool) "p99 needs 1000 samples" true (supports ~q:0.99 1000);
  Alcotest.(check bool) "999 are too few for p99" false (supports ~q:0.99 999);
  Alcotest.(check bool) "p50 of 20" true (supports ~q:0.5 20);
  Alcotest.(check bool) "no samples" false (supports ~q:0.5 0)

let geometric_mean () =
  Alcotest.check close "geomean 1,100" 10. (geomean [| 1.; 100. |]);
  Alcotest.check close "geomean of equal" 4. (geomean [| 4.; 4.; 4. |]);
  (* one slow job type moves the mean far more than the geomean *)
  let g = geomean [| 1.; 1.; 1.; 1000. |] in
  Alcotest.(check bool) "robust to one outlier" true (g < 6.);
  Alcotest.check_raises "non-positive sample"
    (Invalid_argument "Bench_stats.geomean: sample <= 0") (fun () ->
      ignore (geomean [| 1.; 0. |]))

let failures () =
  Alcotest.check close "none failed" 0. (failed_ratio ~failed:0 ~attempted:13);
  Alcotest.check close "one in four" 0.25 (failed_ratio ~failed:1 ~attempted:4);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Bench_stats.failed_ratio: nothing attempted") (fun () ->
      ignore (failed_ratio ~failed:0 ~attempted:0))

let odd_mix_lands_inside () =
  List.iter
    (fun per ->
      let s = mix ~types:13 ~per in
      let p50 = placement ~q:0.5 s and p90 = placement ~q:0.9 s in
      Alcotest.(check string) "p50 is the 7th type" "type-06" p50.label;
      Alcotest.(check string) "p90 is the 12th type" "type-11" p90.label;
      Alcotest.(check bool) "p50 inside its band" true (inside_band p50);
      Alcotest.(check bool) "p90 inside its band" true (inside_band p90))
    [ 10; 16; 40; 101 ]

let even_mix_hits_boundary () =
  (* with 12 types the median rank is the last sample of the 6th type,
     next to the first of the 7th: the reported p50 would flip *)
  List.iter
    (fun per ->
      let p50 = placement ~q:0.5 (mix ~types:12 ~per) in
      Alcotest.(check bool) "p50 on a boundary" false (inside_band p50))
    [ 10; 16; 40; 100 ]

let order_independent () =
  let s = mix ~types:13 ~per:12 in
  let rev = Array.of_list (List.rev (Array.to_list s)) in
  let a = placement ~q:0.9 s and b = placement ~q:0.9 rev in
  Alcotest.(check string) "same type" a.label b.label;
  Alcotest.check close "same position" a.position b.position

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick nearest_rank;
          Alcotest.test_case "ten samples beyond a percentile" `Quick ten_beyond;
          Alcotest.test_case "geometric mean" `Quick geometric_mean;
          Alcotest.test_case "failed ratio" `Quick failures;
          Alcotest.test_case "odd job mix: percentiles inside a band" `Quick
            odd_mix_lands_inside;
          Alcotest.test_case "even job mix: p50 on a band boundary" `Quick
            even_mix_hits_boundary;
          Alcotest.test_case "placement ignores sample order" `Quick
            order_independent;
        ] );
    ]
