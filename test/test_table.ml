module Translate = Ezrt_blocks.Translate
module Search = Ezrt_sched.Search
module Timeline = Ezrt_sched.Timeline
module Table = Ezrt_sched.Table
module Case_studies = Ezrt_spec.Case_studies
open Test_util

let table_of spec =
  let model = Translate.translate spec in
  match Search.find_schedule model with
  | Ok schedule, _ -> (model, Table.of_schedule model schedule)
  | Error f, _ -> Alcotest.failf "infeasible: %s" (Search.failure_to_string f)

let test_rows_sorted_and_flagged () =
  let _, items = table_of Case_studies.fig8_preemptive in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      check_bool "rows by start time" true (a.Table.start <= b.Table.start);
      sorted rest
    | [ _ ] | [] -> ()
  in
  sorted items;
  check_bool "has resume rows" true
    (List.exists (fun i -> i.Table.resumed) items);
  check_bool "first row is a start" true
    (not (List.hd items).Table.resumed)

let contains_substring ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_fig8_comment_vocabulary () =
  let model, items = table_of Case_studies.fig8_preemptive in
  let comments = List.map (Table.row_comment model) items in
  check_bool "starts" true
    (List.exists (fun c -> Filename.check_suffix c "starts") comments);
  check_bool "preempts" true
    (List.exists (contains_substring ~needle:"preempts") comments);
  check_bool "resumes" true
    (List.exists (fun c -> Filename.check_suffix c "resumes") comments)

let test_fig8_short_names () =
  let model, items = table_of Case_studies.fig8_preemptive in
  (* TaskA#0 renders as A1 (Fig 8 numbering) *)
  let first = List.hd items in
  let comment = Table.row_comment model first in
  check_bool "short name with 1-based instance" true
    (String.length comment >= 2 && comment.[1] = '1')

let test_np_table_has_no_resumes () =
  let _, items = table_of Case_studies.mine_pump in
  check_int "one row per instance" 782 (List.length items);
  check_bool "no resume rows" true
    (List.for_all (fun i -> not i.Table.resumed) items)

let test_preempts_field_consistency () =
  let _, items = table_of Case_studies.fig8_preemptive in
  List.iter
    (fun item ->
      match item.Table.preempts with
      | None -> ()
      | Some (task, instance) ->
        (* the preempted instance must resume later *)
        check_bool "victim resumes later" true
          (List.exists
             (fun other ->
               other.Table.task = task && other.Table.instance = instance
               && other.Table.resumed
               && other.Table.start > item.Table.start)
             items);
        check_bool "a preempting row is not itself a resume" true
          (not item.Table.resumed))
    items

(* The original quadratic definition, kept as the oracle: a row
   preempts the first segment in start order that ends exactly at the
   row's start and whose instance still has a segment starting later. *)
let of_segments_oracle segments =
  let segments =
    List.sort (fun a b -> compare a.Timeline.start b.Timeline.start) segments
  in
  let cut_instance_at time =
    List.find_map
      (fun (s : Timeline.segment) ->
        if
          s.finish = time
          && List.exists
               (fun (later : Timeline.segment) ->
                 later.task = s.task && later.instance = s.instance
                 && later.start > time)
               segments
        then Some (s.task, s.instance)
        else None)
      segments
  in
  List.map
    (fun (s : Timeline.segment) ->
      {
        Table.start = s.start;
        resumed = s.resumed;
        task = s.task;
        instance = s.instance;
        preempts = (if s.resumed then None else cut_instance_at s.start);
      })
    segments

(* Each instance runs as a chain of segments separated by gaps of 0..2
   (0 is a zero-gap resume); the chains of up to 3 tasks x 3 instances
   start in 0..12, so finish times collide often, and are shuffled. *)
let segments_arb =
  let open QCheck.Gen in
  let chain task instance =
    let* start = int_bound 12
    and* pieces =
      list_size (int_range 1 3) (pair (int_bound 2) (int_range 1 3))
    in
    let _, segs =
      List.fold_left
        (fun (at, acc) (gap, len) ->
          let start = at + gap in
          let seg =
            { Timeline.task; instance; start; finish = start + len;
              resumed = acc <> [] }
          in
          (start + len, seg :: acc))
        (start, []) pieces
    in
    return segs
  in
  let instance = pair (int_bound 2) (int_bound 2) in
  let gen =
    let* keys = list_size (int_range 0 9) instance in
    let keys = List.sort_uniq compare keys in
    let* chains = flatten_l (List.map (fun (t, i) -> chain t i) keys) in
    shuffle_l (List.concat chains)
  in
  let print segs =
    String.concat "; "
      (List.map
         (fun (s : Timeline.segment) ->
           Printf.sprintf "%d#%d [%d,%d)%s" s.task s.instance s.start s.finish
             (if s.resumed then "r" else ""))
         segs)
  in
  QCheck.make ~print gen

let prop_of_segments_matches_oracle =
  qcheck ~count:500 "of_segments equals the quadratic oracle" segments_arb
    (fun segs -> Table.of_segments segs = of_segments_oracle segs)

let suite =
  [
    case "rows sorted with resume flags" test_rows_sorted_and_flagged;
    case "Fig 8 comment vocabulary" test_fig8_comment_vocabulary;
    case "Fig 8 short names" test_fig8_short_names;
    case "non-preemptive tables have no resumes" test_np_table_has_no_resumes;
    case "preempts field consistency" test_preempts_field_consistency;
    prop_of_segments_matches_oracle;
  ]
