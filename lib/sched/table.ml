module Translate = Ezrt_blocks.Translate
module Task = Ezrt_spec.Task

type item = {
  start : int;
  resumed : bool;
  task : int;
  instance : int;
  preempts : (int * int) option;
}

let of_segments segments =
  let segments =
    List.sort (fun a b -> compare a.Timeline.start b.Timeline.start) segments
  in
  (* A row preempts instance X when X has a segment ending exactly at
     the row's start and a later segment still to run.  Two linear
     passes answer that for every start time: the first records each
     instance's last start (the sort puts it last), the second records,
     for each finish time, the first segment in start order whose
     instance still starts again after it. *)
  let last_start = Hashtbl.create 64 and cuts = Hashtbl.create 64 in
  List.iter
    (fun (s : Timeline.segment) ->
      Hashtbl.replace last_start (s.task, s.instance) s.start)
    segments;
  List.iter
    (fun (s : Timeline.segment) ->
      if
        Hashtbl.find last_start (s.task, s.instance) > s.finish
        && not (Hashtbl.mem cuts s.finish)
      then Hashtbl.add cuts s.finish (s.task, s.instance))
    segments;
  List.map
    (fun (s : Timeline.segment) ->
      {
        start = s.start;
        resumed = s.resumed;
        task = s.task;
        instance = s.instance;
        preempts = (if s.resumed then None else Hashtbl.find_opt cuts s.start);
      })
    segments

let of_schedule model schedule =
  of_segments (Timeline.of_schedule model schedule)

let short_name model task instance =
  let name = model.Translate.tasks.(task).Task.name in
  (* Fig 8 numbers instances from 1 and abbreviates TaskA as A1. *)
  let name =
    if String.length name > 4 && String.sub name 0 4 = "Task" then
      String.sub name 4 (String.length name - 4)
    else name
  in
  Printf.sprintf "%s%d" name (instance + 1)

let row_comment model item =
  let self = short_name model item.task item.instance in
  if item.resumed then Printf.sprintf "%s resumes" self
  else
    match item.preempts with
    | Some (task, instance) ->
      Printf.sprintf "%s preempts %s" self (short_name model task instance)
    | None -> Printf.sprintf "%s starts" self

let pp model fmt items =
  List.iter
    (fun item ->
      Format.fprintf fmt "{%3d, %-5b, %d} /* %s */@." item.start item.resumed
        (item.task + 1) (row_comment model item))
    items
