open Ezrt_tpn

type entry = {
  tid : Pnet.transition_id;
  delay : int;
  time : int;
}

type t = { entries : entry list }

let of_actions actions =
  let _, rev =
    List.fold_left
      (fun (now, acc) (tid, delay) ->
        let time = now + delay in
        (time, { tid; delay; time } :: acc))
      (0, []) actions
  in
  { entries = List.rev rev }

let length s = List.length s.entries

let makespan s =
  List.fold_left (fun acc e -> max acc e.time) 0 s.entries

let replay net s =
  List.fold_left
    (fun state e -> State.fire net state e.tid e.delay)
    (State.initial net) s.entries
