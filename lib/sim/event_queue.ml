type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = { heap : 'a entry Binheap.t; mutable next_seq : int }

(* [seq] is unique, so the order is total: equal times fire FIFO *)
let order a b =
  if a.time < b.time then -1
  else if a.time > b.time then 1
  else Int.compare a.seq b.seq

let create () = { heap = Binheap.create ~cmp:order (); next_seq = 0 }

let is_empty t = Binheap.is_empty t.heap

let length t = Binheap.length t.heap

let add t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  Binheap.push t.heap { time; seq = t.next_seq; payload };
  t.next_seq <- t.next_seq + 1

let peek_time t =
  match Binheap.peek t.heap with None -> None | Some e -> Some e.time

let pop t =
  match Binheap.pop t.heap with
  | None -> None
  | Some e -> Some (e.time, e.payload)

let clear t = Binheap.clear t.heap

let drain t =
  let rec loop acc =
    match pop t with None -> List.rev acc | Some e -> loop (e :: acc)
  in
  loop []
