module Counter = Secpol_obs.Counter

type direction = Reading | Writing

type verdict = Grant | Block

type t = {
  direction : direction;
  approved : Approved_list.t;
  grants : Counter.t;
  blocks : Counter.t;
}

let create direction approved =
  {
    direction;
    approved;
    grants = Counter.create ();
    blocks = Counter.create ();
  }

let direction t = t.direction

let decide t (frame : Secpol_can.Frame.t) =
  if Approved_list.mem t.approved frame.id then begin
    Counter.incr t.grants;
    Grant
  end
  else begin
    Counter.incr t.blocks;
    Block
  end

let grants t = Counter.value t.grants

let blocks t = Counter.value t.blocks

let counters t = (t.grants, t.blocks)

let reset_counters t =
  Counter.reset t.grants;
  Counter.reset t.blocks

let direction_name = function Reading -> "reading" | Writing -> "writing"

let verdict_name = function Grant -> "grant" | Block -> "block"
