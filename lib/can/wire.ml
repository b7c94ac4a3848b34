type t = { bytes : Bytes.t; length : int }

let length t = t.length

(* bit [i] as 0 or 1; bit 0 is the top bit of byte 0 *)
let bit bytes i = (Char.code (Bytes.get bytes (i lsr 3)) lsr (7 - (i land 7))) land 1

(* sets bit [i]; a fresh buffer is all dominant (0) *)
let set bytes i =
  let j = i lsr 3 in
  Bytes.set bytes j
    (Char.unsafe_chr (Char.code (Bytes.get bytes j) lor (0x80 lsr (i land 7))))

let get t i =
  if i < 0 || i >= t.length then invalid_arg "Wire.get: index out of bounds";
  bit t.bytes i = 1

let init n f =
  let bytes = Bytes.make ((n + 7) / 8) '\000' in
  for i = 0 to n - 1 do
    if f i then set bytes i
  done;
  { bytes; length = n }

(* [run] equal bits of level [last] end the stuffed stream so far; [last]
   is -1 before the first bit *)
type writer = {
  buf : Bytes.t;
  mutable pos : int;
  mutable run : int;
  mutable last : int;
}

let writer capacity =
  { buf = Bytes.make ((capacity + 7) / 8) '\000'; pos = 0; run = 0; last = -1 }

(* [set] raises on a 1 bit past the buffer, but a 0 bit writes nothing,
   so the position is checked too *)
let check_room w =
  if w.pos > Bytes.length w.buf * 8 then invalid_arg "Wire: writer full"

let raw w value ~bits =
  for i = bits - 1 downto 0 do
    if (value lsr i) land 1 = 1 then set w.buf (w.pos + bits - 1 - i)
  done;
  w.pos <- w.pos + bits;
  check_room w

(* The hot loops keep the stream's state in locals: the compiler holds
   them in registers, where record fields would cost a store a bit. *)
let stuffed w value ~bits =
  let pos = ref w.pos and run = ref w.run and last = ref w.last in
  for i = bits - 1 downto 0 do
    let b = (value lsr i) land 1 in
    if b = 1 then set w.buf !pos;
    incr pos;
    if b = !last then incr run
    else begin
      last := b;
      run := 1
    end;
    if !run = 5 then begin
      (* the stuff bit starts the next run *)
      if b = 0 then set w.buf !pos;
      incr pos;
      last := 1 - b;
      run := 1
    end
  done;
  w.pos <- !pos;
  w.run <- !run;
  w.last <- !last;
  check_room w

let contents w = { bytes = w.buf; length = w.pos }

let unstuff t ~len =
  if len > t.length then invalid_arg "Wire.unstuff: len exceeds the wire";
  let out = Bytes.make ((len + 7) / 8) '\000' in
  let i = ref 0 and pos = ref 0 and run = ref 0 and last = ref (-1) in
  while !i < len && not (!run = 5 && bit t.bytes !i = !last) do
    let b = bit t.bytes !i in
    (* after five equal bits comes a stuff bit: drop it; it starts the
       next run *)
    if !run = 5 then run := 1
    else begin
      if b = 1 then set out !pos;
      incr pos;
      run := if b = !last then !run + 1 else 1
    end;
    last := b;
    incr i
  done;
  if !i < len then Error "stuffing violation: six consecutive equal bits"
  else Ok { bytes = out; length = !pos }

(* a byte's worth of bits at a time *)
let read t ~pos ~bits =
  if pos < 0 || pos + bits > t.length then
    invalid_arg "Wire.read: bits past the end of the wire";
  let v = ref 0 and i = ref pos and left = ref bits in
  while !left > 0 do
    let off = !i land 7 in
    let take = if 8 - off < !left then 8 - off else !left in
    let byte = Char.code (Bytes.get t.bytes (!i lsr 3)) in
    v := (!v lsl take) lor ((byte lsr (8 - off - take)) land ((1 lsl take) - 1));
    i := !i + take;
    left := !left - take
  done;
  !v
