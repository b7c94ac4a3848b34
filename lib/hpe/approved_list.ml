module Identifier = Secpol_can.Identifier

(* The 11-bit standard ID space as a 2048-bit map (256 bytes); the
   sparse extended IDs in a hash set. *)
type t = { std : Bytes.t; ext : (int, unit) Hashtbl.t; mutable cardinal : int }

let create () =
  { std = Bytes.make 256 '\000'; ext = Hashtbl.create 16; cardinal = 0 }

let bit_get bytes i =
  Char.code (Bytes.get bytes (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set bytes i v =
  let byte = Char.code (Bytes.get bytes (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set bytes (i lsr 3) (Char.chr byte)

let mem t = function
  | Identifier.Standard i -> bit_get t.std i
  | Identifier.Extended i -> Hashtbl.mem t.ext i

let add t id =
  if not (mem t id) then begin
    t.cardinal <- t.cardinal + 1;
    match id with
    | Identifier.Standard i -> bit_set t.std i true
    | Identifier.Extended i -> Hashtbl.replace t.ext i ()
  end

let add_range t ~lo ~hi =
  if lo < 0 || hi > 0x7FF || hi < lo then
    invalid_arg "Approved_list.add_range: bad 11-bit range";
  for i = lo to hi do
    add t (Identifier.standard i)
  done

let remove t id =
  if mem t id then begin
    t.cardinal <- t.cardinal - 1;
    match id with
    | Identifier.Standard i -> bit_set t.std i false
    | Identifier.Extended i -> Hashtbl.remove t.ext i
  end

let cardinal t = t.cardinal

let clear t =
  Bytes.fill t.std 0 (Bytes.length t.std) '\000';
  Hashtbl.reset t.ext;
  t.cardinal <- 0

let of_ids ids =
  let t = create () in
  List.iter (add t) ids;
  t

let sorted_ext t =
  List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) t.ext [])

let to_ids t =
  let std = ref [] in
  for i = 0x7FF downto 0 do
    if bit_get t.std i then std := Identifier.standard i :: !std
  done;
  !std @ List.map Identifier.extended (sorted_ext t)

(* Every byte of both bitmaps, then the extended IDs.  The bitmaps go
   through [Bytes.compare], which is a [memcmp] in the runtime, where
   [Bytes.equal] is a word loop at two to three times its cost; either
   stops early only where the bitmaps already differ.  Nothing allocates
   unless extended IDs are present. *)
let equal a b =
  Bytes.compare a.std b.std = 0
  && Hashtbl.length a.ext = Hashtbl.length b.ext
  && (Hashtbl.length a.ext = 0
     || Hashtbl.fold (fun i () same -> same && Hashtbl.mem b.ext i) a.ext true)

(* The extended-ID sets are copied only when either side holds one: a
   standard-only file (every reseal of a provisioned car) would otherwise
   clear and walk two empty hash tables on every authorised write. *)
let blit ~src ~dst =
  Bytes.blit src.std 0 dst.std 0 (Bytes.length src.std);
  if Hashtbl.length src.ext > 0 || Hashtbl.length dst.ext > 0 then begin
    Hashtbl.clear dst.ext;
    Hashtbl.iter (fun i () -> Hashtbl.replace dst.ext i ()) src.ext
  end;
  dst.cardinal <- src.cardinal

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat ", "
       (List.map (Format.asprintf "%a" Identifier.pp) (to_ids t)))
