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

(* FNV-1a over the contents.  The 2048-bit standard bitmap goes in as 64
   words of 32 bits, read in place: every bit feeds the hash, and each
   word fits an OCaml int whole (a 64-bit word would lose its top bit).
   Extended IDs follow, count first, then ascending.  Each step
   [h -> (h xor v) * p] is a bijection for odd [p], so a change confined
   to one word always changes the digest. *)
let fnv_prime = 0x100000001b3

let mix h v = (h lxor v) * fnv_prime

let digest t =
  let h = ref 0x2545F4914F6CDD1D in
  for w = 0 to 63 do
    let word = Int32.to_int (Bytes.get_int32_le t.std (w * 4)) in
    h := mix !h (word land 0xFFFF_FFFF)
  done;
  let h = mix !h (Hashtbl.length t.ext) in
  if Hashtbl.length t.ext = 0 then h else List.fold_left mix h (sorted_ext t)

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat ", "
       (List.map (Format.asprintf "%a" Identifier.pp) (to_ids t)))
