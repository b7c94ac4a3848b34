module Identifier = Secpol_can.Identifier
module Intervals_set = Secpol_policy.Intervals

type backend = Bitset | Hashtable | Intervals

type repr =
  | Bits of { std : Bytes.t; ext : (int, unit) Hashtbl.t }
  | Table of (int * bool, unit) Hashtbl.t
      (** key: raw id, is_extended *)
  | Ranges of { mutable std : Intervals_set.t; ext : (int, unit) Hashtbl.t }
      (** the compiled policy table's sorted-interval matcher, reused:
          standard IDs as disjoint ranges, sparse extended IDs hashed *)

type t = { backend : backend; repr : repr; mutable cardinal : int }

let create ?(backend = Bitset) () =
  let repr =
    match backend with
    | Bitset -> Bits { std = Bytes.make 256 '\000'; ext = Hashtbl.create 16 }
    | Hashtable -> Table (Hashtbl.create 64)
    | Intervals ->
        Ranges { std = Intervals_set.empty; ext = Hashtbl.create 16 }
  in
  { backend; repr; cardinal = 0 }

let backend t = t.backend

let bit_get bytes i =
  Char.code (Bytes.get bytes (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set bytes i v =
  let byte = Char.code (Bytes.get bytes (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set bytes (i lsr 3) (Char.chr byte)

(* membership for a raw standard ID without building an [Identifier.t]:
   the batched rx gate streams over an [int array] of IDs and this keeps
   the bitset / interval backends allocation-free per lookup (the hash
   backend still allocates its tuple key) *)
let mem_std t i =
  match t.repr with
  | Bits { std; _ } -> bit_get std i
  | Ranges { std; _ } -> Intervals_set.mem std i
  | Table tbl -> Hashtbl.mem tbl (i, false)

let mem t id =
  match (t.repr, id) with
  | Bits { std; _ }, Identifier.Standard i -> bit_get std i
  | Bits { ext; _ }, Identifier.Extended i -> Hashtbl.mem ext i
  | Ranges { std; _ }, Identifier.Standard i -> Intervals_set.mem std i
  | Ranges { ext; _ }, Identifier.Extended i -> Hashtbl.mem ext i
  | Table tbl, _ -> Hashtbl.mem tbl (Identifier.raw id, Identifier.is_extended id)

let add t id =
  if not (mem t id) then begin
    t.cardinal <- t.cardinal + 1;
    match (t.repr, id) with
    | Bits { std; _ }, Identifier.Standard i -> bit_set std i true
    | Bits { ext; _ }, Identifier.Extended i -> Hashtbl.replace ext i ()
    | Ranges r, Identifier.Standard i ->
        r.std <- Intervals_set.add r.std ~lo:i ~hi:i
    | Ranges { ext; _ }, Identifier.Extended i -> Hashtbl.replace ext i ()
    | Table tbl, _ ->
        Hashtbl.replace tbl (Identifier.raw id, Identifier.is_extended id) ()
  end

let add_range t ~lo ~hi =
  if lo < 0 || hi > 0x7FF || hi < lo then
    invalid_arg "Approved_list.add_range: bad 11-bit range";
  match t.repr with
  | Ranges r ->
      (* bulk form: one interval merge instead of per-ID insertion *)
      let before = Intervals_set.cardinal r.std in
      r.std <- Intervals_set.add r.std ~lo ~hi;
      t.cardinal <- t.cardinal + (Intervals_set.cardinal r.std - before)
  | Bits _ | Table _ ->
      for i = lo to hi do
        add t (Identifier.standard i)
      done

let remove t id =
  if mem t id then begin
    t.cardinal <- t.cardinal - 1;
    match (t.repr, id) with
    | Bits { std; _ }, Identifier.Standard i -> bit_set std i false
    | Bits { ext; _ }, Identifier.Extended i -> Hashtbl.remove ext i
    | Ranges r, Identifier.Standard i ->
        r.std <- Intervals_set.remove r.std ~lo:i ~hi:i
    | Ranges { ext; _ }, Identifier.Extended i -> Hashtbl.remove ext i
    | Table tbl, _ ->
        Hashtbl.remove tbl (Identifier.raw id, Identifier.is_extended id)
  end

let cardinal t = t.cardinal

let clear t =
  (match t.repr with
  | Bits { std; ext } ->
      Bytes.fill std 0 (Bytes.length std) '\000';
      Hashtbl.reset ext
  | Ranges r ->
      r.std <- Intervals_set.empty;
      Hashtbl.reset r.ext
  | Table tbl -> Hashtbl.reset tbl);
  t.cardinal <- 0

let of_ids ?backend ids =
  let t = create ?backend () in
  List.iter (add t) ids;
  t

let to_ids t =
  let std, ext =
    match t.repr with
    | Bits { std; ext } ->
        let s = ref [] in
        for i = 0x7FF downto 0 do
          if bit_get std i then s := i :: !s
        done;
        (!s, Hashtbl.fold (fun k () acc -> k :: acc) ext [])
    | Ranges { std; ext } ->
        ( List.concat_map
            (fun (lo, hi) -> List.init (hi - lo + 1) (fun i -> lo + i))
            (Intervals_set.ranges std),
          Hashtbl.fold (fun k () acc -> k :: acc) ext [] )
    | Table tbl ->
        Hashtbl.fold
          (fun (raw, is_ext) () (s, e) ->
            if is_ext then (s, raw :: e) else (raw :: s, e))
          tbl ([], [])
  in
  List.map Identifier.standard (List.sort compare std)
  @ List.map Identifier.extended (List.sort compare ext)

(* FNV-1a over the contents.  The 2048-bit standard bitmap goes in as 64
   words of 32 bits: every bit feeds the hash, and each word fits an
   OCaml int whole (a 64-bit word would lose its top bit).  Extended IDs
   follow, count first, then ascending.  Each step [h -> (h xor v) * p]
   is a bijection for odd [p], so a change confined to one word always
   changes the digest.  The bitset backend is hashed in place; the others
   are first copied into one, so equal contents digest equally on every
   backend. *)
let fnv_prime = 0x100000001b3

let mix h v = (h lxor v) * fnv_prime

let rec digest t =
  match t.repr with
  | Bits { std; ext } ->
      let h = ref 0x2545F4914F6CDD1D in
      for w = 0 to 63 do
        let word = Int32.to_int (Bytes.get_int32_le std (w * 4)) in
        h := mix !h (word land 0xFFFF_FFFF)
      done;
      let h = mix !h (Hashtbl.length ext) in
      if Hashtbl.length ext = 0 then h
      else
        List.fold_left mix h
          (List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) ext []))
  | Ranges _ | Table _ -> digest (of_ids (to_ids t))

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat ", "
       (List.map (Format.asprintf "%a" Identifier.pp) (to_ids t)))
