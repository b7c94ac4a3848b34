type t = { mask : int; value : int; extended : bool }

let make ?(extended = false) ~mask ~value () =
  if mask < 0 || value < 0 then invalid_arg "Acceptance.make: negative field";
  { mask; value; extended }

let exact id =
  {
    mask = (if Identifier.is_extended id then 0x1FFFFFFF else 0x7FF);
    value = Identifier.raw id;
    extended = Identifier.is_extended id;
  }

let accept_all extended = { mask = 0; value = 0; extended }

let matches t id =
  Identifier.is_extended id = t.extended
  && Identifier.raw id land t.mask = t.value land t.mask

(* top-level recursion: [List.exists] would allocate a closure over [id]
   for every receiver of every frame *)
let rec any_matches id = function
  | [] -> false
  | f :: rest -> matches f id || any_matches id rest

let accepts filters id =
  match filters with [] -> true | fs -> any_matches id fs
