let polynomial = 0x4599

let width = 15

let step crc bit =
  let crc_next = (crc lsl 1) land 0x7FFF in
  let msb = crc land 0x4000 <> 0 in
  if bit <> msb then crc_next lxor polynomial else crc_next

let compute bits = List.fold_left step 0 bits

let to_bits crc = List.init width (fun i -> crc land (1 lsl (width - 1 - i)) <> 0)
