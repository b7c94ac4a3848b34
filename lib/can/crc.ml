let polynomial = 0x4599

let width = 15

let feed_bits crc value ~bits =
  let crc = ref crc in
  for i = bits - 1 downto 0 do
    let next = (!crc lsl 1) land 0x7FFF in
    crc :=
      if (value lsr i) land 1 <> (!crc lsr 14) land 1 then next lxor polynomial
      else next
  done;
  !crc

(* [table.(x)]: the register whose top eight bits are [x], fed eight zero
   bits.  The register is linear in its state and its input, so feeding a
   byte [b] to [crc] gives [table.((crc lsr 7) lxor b)] xor [crc]'s low
   seven bits shifted up by eight. *)
let table = Array.init 256 (fun x -> feed_bits (x lsl 7) 0 ~bits:8)

let feed crc value ~bits =
  let crc = ref crc and left = ref bits in
  while !left >= 8 do
    left := !left - 8;
    crc :=
      table.(((!crc lsr 7) lxor (value lsr !left)) land 0xFF)
      lxor ((!crc lsl 8) land 0x7FFF)
  done;
  feed_bits !crc value ~bits:!left
