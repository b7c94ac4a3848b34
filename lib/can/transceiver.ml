type line_error = Frame.line_error =
  | Stuff_violation
  | Crc_mismatch
  | Form_error

type rx = Frame of Frame.t | Line_error of line_error

let transmit = Frame.to_wire

let receive wire =
  match Frame.of_wire wire with
  | Ok frame -> Frame frame
  | Error (e, _) -> Line_error e

let corrupt rng wire =
  let n = Wire.length wire in
  if n = 0 then wire
  else
    let target = Secpol_sim.Rng.int rng n in
    Wire.init n (fun i -> Wire.get wire i <> (i = target))

let line_error_name = function
  | Stuff_violation -> "stuff violation"
  | Crc_mismatch -> "CRC mismatch"
  | Form_error -> "form error"
