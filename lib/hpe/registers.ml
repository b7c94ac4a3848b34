type t = {
  read_list : Approved_list.t;
  write_list : Approved_list.t;
  mutable read_enable : bool;
  mutable write_enable : bool;
  mutable locked : bool;
  (* checksum over the whole file, refreshed on every *programmed* write:
     only out-of-band corruption (a bit flip in the approved-list RAM, not
     a register-interface write) can make the stored and recomputed values
     diverge *)
  mutable sealed : int;
}

let ctrl = 0x00

let status = 0x04

let cmd_add_read = 0x08

let cmd_add_write = 0x0C

let cmd_clear = 0x10

let count_read = 0x14

let count_write = 0x18

let ctrl_value t =
  Bool.to_int t.read_enable
  lor (Bool.to_int t.write_enable lsl 1)
  lor (Bool.to_int t.locked lsl 2)

(* FNV-1a over the register file contents: each approved list's own
   digest (its whole bitmap, see {!Approved_list.digest}), then the
   control bits.  Every step is a bijection of the running hash, so a
   change to one list's digest or to the control bits always shows. *)
let checksum t =
  let fnv_prime = 0x100000001b3 in
  let mix h v = (h lxor v) * fnv_prime in
  let h = mix 0x2545F4914F6CDD1D (Approved_list.digest t.read_list) in
  let h = mix h (Approved_list.digest t.write_list) in
  mix h (ctrl_value t)

let reseal t = t.sealed <- checksum t

let integrity_ok t = t.sealed = checksum t

let create () =
  let t =
    {
      read_list = Approved_list.create ();
      write_list = Approved_list.create ();
      read_enable = false;
      write_enable = false;
      locked = false;
      sealed = 0;
    }
  in
  reseal t;
  t

let read_list t = t.read_list

let write_list t = t.write_list

let read_filter_enabled t = t.read_enable

let write_filter_enabled t = t.write_enable

let locked t = t.locked

let write_reg_unsealed t ~addr value =
  if t.locked && not (addr = ctrl && value = ctrl_value t) then
    Error "HPE register file is locked"
  else if addr = ctrl then begin
    t.read_enable <- value land 1 <> 0;
    t.write_enable <- value land 2 <> 0;
    if value land 4 <> 0 then t.locked <- true;
    Ok ()
  end
  else if addr = cmd_add_read || addr = cmd_add_write then
    if value < 0 || value > 0x7FF then
      Error (Printf.sprintf "CAN id 0x%x outside 11-bit range" value)
    else begin
      let list = if addr = cmd_add_read then t.read_list else t.write_list in
      Approved_list.add list (Secpol_can.Identifier.standard value);
      Ok ()
    end
  else if addr = cmd_clear then begin
    Approved_list.clear t.read_list;
    Approved_list.clear t.write_list;
    Ok ()
  end
  else if addr = status || addr = count_read || addr = count_write then
    Error (Printf.sprintf "register 0x%02x is read-only" addr)
  else Error (Printf.sprintf "unknown register 0x%02x" addr)

let write_reg t ~addr value =
  match write_reg_unsealed t ~addr value with
  | Ok () ->
      reseal t;
      Ok ()
  | Error _ as e -> e

let read_reg t ~addr =
  if addr = ctrl || addr = status then Ok (ctrl_value t)
  else if addr = count_read then Ok (Approved_list.cardinal t.read_list)
  else if addr = count_write then Ok (Approved_list.cardinal t.write_list)
  else if addr = cmd_add_read || addr = cmd_add_write || addr = cmd_clear then
    Error (Printf.sprintf "register 0x%02x is write-only" addr)
  else Error (Printf.sprintf "unknown register 0x%02x" addr)

let hard_reset t =
  Approved_list.clear t.read_list;
  Approved_list.clear t.write_list;
  t.read_enable <- false;
  t.write_enable <- false;
  t.locked <- false;
  reseal t
