module Ast = Secpol_policy.Ast
module Table = Secpol_policy.Table
module Rate_window = Secpol_policy.Rate_window

type chain = int Table.answer

type budgets = {
  slots : Ast.rate array;
  reads : (int * chain) array;
  writes : (int * chain) array;
}

type t = {
  read_list : Approved_list.t;
  write_list : Approved_list.t;
  mutable read_enable : bool;
  mutable write_enable : bool;
  mutable locked : bool;
  (* the file's own copy of the budget table, and one window per slot:
     the grant times, outside the seal *)
  mutable budgets : budgets;
  mutable windows : Rate_window.t array;
  (* the seal: a shadow copy of both lists, the budget table and the
     control bits, updated only by authorised programming ([reseal]), so
     only out-of-band corruption (a bit flip in the approved-list or
     budget RAM, not a register-interface write) can make the live file
     and its shadow differ *)
  shadow_read : Approved_list.t;
  shadow_write : Approved_list.t;
  mutable shadow_budgets : budgets;
  mutable shadow_ctrl : int;
}

let ctrl = 0x00

let status = 0x04

let cmd_add_read = 0x08

let cmd_add_write = 0x0C

let cmd_clear = 0x10

let count_read = 0x14

let count_write = 0x18

let no_budgets = { slots = [||]; reads = [||]; writes = [||] }

(* every array fresh, so a copy shares no RAM with its source *)
let copy_budgets b =
  if b == no_budgets then b
  else
    let chains =
      Array.map (fun (id, (c : chain)) ->
          (id, { c with rated = Array.copy c.rated }))
    in
    {
      slots = Array.copy b.slots;
      reads = chains b.reads;
      writes = chains b.writes;
    }

(* The seal's comparison runs on every frame: top-level recursion, no
   closure and no polymorphic compare. *)
let rec same eq a b i =
  i = Array.length a || (eq a.(i) b.(i) && same eq a b (i + 1))

let same_array eq a b = Array.length a = Array.length b && same eq a b 0

let same_rate (x : Ast.rate) (y : Ast.rate) =
  x.count = y.count && x.window_ms = y.window_ms

let same_chain (id, (x : chain)) (id', (y : chain)) =
  id = id' && x.otherwise = y.otherwise && same_array Int.equal x.rated y.rated

let same_budgets a b =
  same_array same_rate a.slots b.slots
  && same_array same_chain a.reads b.reads
  && same_array same_chain a.writes b.writes

let ctrl_value t =
  Bool.to_int t.read_enable
  lor (Bool.to_int t.write_enable lsl 1)
  lor (Bool.to_int t.locked lsl 2)

let reseal t =
  Approved_list.blit ~src:t.read_list ~dst:t.shadow_read;
  Approved_list.blit ~src:t.write_list ~dst:t.shadow_write;
  t.shadow_budgets <- copy_budgets t.budgets;
  t.shadow_ctrl <- ctrl_value t

let integrity_ok t =
  t.shadow_ctrl = ctrl_value t
  && Approved_list.equal t.read_list t.shadow_read
  && Approved_list.equal t.write_list t.shadow_write
  && (t.budgets == t.shadow_budgets || same_budgets t.budgets t.shadow_budgets)

let create () =
  let t =
    {
      read_list = Approved_list.create ();
      write_list = Approved_list.create ();
      read_enable = false;
      write_enable = false;
      locked = false;
      budgets = no_budgets;
      windows = [||];
      shadow_read = Approved_list.create ();
      shadow_write = Approved_list.create ();
      shadow_budgets = no_budgets;
      shadow_ctrl = 0;
    }
  in
  reseal t;
  t

let read_list t = t.read_list

let write_list t = t.write_list

let read_filter_enabled t = t.read_enable

let write_filter_enabled t = t.write_enable

let locked t = t.locked

let budgets t = t.budgets

let windows t = t.windows

let set_budgets t b =
  t.budgets <- b;
  t.windows <- Array.map Rate_window.of_rate b.slots

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
    set_budgets t no_budgets;
    Ok ()
  end
  else if addr = status || addr = count_read || addr = count_write then
    Error (Printf.sprintf "register 0x%02x is read-only" addr)
  else Error (Printf.sprintf "unknown register 0x%02x" addr)

(* A file locked before the write accepts only the idempotent CTRL
   rewrite, which changes nothing the seal covers; resealing there would
   bless whatever reached the lists out of band since the lock. *)
let write_reg t ~addr value =
  let was_locked = t.locked in
  match write_reg_unsealed t ~addr value with
  | Ok () ->
      if not was_locked then reseal t;
      Ok ()
  | Error _ as e -> e

(* IDs ascending in the 11-bit space, every slot in the table *)
let rec valid_chains slots chains i =
  i = Array.length chains
  || (let id, (c : chain) = chains.(i) in
      id land lnot 0x7FF = 0
      && (i = 0 || fst chains.(i - 1) < id)
      && Array.for_all (fun s -> s >= 0 && s < Array.length slots) c.rated
      && valid_chains slots chains (i + 1))

let load_budgets t b =
  if t.locked then Error "HPE register file is locked"
  else if
    Array.exists (fun (r : Ast.rate) -> r.count < 0 || r.window_ms <= 0) b.slots
    || not (valid_chains b.slots b.reads 0 && valid_chains b.slots b.writes 0)
  then Error "budget table: bad slot, chain or ID"
  else begin
    set_budgets t (copy_budgets b);
    t.shadow_budgets <- copy_budgets t.budgets;
    Ok ()
  end

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
  set_budgets t no_budgets;
  t.read_enable <- false;
  t.write_enable <- false;
  t.locked <- false;
  reseal t
