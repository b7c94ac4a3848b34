module Ast = Secpol_policy.Ast
module Ir = Secpol_policy.Ir
module Table = Secpol_policy.Table
module Rate_window = Secpol_policy.Rate_window

type window = { idx : int; subject : string; window : Rate_window.t }

type t = {
  id : int;
  mutable version : int;
  mutable mode : string;
  (* keyed (rule index, subject); a campaign holds one record per vehicle
     and a vehicle touches one or two rated rules, so an empty list costs
     nothing and a short scan beats a hash table *)
  mutable windows : window list;
}

let create ?(mode = "normal") ~id ~version () =
  { id; version; mode; windows = [] }

let id t = t.id

let version t = t.version

let mode t = t.mode

let set_mode t mode = t.mode <- mode

let install t ~version =
  t.version <- version;
  t.windows <- []

(* top-level recursion over the key's parts: no tuple key, no closure *)
let rec window_in t rate idx subject = function
  | w :: rest ->
      if w.idx = idx && String.equal w.subject subject then w.window
      else window_in t rate idx subject rest
  | [] ->
      let window = Rate_window.of_rate rate in
      t.windows <- { idx; subject; window } :: t.windows;
      window

(* the table's fold over the rated allows, each on this vehicle's window:
   the first with room grounds the Allow *)
let rec first_with_room t (res : Table.resolved) subject now i =
  if i = Array.length res.rated then res.otherwise
  else
    let r = res.rated.(i) in
    match r.Ir.rate with
    | None -> Ast.Allow (* an unlimited allow always has room *)
    | Some rate ->
        let w = window_in t rate r.idx subject t.windows in
        if Rate_window.available w ~now then begin
          Rate_window.consume w ~now;
          Ast.Allow
        end
        else first_with_room t res subject now (i + 1)

let decide t res ~subject ~now = first_with_room t res subject now 0

let live_budgets t = List.length t.windows
