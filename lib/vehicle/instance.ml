module Ir = Secpol_policy.Ir
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

let rate_available t (r : Ir.rule) subject ~now =
  match r.rate with
  | None -> true
  | Some rate ->
      Rate_window.available (window_in t rate r.idx subject t.windows) ~now

let rate_consume t (r : Ir.rule) subject ~now =
  match r.rate with
  | None -> ()
  | Some rate ->
      Rate_window.consume (window_in t rate r.idx subject t.windows) ~now

let live_budgets t = List.length t.windows
