module Ast = Secpol_policy.Ast
module Ir = Secpol_policy.Ir
module Table = Secpol_policy.Table
module Window = Secpol_policy.Rate_window

(* one subject's windows, keyed by rule index *)
type budgets = { subject : string; mutable windows : (int * Window.t) list }

type t = {
  id : int;
  mutable version : int;
  mutable mode : string;
  (* keyed subject, then rule index; a campaign holds one record per
     vehicle and a vehicle touches one or two rated rules, so an empty
     list costs nothing and a short scan beats a hash table *)
  mutable budgets : budgets list;
}

let create ?(mode = "normal") ~id ~version () =
  { id; version; mode; budgets = [] }

let id t = t.id

let version t = t.version

let mode t = t.mode

let set_mode t mode = t.mode <- mode

let install t ~version =
  t.version <- version;
  t.budgets <- []

(* top-level recursion over the keys: no tuple key, no closure *)
let rec budgets_in t subject = function
  | b :: rest ->
      if b.subject == subject || String.equal b.subject subject then b
      else budgets_in t subject rest
  | [] ->
      let b = { subject; windows = [] } in
      t.budgets <- b :: t.budgets;
      b

let rec window_in b rate idx = function
  | (i, w) :: rest -> if i = idx then w else window_in b rate idx rest
  | [] ->
      let window = Window.of_rate rate in
      b.windows <- (idx, window) :: b.windows;
      window

let admit b (r : Ir.rule) ~now =
  match r.rate with
  | None -> true (* an unlimited allow always has room *)
  | Some rate -> Window.admit (window_in b rate r.idx b.windows) ~now

let decide t (res : Table.resolved) ~subject ~now =
  if Array.length res.rated = 0 then res.otherwise
  else
    Table.first_with_room admit (budgets_in t subject t.budgets) res ~now

let live_budgets t =
  List.fold_left (fun n b -> n + List.length b.windows) 0 t.budgets
