type op = Read | Write | Rw

type decision = Allow | Deny

type subjects = Any_subject | Subjects of string list

type msg_range = { lo : int; hi : int }

type rate = { count : int; window_ms : int }

type rule = {
  decision : decision;
  op : op;
  subjects : subjects;
  messages : msg_range list option;
  rate : rate option;
}

type asset_block = { asset : string; rules : rule list }

type section =
  | Default of decision
  | Modes of string list * asset_block list
  | Global of asset_block

type policy = { name : string; version : int; sections : section list }

let op_name = function Read -> "read" | Write -> "write" | Rw -> "rw"

let decision_name = function Allow -> "allow" | Deny -> "deny"

let range lo hi =
  if lo < 0 then invalid_arg "Ast.range: negative lower bound";
  if hi < lo then invalid_arg "Ast.range: hi < lo";
  { lo; hi }

let single i = range i i

let rate_limit ~count ~window_ms =
  if count <= 0 then invalid_arg "Ast.rate_limit: count must be positive";
  if window_ms <= 0 then invalid_arg "Ast.rate_limit: window must be positive";
  { count; window_ms }

let range_mem i r = i >= r.lo && i <= r.hi

let normalise_subjects = function
  | Any_subject -> Any_subject
  | Subjects [] -> Any_subject
  | Subjects l -> Subjects (List.sort_uniq String.compare l)

(* Sort ranges by lower bound and merge overlapping or adjacent ones, so the
   normal form of a message set is unique. *)
let normalise_ranges rs =
  let sorted = List.sort (fun a b -> compare (a.lo, a.hi) (b.lo, b.hi)) rs in
  let rec merge = function
    | a :: b :: rest ->
        if b.lo <= a.hi + 1 then merge ({ lo = a.lo; hi = max a.hi b.hi } :: rest)
        else a :: merge (b :: rest)
    | l -> l
  in
  merge sorted

let normalise_rule r =
  {
    r with
    subjects = normalise_subjects r.subjects;
    messages = Option.map normalise_ranges r.messages;
  }

let normalise_block b = { b with rules = List.map normalise_rule b.rules }

let normalise_section = function
  | Default d -> Default d
  | Modes (modes, blocks) ->
      Modes (List.sort_uniq String.compare modes, List.map normalise_block blocks)
  | Global b -> Global (normalise_block b)

let rec strictly_sorted = function
  | a :: (b :: _ as rest) -> String.compare a b < 0 && strictly_sorted rest
  | _ -> true

(* each range starts past the end of the one before, with a gap: since
   [lo <= hi] (see [range]), that is the sorted, merged form *)
let rec merged = function
  | a :: (b :: _ as rest) -> b.lo > a.hi + 1 && merged rest
  | _ -> true

let normal_subjects = function
  | Any_subject -> true
  | Subjects [] -> false
  | Subjects l -> strictly_sorted l

let normal_rule r =
  normal_subjects r.subjects
  && match r.messages with None -> true | Some rs -> merged rs

let normal_block b = List.for_all normal_rule b.rules

let normal_section = function
  | Default _ -> true
  | Modes (modes, blocks) ->
      strictly_sorted modes && List.for_all normal_block blocks
  | Global b -> normal_block b

(* a policy already in normal form comes back as is, so normalising it
   again (as [Compile] does) allocates nothing *)
let normalise p =
  if List.for_all normal_section p.sections then p
  else { p with sections = List.map normalise_section p.sections }

let equal a b = normalise a = normalise b
