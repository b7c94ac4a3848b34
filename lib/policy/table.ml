type strategy = Deny_overrides | Allow_overrides | First_match

let op_tag = Ir.Request.op_tag

(* ------------------------------------------------------------------ *)
(* Compile-time grouping key: dedicated hashing, no Hashtbl.hash on     *)
(* structured keys                                                      *)
(* ------------------------------------------------------------------ *)

module Asset_key = struct
  type t = { asset : string; op : Ir.op }

  let equal a b = a.op = b.op && String.equal a.asset b.asset

  let hash k = Ir.Request.pair_hash ~asset_hash:(String.hash k.asset) k.op
end

module AH = Hashtbl.Make (Asset_key)

module Mode_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash s = String.hash s land max_int
end)

(* ------------------------------------------------------------------ *)
(* Compiled rule form                                                  *)
(* ------------------------------------------------------------------ *)

(* Modes intern to bits 0..60 of a mask; bit 61 ([1 lsl unknown_mode_id])
   means "a mode the policy never names", so [Mask (-1)] (a rule with no
   mode scope) matches those too while explicit masks never can.  Policies
   naming more than 61 distinct modes keep the literal list — correctness
   over speed in a case that does not occur in practice. *)
let max_interned_modes = 61

(* mode ids are 0..60 for interned modes; 61 is the shared id of every
   mode the policy never names *)
let unknown_mode_id = max_interned_modes

let mode_slots = unknown_mode_id + 1

type cmodes = Mask of int | Listed of string list

(* Message-ID constraints after normalisation.  Almost every automotive
   rule covers one contiguous ID window, so the single-interval case gets
   its own constructor and matches with two integer compares instead of a
   cross-module binary search (no flambda, so [Intervals.mem] is a real
   call on the hot path). *)
type cmsgs = Any_msg | Range1 of int * int | Ranges of Intervals.t

type crule = {
  rule : Ir.rule;
  cmodes : cmodes;
  cmsgs : cmsgs;
  allow : bool;
  rated : bool;
}

type verdict =
  | Const of Ast.decision * Ir.rule
      (** head rule matches unconditionally: precomputed decision *)
  | By_mode of {
      decisions : Ast.decision array;
      rules : Ir.rule option array;
    }
      (** every rule in the bucket is mode-only (no message ranges, no
          rates): the whole bucket collapses to one decision per interned
          mode id — a branch-free array read at decision time *)
  | Scan of crule array

(* ------------------------------------------------------------------ *)
(* Open-addressed dispatch                                             *)
(* ------------------------------------------------------------------ *)

(* The [(subject, asset, op)] / [(asset, op)] key spaces are fixed once
   the policy is compiled, so instead of a general-purpose [Hashtbl]
   (whose [find_opt] allocates an option per lookup) the table is lowered
   into flat open-addressed arrays: power-of-two capacity at most half
   full, linear probing, hashes precomputed — a miss or hit costs a few
   array reads and string compares and never allocates.  [hashes.(j) = -1]
   marks an empty slot; [verdicts.(j)] keeps its [Some] from build time so
   lookups return a pre-existing pointer. *)
type dispatch = {
  dmask : int;
  hashes : int array;
  k1 : string array;  (* subject (exact) or asset (wildcard) *)
  k2 : string array;  (* asset (exact) or "" (wildcard) *)
  dops : int array;
  verdicts : verdict option array;
}

let empty_dispatch =
  {
    dmask = 0;
    hashes = [| -1 |];
    k1 = [| "" |];
    k2 = [| "" |];
    dops = [| 0 |];
    verdicts = [| None |];
  }

let build_dispatch entries =
  match entries with
  | [] -> empty_dispatch
  | _ ->
      let n = List.length entries in
      let cap = ref 1 in
      while !cap < 2 * n do
        cap := !cap * 2
      done;
      let cap = !cap in
      let d =
        {
          dmask = cap - 1;
          hashes = Array.make cap (-1);
          k1 = Array.make cap "";
          k2 = Array.make cap "";
          dops = Array.make cap 0;
          verdicts = Array.make cap None;
        }
      in
      List.iter
        (fun (h, k1, k2, op, verdict) ->
          let j = ref (h land d.dmask) in
          while d.hashes.(!j) <> -1 do
            j := (!j + 1) land d.dmask
          done;
          d.hashes.(!j) <- h;
          d.k1.(!j) <- k1;
          d.k2.(!j) <- k2;
          d.dops.(!j) <- op;
          d.verdicts.(!j) <- Some verdict)
        entries;
      d

(* top-level recursion (not an inner [let rec]) so probing never builds a
   closure — the batched loop's zero-allocation contract depends on it.
   [j] is always masked by [dmask] (capacity - 1), so every index is in
   bounds by construction and the reads can skip the bounds checks. *)
let rec probe d h k1 k2 op j =
  let hj = Array.unsafe_get d.hashes j in
  if hj = -1 then None
  else if
    hj = h
    && Array.unsafe_get d.dops j = op
    && String.equal (Array.unsafe_get d.k1 j) k1
    && String.equal (Array.unsafe_get d.k2 j) k2
  then Array.unsafe_get d.verdicts j
  else probe d h k1 k2 op ((j + 1) land d.dmask)

let[@inline] find_dispatch d ~h ~k1 ~k2 ~op = probe d h k1 k2 op (h land d.dmask)

(* Frozen after [compile]: every field is populated during compilation and
   only ever read afterwards, which is what makes a compiled table safe to
   share read-only across domains (see {!Secpol_par}). *)
type t = {
  strategy : strategy;
  default : Ast.decision;
  exact : dispatch;
  wildcard : dispatch;
  mode_ids : int Mode_tbl.t;
  stamp : int;
}

(* one unique stamp per compiled table, so batch arenas can tell whether
   their mode-interning memo still refers to the deciding table *)
let stamp_counter = Atomic.make 0

let strategy t = t.strategy

let default t = t.default

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compile ~strategy (db : Ir.db) =
  let mode_ids = Mode_tbl.create 16 in
  let intern_mode m =
    match Mode_tbl.find_opt mode_ids m with
    | Some i -> Some i
    | None ->
        let i = Mode_tbl.length mode_ids in
        if i >= max_interned_modes then None
        else begin
          Mode_tbl.replace mode_ids m i;
          Some i
        end
  in
  let compile_modes = function
    | None -> Mask (-1)
    | Some modes -> (
        let bits =
          List.fold_left
            (fun acc m ->
              match (acc, intern_mode m) with
              | Some mask, Some i -> Some (mask lor (1 lsl i))
              | _, None | None, _ -> None)
            (Some 0) modes
        in
        match bits with Some mask -> Mask mask | None -> Listed modes)
  in
  let compile_rule (r : Ir.rule) =
    {
      rule = r;
      cmodes = compile_modes r.modes;
      cmsgs =
        (match r.messages with
        | None -> Any_msg
        | Some ranges -> (
            let iv =
              Intervals.of_ranges
                (List.map (fun (g : Ast.msg_range) -> (g.lo, g.hi)) ranges)
            in
            match Intervals.ranges iv with
            | [ (lo, hi) ] -> Range1 (lo, hi)
            | _ -> Ranges iv));
      allow = r.decision = Ast.Allow;
      rated = Option.is_some r.rate;
    }
  in
  (* fold the strategy into bucket order: after this, every strategy is
     "first matching rule in bucket order wins" (rate-exhausted allows are
     skipped), which is exactly what the interpreted engine computes *)
  let reorder rules =
    match strategy with
    | First_match -> rules
    | Deny_overrides ->
        let allows, denies = List.partition (fun c -> c.allow) rules in
        denies @ allows
    | Allow_overrides ->
        let allows, denies = List.partition (fun c -> c.allow) rules in
        allows @ denies
  in
  let mode_only c =
    (match c.cmsgs with Any_msg -> true | Range1 _ | Ranges _ -> false)
    && not c.rated
  in
  let mask_of c = match c.cmodes with Mask m -> m | Listed _ -> 0 in
  let to_verdict default rules =
    let arr = Array.of_list (reorder rules) in
    match arr.(0) with
    | { cmodes = Mask (-1); cmsgs = Any_msg; rated = false; rule; _ } ->
        (* everything after an unconditional head is unreachable *)
        Const (rule.Ir.decision, rule)
    | _
      when Array.for_all
             (fun c ->
               mode_only c && match c.cmodes with Mask _ -> true | Listed _ -> false)
             arr ->
        (* mode-only bucket: precompute the winner for every mode id, so
           deciding is one array read with no scan and no branches *)
        let decisions = Array.make mode_slots default in
        let rules = Array.make mode_slots None in
        for m = 0 to mode_slots - 1 do
          let bit = 1 lsl m in
          match Array.find_opt (fun c -> mask_of c land bit <> 0) arr with
          | Some c ->
              decisions.(m) <- c.rule.Ir.decision;
              rules.(m) <- Some c.rule
          | None -> ()
        done;
        By_mode { decisions; rules }
    | _ -> Scan arr
  in
  (* group rules by (asset, op) in source order, each compiled once
     however many buckets it lands in (an [any] rule lands in every named
     subject's bucket and the wildcard one) *)
  let groups = AH.create 32 in
  let group_order = ref [] in
  List.iter
    (fun (r : Ir.rule) ->
      let c = compile_rule r in
      List.iter
        (fun op ->
          let key = { Asset_key.asset = r.asset; op } in
          match AH.find_opt groups key with
          | Some rules -> rules := c :: !rules
          | None ->
              AH.replace groups key (ref [ c ]);
              group_order := key :: !group_order)
        r.ops)
    db.rules;
  let exact_entries = ref [] in
  let wildcard_entries = ref [] in
  List.iter
    (fun (key : Asset_key.t) ->
      let rules = List.rev !(AH.find groups key) in
      let named =
        rules
        |> List.concat_map (fun c ->
               match c.rule.Ir.subjects with
               | Ast.Any_subject -> []
               | Ast.Subjects l -> l)
        |> List.sort_uniq String.compare
      in
      List.iter
        (fun subject ->
          let bucket =
            List.filter
              (fun c -> Ir.subject_matches c.rule.Ir.subjects subject)
              rules
          in
          exact_entries :=
            ( Ir.Request.triple_hash ~subject_hash:(String.hash subject)
                ~asset_hash:(String.hash key.asset) key.op,
              subject,
              key.asset,
              op_tag key.op,
              to_verdict db.default bucket )
            :: !exact_entries)
        named;
      match
        List.filter
          (fun c ->
            match c.rule.Ir.subjects with
            | Ast.Any_subject -> true
            | Ast.Subjects _ -> false)
          rules
      with
      | [] -> ()
      | any_rules ->
          wildcard_entries :=
            ( Ir.Request.pair_hash ~asset_hash:(String.hash key.asset) key.op,
              key.asset,
              "",
              op_tag key.op,
              to_verdict db.default any_rules )
            :: !wildcard_entries)
    (List.rev !group_order);
  {
    strategy;
    default = db.default;
    exact = build_dispatch !exact_entries;
    wildcard = build_dispatch !wildcard_entries;
    mode_ids;
    stamp = Atomic.fetch_and_add stamp_counter 1;
  }

(* ------------------------------------------------------------------ *)
(* The fast path                                                       *)
(* ------------------------------------------------------------------ *)

let mode_id t mode =
  match Mode_tbl.find_opt t.mode_ids mode with
  | Some i -> i
  | None -> unknown_mode_id

let[@inline] crule_matches (c : crule) ~bit ~mode ~msg =
  (match c.cmodes with
  | Mask m -> m land bit <> 0
  | Listed l -> List.mem mode l)
  &&
  match c.cmsgs with
  | Any_msg -> true
  (* msg = -1 (no id) is below every lo, so it is never a member *)
  | Range1 (lo, hi) -> lo <= msg && msg <= hi
  | Ranges iv -> Intervals.mem iv msg

let rec scan_scalar t arr n i ~bit ~mode ~msg ~rate_admit =
  if i = n then (t.default, None)
  else
    let c = arr.(i) in
    if crule_matches c ~bit ~mode ~msg then
      if not c.allow then (Ast.Deny, Some c.rule)
      else if (not c.rated) || rate_admit c.rule then (Ast.Allow, Some c.rule)
      else scan_scalar t arr n (i + 1) ~bit ~mode ~msg ~rate_admit
    else scan_scalar t arr n (i + 1) ~bit ~mode ~msg ~rate_admit

(* the [(subject, asset, op)] bucket, or the [(asset, op)] wildcard one
   for a subject the policy never names *)
let[@inline] find_verdict t ~subject ~asset op =
  let tag = op_tag op in
  let asset_hash = String.hash asset in
  match
    find_dispatch t.exact
      ~h:
        (Ir.Request.triple_hash ~subject_hash:(String.hash subject) ~asset_hash
           op)
      ~k1:subject ~k2:asset ~op:tag
  with
  | Some _ as v -> v
  | None ->
      find_dispatch t.wildcard
        ~h:(Ir.Request.pair_hash ~asset_hash op)
        ~k1:asset ~k2:"" ~op:tag

let decide t ~rate_admit (req : Ir.request) =
  match find_verdict t ~subject:req.subject ~asset:req.asset req.op with
  | None -> (t.default, None)
  | Some (Const (decision, rule)) -> (decision, Some rule)
  | Some (By_mode { decisions; rules }) ->
      let m = mode_id t req.mode in
      (decisions.(m), rules.(m))
  | Some (Scan arr) ->
      let bit = 1 lsl mode_id t req.mode in
      let msg = match req.msg_id with None -> -1 | Some id -> id in
      scan_scalar t arr (Array.length arr) 0 ~bit ~mode:req.mode ~msg
        ~rate_admit

type 'budget answer = { rated : 'budget array; otherwise : Ast.decision }

type resolved = Ir.rule answer

(* fixed answers are constants: resolving one allocates nothing *)
let fixed = function
  | Ast.Allow -> { rated = [||]; otherwise = Ast.Allow }
  | Ast.Deny -> { rated = [||]; otherwise = Ast.Deny }

let answer rated otherwise =
  match rated with
  | [] -> fixed otherwise
  | _ -> { rated = Array.of_list (List.rev rated); otherwise }

(* [scan_scalar] with every budget left open: a matching rated allow is
   collected and passed over, the first other matching rule decides *)
let rec resolve_scan t arr i ~bit ~mode ~msg rated =
  if i = Array.length arr then answer rated t.default
  else
    let c = arr.(i) in
    if not (crule_matches c ~bit ~mode ~msg) then
      resolve_scan t arr (i + 1) ~bit ~mode ~msg rated
    else if not c.allow then answer rated Ast.Deny
    else if c.rated then
      resolve_scan t arr (i + 1) ~bit ~mode ~msg (c.rule :: rated)
    else answer rated Ast.Allow

let resolver t ~mode ~subject ~asset op =
  match find_verdict t ~subject ~asset op with
  | None ->
      let answer = fixed t.default in
      fun _ -> answer
  | Some (Const (decision, _)) ->
      let answer = fixed decision in
      fun _ -> answer
  | Some (By_mode { decisions; _ }) ->
      let answer = fixed decisions.(mode_id t mode) in
      fun _ -> answer
  | Some (Scan arr) ->
      let bit = 1 lsl mode_id t mode in
      fun msg -> resolve_scan t arr 0 ~bit ~mode ~msg []

let resolve t (req : Ir.request) =
  resolver t ~mode:req.mode ~subject:req.subject ~asset:req.asset req.op
    (match req.msg_id with None -> -1 | Some id -> id)

(* Top-level recursion: walking an answer builds no closure, and [now]
   reaches [admit] as the caller boxed it. *)
let rec walk admit budgets (a : _ answer) ~now i =
  if i = Array.length a.rated then a.otherwise
  else if admit budgets (Array.unsafe_get a.rated i) ~now then Ast.Allow
  else walk admit budgets a ~now (i + 1)

let first_with_room admit budgets a ~now = walk admit budgets a ~now 0

(* ------------------------------------------------------------------ *)
(* The batched path                                                    *)
(* ------------------------------------------------------------------ *)

(* Mode interning for a batch: physical-equality memo against the batch's
   last mode string, falling back to the hash lookup (which allocates an
   option) only when the mode string changes or the batch last ran
   against a different table.  Batches streaming one mode — the common
   bulk-replay shape — intern exactly once. *)
let[@inline] batch_mode_id t (b : Batch.t) i =
  let m = b.Batch.modes.(i) in
  if b.Batch.memo_stamp = t.stamp && m == b.Batch.memo_mode then
    b.Batch.memo_id
  else begin
    let id = mode_id t m in
    b.Batch.memo_stamp <- t.stamp;
    b.Batch.memo_mode <- m;
    b.Batch.memo_id <- id;
    id
  end

(* Top-level recursion again.  Rated rules hand the callbacks the batch
   and row, not the row's subject and timestamp, so the float [now] is
   never boxed here and every branch touches only ints and pre-existing
   pointers; what a callback reads from the row is its own cost. *)
let rec scan_batched t arr n k ~bit ~mode ~msg (b : Batch.t) i rate_admit =
  if k = n then t.default
  else
    let c = Array.unsafe_get arr k (* k < n = Array.length arr *) in
    if crule_matches c ~bit ~mode ~msg then
      if not c.allow then Ast.Deny
      else if (not c.rated) || rate_admit c.rule b i then Ast.Allow
      else scan_batched t arr n (k + 1) ~bit ~mode ~msg b i rate_admit
    else scan_batched t arr n (k + 1) ~bit ~mode ~msg b i rate_admit

(* One row's decision.  [decide_batch] guarantees
   [0 <= i < Batch.length b <= capacity], the invariant every column
   shares, so the column reads skip their bounds checks. *)
let[@inline] row_decision t ~rate_admit (b : Batch.t) i =
  let subject = Array.unsafe_get b.Batch.subjects i in
  let asset = Array.unsafe_get b.Batch.assets i in
  let op = Array.unsafe_get b.Batch.ops i in
  let verdict =
    match
      find_dispatch t.exact
        ~h:(Array.unsafe_get b.Batch.exact_hash i)
        ~k1:subject ~k2:asset ~op
    with
    | Some _ as v -> v
    | None ->
        find_dispatch t.wildcard
          ~h:(Array.unsafe_get b.Batch.wild_hash i)
          ~k1:asset ~k2:"" ~op
  in
  match verdict with
  | None -> t.default
  | Some (Const (decision, _)) -> decision
  | Some (By_mode { decisions; _ }) ->
      (* mode ids are < mode_slots = Array.length decisions *)
      Array.unsafe_get decisions (batch_mode_id t b i)
  | Some (Scan arr) ->
      scan_batched t arr (Array.length arr) 0
        ~bit:(1 lsl batch_mode_id t b i)
        ~mode:(Array.unsafe_get b.Batch.modes i)
        ~msg:(Array.unsafe_get b.Batch.msg_ids i)
        b i rate_admit

let decide_batch t ~rate_admit (b : Batch.t) ~(out : Ast.decision array) =
  let allows = ref 0 in
  (* [out] is the only caller-supplied array; the engine length-checked it *)
  for i = 0 to b.Batch.len - 1 do
    let decision = row_decision t ~rate_admit b i in
    if decision = Ast.Allow then incr allows;
    out.(i) <- decision
  done;
  !allows

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type stats = {
  buckets : int;
  wildcard_buckets : int;
  folded : int;
  mode_folded : int;
  max_bucket : int;
  modes : int;
}

let stats t =
  let fold_dispatch d (count, folded, mode_folded, max_bucket) =
    Array.fold_left
      (fun (count, folded, mode_folded, max_bucket) -> function
        | None -> (count, folded, mode_folded, max_bucket)
        | Some (Const _) -> (count + 1, folded + 1, mode_folded, max_bucket)
        | Some (By_mode _) -> (count + 1, folded, mode_folded + 1, max_bucket)
        | Some (Scan arr) ->
            (count + 1, folded, mode_folded, max max_bucket (Array.length arr)))
      (count, folded, mode_folded, max_bucket)
      d.verdicts
  in
  let exact_count, folded, mode_folded, max_bucket =
    fold_dispatch t.exact (0, 0, 0, 0)
  in
  let all_count, folded, mode_folded, max_bucket =
    fold_dispatch t.wildcard (exact_count, folded, mode_folded, max_bucket)
  in
  {
    buckets = exact_count;
    wildcard_buckets = all_count - exact_count;
    folded;
    mode_folded;
    max_bucket;
    modes = Mode_tbl.length t.mode_ids;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d buckets (+%d wildcard), %d folded to constants, %d folded per-mode, \
     longest scan %d, %d modes interned"
    s.buckets s.wildcard_buckets s.folded s.mode_folded s.max_bucket s.modes
