(** Abstract syntax of the policy DSL.

    Concrete syntax example:
    {v
    policy "ev_ecu_protection" version 2 {
      default deny;
      mode normal, fail_safe {
        asset ev_ecu {
          allow read from sensors, door_locks;
          deny  write from infotainment;
          allow write from ev_ecu messages 0x100..0x10f, 0x200;
        }
      }
      asset engine {
        allow read from any;
      }
    }
    v}

    A [mode] section scopes its asset blocks to the listed operating modes;
    a top-level asset block applies in every mode.  Rules are evaluated with
    an explicit conflict-resolution strategy (see {!Conflict}); the
    [default] section gives the decision when no rule matches. *)

type op = Read | Write | Rw

type decision = Allow | Deny

type subjects =
  | Any_subject
  | Subjects of string list  (** non-empty, sorted, deduplicated *)

type msg_range = { lo : int; hi : int }
(** Inclusive CAN-message-ID range; a single ID is [{lo = i; hi = i}]. *)

type rate = { count : int; window_ms : int }
(** Behavioural rate limit: at most [count] granted operations per sliding
    [window_ms]-millisecond window, per subject.  Written
    [rate 2 per 1000].  The paper's Table I notes that "more complex
    policies such as behavioural or situational based policies may be
    derived"; this is the behavioural form. *)

type rule = {
  decision : decision;
  op : op;
  subjects : subjects;
  messages : msg_range list option;
      (** [None] = any message ID; [Some rs] restricts the rule to IDs in
          one of the ranges *)
  rate : rate option;
      (** only meaningful on [allow] rules; beyond the budget the rule
          stops matching and evaluation falls through (usually to
          [default deny]) *)
}

type asset_block = { asset : string; rules : rule list }

type section =
  | Default of decision
  | Modes of string list * asset_block list
  | Global of asset_block

type policy = { name : string; version : int; sections : section list }

val op_name : op -> string

val decision_name : decision -> string

val range : int -> int -> msg_range
(** @raise Invalid_argument if [hi < lo] or [lo < 0]. *)

val rate_limit : count:int -> window_ms:int -> rate
(** @raise Invalid_argument on non-positive count or window. *)

val single : int -> msg_range

val range_mem : int -> msg_range -> bool

val normalise_subjects : subjects -> subjects
(** Sorts and deduplicates; collapses an empty list to [Any_subject]. *)

val normalise_ranges : msg_range list -> msg_range list
(** Sorts by lower bound and merges overlapping or adjacent ranges, so the
    normal form of a message set is unique. *)

val normalise : policy -> policy
(** Canonical form: subjects normalised, message ranges sorted and merged
    where overlapping/adjacent, mode lists sorted and deduplicated.
    Pretty-printing then parsing a normalised policy yields it back
    unchanged.  A policy already in normal form is returned as is
    (physically), without allocating. *)

val equal : policy -> policy -> bool
(** Structural equality of normal forms. *)
