(** Compiled policy representation and access-request matching.

    The compiler ({!Compile}) lowers a policy AST into a flat list of rules,
    each scoped by asset, operating modes, subjects and message IDs.  The
    engine ({!Engine}) evaluates access requests against this form. *)

type op = Read | Write

type request = {
  mode : string;  (** current operating mode *)
  subject : string;  (** requesting entity, e.g. a CAN node id *)
  asset : string;  (** target asset id *)
  op : op;
  msg_id : int option;  (** CAN message ID when relevant *)
}

type rule = {
  idx : int;  (** source order; used by first-match resolution *)
  decision : Ast.decision;
  ops : op list;  (** [Rw] in the source expands to both *)
  subjects : Ast.subjects;
  asset : string;
  modes : string list option;  (** [None] = applies in every mode *)
  messages : Ast.msg_range list option;  (** [None] = any message ID *)
  rate : Ast.rate option;
      (** behavioural budget; enforced by {!Engine} per (rule, subject) *)
  origin : string;  (** provenance, e.g. ["car_policy v2"] *)
}

type db = {
  name : string;
  version : int;
  default : Ast.decision;  (** decision when no rule matches *)
  rules : rule list;  (** in source order *)
}

val op_of_ast : Ast.op -> op list
(** [Read]->[\[Read\]], [Write]->[\[Write\]], [Rw]->[\[Read; Write\]]. *)

val op_name : op -> string

val range_text : Ast.msg_range -> string
(** ["0x100"] or ["0x100..0x10f"]. *)

val subject_matches : Ast.subjects -> string -> bool
(** [Any_subject] covers everything; [Subjects l] covers members of [l]. *)

val mode_matches : string list option -> string -> bool
(** [None] (no mode scope) covers every mode; [Some l] covers members of
    [l]. *)

val rule_matches : rule -> request -> bool
(** True when every dimension of the rule covers the request.  A
    message-constrained rule only matches requests that carry a message ID
    inside one of its ranges. *)

module Request : sig
  val op_tag : op -> int
  (** Small distinct integer per operation, the column representation used
      by {!Batch} (an [int array] of operations stays unboxed and
      comparison-free on the batched decision path). *)

  val triple_hash : subject_hash:int -> asset_hash:int -> op -> int
  (** Hash of the [(subject, asset, op)] dispatch key, mixed from the
      names' [String.hash] values (field-wise, no [Hashtbl.hash] on the
      structured value); precomputed per request by {!Batch.push_hashed}
      and used by {!Table}'s open-addressed dispatch. *)

  val pair_hash : asset_hash:int -> op -> int
  (** Hash of the [(asset, op)] wildcard-dispatch key (rules whose subject
      is [any], matched when the policy never names the subject), from the
      asset's [String.hash]. *)
end

val rules_for_asset : db -> string -> rule list
(** Rules scoped to the given asset, in source order. *)

val assets : db -> string list
(** Distinct assets mentioned by the rules, sorted. *)

val subjects : db -> string list
(** Distinct named subjects mentioned by the rules, sorted. *)

val pp_rule : Format.formatter -> rule -> unit

val pp_request : Format.formatter -> request -> unit

val pp_db : Format.formatter -> db -> unit
