(** Versioned policy distribution — the paper's post-deployment "policy
    definition update" mechanism.

    A {!bundle} wraps policy source with an integrity checksum; a {!store}
    models the policy state of one device, enforcing monotonically
    increasing versions.  A rollback is a newer bundle carrying the old
    rules. *)

type bundle = private {
  name : string;
  version : int;
  source : string;  (** policy DSL source text *)
  checksum : string;  (** hex digest over name, version and source *)
  signature : string option;
      (** HMAC over the checksum under the OEM key; [None] = unsigned *)
  created_at : float;  (** creation timestamp (simulation time) *)
}

val bundle : ?at:float -> Ast.policy -> bundle
(** Render the policy and seal it with a checksum. *)

val bundle_of_source : ?at:float -> string -> (bundle, string) result
(** Validate (parse + compile) the source first; malformed policies are
    refused at packaging time, not on the device. *)

val verify : bundle -> bool
(** Recompute and compare the checksum. *)

val tampered : bundle -> payload:string -> bundle
(** A copy whose [source] was replaced without resealing — for testing that
    installs reject modified bundles.  [verify] on the result is [false]
    (unless [payload] equals the original source). *)

(** {2 Authenticity}

    Checksums catch corruption; they do not stop an attacker who can forge
    a whole bundle.  Signing binds the bundle to the OEM key provisioned
    into the device at manufacture. *)

val sign : key:string -> bundle -> bundle
(** Attach an HMAC signature over the sealed checksum. *)

val verify_signed : key:string -> bundle -> bool
(** Integrity and authenticity: {!verify} plus a signature check under
    [key].  Unsigned bundles fail. *)

type store

val create : unit -> store

val install : store -> bundle -> (unit, string) result
(** Refuses: corrupt bundles ([verify] fails), unparseable sources, and
    versions not strictly greater than the currently installed version of
    the same policy name. *)

val install_signed : store -> key:string -> bundle -> (unit, string) result
(** {!install} that additionally refuses unsigned or wrongly-signed
    bundles — for devices provisioned with an OEM key. *)

val current : store -> string -> bundle option
(** Installed bundle for a policy name. *)

val current_db : store -> string -> Ir.db option
(** Compiled form of {!current}. *)

val history : store -> string -> bundle list
(** All versions ever installed, oldest first. *)

val names : store -> string list
