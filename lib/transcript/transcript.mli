(** Fiat–Shamir transcript. The prover and the verifier both replay the same
    sequence of labelled absorptions; challenges are then a deterministic
    function of everything absorbed so far, which turns the interactive
    protocols (sumcheck, CRPC challenge, Hyrax opening) into non-interactive
    ones in the random-oracle model. Built on {!Zkvc_hash.Sha256}. *)

type t

(** Fresh transcript, domain-separated by [label]. *)
val create : label:string -> t

(** Independent copy (used by tests to simulate prover/verifier replay). *)
val clone : t -> t

val absorb_bytes : t -> label:string -> Bytes.t -> unit
val absorb_string : t -> label:string -> string -> unit
val absorb_int : t -> label:string -> int -> unit

(** 32 bytes of challenge material, bound to all previous absorptions. *)
val challenge_bytes : t -> label:string -> Bytes.t

(** Field-element absorption and uniform challenge derivation. *)
module Challenge (F : Zkvc_field.Field_intf.S) : sig
  val absorb : t -> label:string -> F.t -> unit
  val absorb_list : t -> label:string -> F.t list -> unit
  val absorb_array : t -> label:string -> F.t array -> unit

  (** [of_bytes_wide b] is the big-endian integer [b], of any length,
      reduced mod [F.modulus] with field operations only. *)
  val of_bytes_wide : Bytes.t -> F.t

  (** Uniform element of [F] (512 bits of hash output reduced mod [F.modulus],
      bias below 2^-256). *)
  val challenge : t -> label:string -> F.t

  val challenges : t -> label:string -> int -> F.t list
end
