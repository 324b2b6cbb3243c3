(** Quadratic extension Fq2 = Fq[u]/(u² + 1). [-1] is a non-residue because
    [q ≡ 3 (mod 4)]. Coordinate field of the BN254 G2 twist. *)

module Fq = Zkvc_field.Fq

type t = { c0 : Fq.t; c1 : Fq.t }

val zero : t
val one : t
val make : Fq.t -> Fq.t -> t
val of_fq : Fq.t -> t
val of_int : int -> t

(** The sextic-twist non-residue ξ = 9 + u. *)
val xi : t

val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val double : t -> t
val mul : t -> t -> t
val sqr : t -> t
val mul_by_fq : Fq.t -> t -> t

(** [mul_by_xi a = mul xi a], computed with additions only. *)
val mul_by_xi : t -> t

val inv : t -> t
val div : t -> t -> t
val pow : t -> Zkvc_num.Bigint.t -> t

(** Conjugate [c0 - c1 u]. *)
val conj : t -> t

(** Square root when it exists (q ≡ 3 mod 4 variant of the complex method);
    used to derive G2 points without relying on hard-coded constants. *)
val sqrt : t -> t option

val random : Random.State.t -> t
val size_in_bytes : int
val to_bytes : t -> Bytes.t

(** Raises [Invalid_argument] on wrong length or non-canonical limbs. *)
val of_bytes_exn : Bytes.t -> t
val pp : Format.formatter -> t -> unit
