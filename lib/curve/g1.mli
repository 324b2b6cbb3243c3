(** BN254 G1: [y² = x³ + 3] over Fq, prime order [r], generator (1, 2).
    Jacobian coordinates; all group operations come from
    {!Weierstrass.Make}. *)

module Fq = Zkvc_field.Fq
module Fr = Zkvc_field.Fr

type t

val zero : t
val generator : t
val is_zero : t -> bool
val of_affine : Fq.t * Fq.t -> t
val to_affine : t -> (Fq.t * Fq.t) option
val is_on_curve_affine : Fq.t * Fq.t -> bool
val is_on_curve : t -> bool
val neg : t -> t
val double : t -> t
val add : t -> t -> t

(** Rewrites every point in place to affine form with one inversion; see
    {!Weierstrass.Make.normalize}. *)
val normalize : t array -> unit

val equal : t -> t -> bool

(** Scalar multiplication by a non-negative big integer. *)
val mul : t -> Zkvc_num.Bigint.t -> t

(** Scalar multiplication by a field scalar (the SNARK-common case). *)
val mul_fr : t -> Fr.t -> t

val random : Random.State.t -> t

(** Cofactor is 1, so subgroup membership = on-curve. *)
val in_subgroup : t -> bool

val size_in_bytes : int
val to_bytes : t -> Bytes.t

(** Parses {!to_bytes} output; validates the curve equation. *)
val of_bytes_exn : Bytes.t -> t

(** SEC1-style 33-byte compressed encoding (x plus a y-parity tag). *)
val size_in_bytes_compressed : int

val to_bytes_compressed : t -> Bytes.t

(** Decompresses by solving the curve equation; raises
    [Invalid_argument] when x is not on the curve. *)
val of_bytes_compressed_exn : Bytes.t -> t

val pp : Format.formatter -> t -> unit
