(** BN254 G2: order-[r] subgroup of the D-type sextic twist
    [y² = x³ + 3/ξ] over Fq2 (ξ = 9 + u).

    The generator is derived at module initialisation (point search +
    cofactor clearing + order check) rather than transcribed, removing any
    dependence on hard-coded constants. *)

module Fr = Zkvc_field.Fr

type t

val zero : t
val generator : t
val b_twist : Fq2.t
val is_zero : t -> bool
val of_affine : Fq2.t * Fq2.t -> t
val to_affine : t -> (Fq2.t * Fq2.t) option
val is_on_curve_affine : Fq2.t * Fq2.t -> bool
val is_on_curve : t -> bool
val neg : t -> t
val double : t -> t
val add : t -> t -> t
val sub_point : t -> t -> t

(** Rewrites every point in place to affine form with one inversion; see
    {!Weierstrass.Make.normalize}. *)
val normalize : t array -> unit

val equal : t -> t -> bool
val mul : t -> Zkvc_num.Bigint.t -> t
val mul_fr : t -> Fr.t -> t
val random : Random.State.t -> t

(** On the twist curve AND killed by [r]. *)
val in_subgroup : t -> bool

val size_in_bytes : int
val to_bytes : t -> Bytes.t

(** Parses {!to_bytes} output; validates the curve equation. *)
val of_bytes_exn : Bytes.t -> t

(** 65-byte compressed encoding (x plus a y-parity tag). *)
val size_in_bytes_compressed : int

val to_bytes_compressed : t -> Bytes.t

(** Decompresses and checks subgroup membership; raises
    [Invalid_argument] on failure. *)
val of_bytes_compressed_exn : Bytes.t -> t

val pp : Format.formatter -> t -> unit
