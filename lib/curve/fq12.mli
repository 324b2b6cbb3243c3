(** Quadratic extension Fq12 = Fq6[w]/(w² − v), the pairing target field.
    Since v³ = ξ we get w⁶ = ξ, the relation the D-type sextic twist
    needs: untwisting maps (x', y') ∈ E'(Fq2) to (x'·w², y'·w³). *)

type t = { c0 : Fq6.t; c1 : Fq6.t }

val make : Fq6.t -> Fq6.t -> t
val zero : t
val one : t
val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val sqr : t -> t

(** [conj (a0 + a1·w) = a0 − a1·w = a^(q⁶)]; the inverse on the
    cyclotomic subgroup. *)
val conj : t -> t

val inv : t -> t
val pow : t -> Zkvc_num.Bigint.t -> t

(** [mul_by_line f a b c = mul f (a + b·w + c·w³)] for [a, b, c ∈ Fq2]:
    the shape of a Miller-loop line evaluated at a G1 point on the D-type
    twist, multiplied in with 13 Fq2 products. *)
val mul_by_line : t -> Fq2.t -> Fq2.t -> Fq2.t -> t

(** Granger–Scott squaring, valid only on the cyclotomic subgroup
    [{f : f^(q⁴−q²+1) = 1}] — every output of the easy part
    [(q⁶−1)(q²+1)] of the final exponentiation lies there. About 0.6×
    the cost of {!sqr}. *)
val cyclotomic_sqr : t -> t

(** [frobenius ~power:k a = a^(q^k)] for [k ∈ 1..3], using the constants
    of {!Fq6.frobenius_coeff}. *)
val frobenius : power:int -> t -> t

(** Embedding of an E'(Fq2) x-coordinate: [x'·w²]. *)
val of_twist_x : Fq2.t -> t

(** Embedding of an E'(Fq2) y-coordinate: [y'·w³]. *)
val of_twist_y : Fq2.t -> t

val random : Random.State.t -> t

val pp : Format.formatter -> t -> unit
