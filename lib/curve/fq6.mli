(** Cubic extension Fq6 = Fq2[v]/(v³ − ξ), ξ = 9 + u. Middle floor of the
    pairing tower. *)

type t = { c0 : Fq2.t; c1 : Fq2.t; c2 : Fq2.t }

val make : Fq2.t -> Fq2.t -> Fq2.t -> t
val zero : t
val one : t
val of_fq2 : Fq2.t -> t
val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val double : t -> t

(** Karatsuba product: 6 Fq2 multiplications. *)
val mul : t -> t -> t

(** Chung–Hasan squaring (CH-SQR2): 2 Fq2 products and 3 squarings. *)
val sqr : t -> t

val mul_by_fq2 : Fq2.t -> t -> t

(** [mul_by_01 a b0 b1 = mul a (make b0 b1 Fq2.zero)] in 5 Fq2 products. *)
val mul_by_01 : t -> Fq2.t -> Fq2.t -> t

(** Multiplication by the tower generator: [(c0,c1,c2)·v = (ξc2, c0, c1)]. *)
val mul_by_v : t -> t

val inv : t -> t

(** [frobenius_coeff ~power:k e = ξ^(e·(q^k − 1)/6)] for [k ∈ 1..3],
    [e ∈ 0..5]: the factor [w^(e·q^k) / w^e] for the Fq12 generator
    [w] (w⁶ = ξ). Derived from ξ at module initialisation and checked
    there ([γ⁶·ξ = ξ^(q^k)]). *)
val frobenius_coeff : power:int -> int -> Fq2.t

(** [frobenius ~power:k a = a^(q^k)] for [k ∈ 1..3]. *)
val frobenius : power:int -> t -> t

val random : Random.State.t -> t
val pp : Format.formatter -> t -> unit
