(** Dense univariate polynomials over a prime field, coefficients stored
    lowest-degree first. Multiplication switches from schoolbook to NTT when
    operands are large and the field supports a big-enough radix-2 domain —
    the optimisation CRPC relies on for its "matmul as polynomial
    multiplication" encoding. *)

module Make (F : Zkvc_field.Field_intf.S) : sig
  type t

  val zero : t
  val one : t
  val constant : F.t -> t

  (** Trailing zero coefficients are stripped. *)
  val of_coeffs : F.t array -> t

  val of_list : F.t list -> t

  (** Lowest degree first; the zero polynomial yields [[||]]. *)
  val coeffs : t -> F.t array

  (** [coeff p i] is the coefficient of [x^i] (zero beyond the degree). *)
  val coeff : t -> int -> F.t

  (** Degree of the zero polynomial is -1 by convention. *)
  val degree : t -> int

  val is_zero : t -> bool
  val equal : t -> t -> bool

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val scale : F.t -> t -> t
  val mul : t -> t -> t

  (** Forced quadratic algorithm (exposed for the ablation bench). *)
  val mul_schoolbook : t -> t -> t

  (** Forced NTT algorithm. Raises [Invalid_argument] when the product
      does not fit in the field's maximal radix-2 domain. *)
  val mul_ntt : t -> t -> t

  (** [divmod a b] is [(q, r)] with [a = q*b + r] and [deg r < deg b].
      Raises [Division_by_zero] when [b] is zero. *)
  val divmod : t -> t -> t * t

  val eval : t -> F.t -> F.t

  (** Lagrange interpolation through distinct points [(x_i, y_i)]; O(n²).
      Raises [Invalid_argument] on duplicate abscissae. *)
  val interpolate : (F.t * F.t) list -> t

  val random : Random.State.t -> degree:int -> t

  val pp : Format.formatter -> t -> unit
end
