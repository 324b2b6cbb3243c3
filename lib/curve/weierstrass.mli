(** Short Weierstrass curves [y² = x³ + b] in Jacobian coordinates,
    functorised over the coordinate field so the same formulas drive both
    G1 (over Fq) and the G2 twist (over Fq2). The point at infinity is
    encoded as [z = 0]. *)

module Bigint = Zkvc_num.Bigint

module type Coord = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val equal : t -> t -> bool
  val is_zero : t -> bool
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val double : t -> t
  val mul : t -> t -> t
  val sqr : t -> t
  val inv : t -> t
  val size_in_bytes : int
  val to_bytes : t -> Bytes.t
  val of_bytes_exn : Bytes.t -> t
  val pp : Format.formatter -> t -> unit
end

module Make (F : Coord) (P : sig
  val b : F.t
end) : sig
  type t = { x : F.t; y : F.t; z : F.t }

  val zero : t
  val is_zero : t -> bool
  val of_affine : F.t * F.t -> t

  (** [None] for the point at infinity. *)
  val to_affine : t -> (F.t * F.t) option

  val is_on_curve_affine : F.t * F.t -> bool
  val is_on_curve : t -> bool
  val neg : t -> t
  val double : t -> t

  (** Jacobian addition; takes the mixed formula (7M + 4S instead of
      11M + 5S) when either operand is affine ([z = F.one]). *)
  val add : t -> t -> t

  val sub_point : t -> t -> t

  (** [normalize ps] rewrites every point of [ps] in place to affine
      form ([z = F.one]) with one field inversion for the whole array;
      the points at infinity are left as they are. The group elements,
      and so their serialisations, do not change. *)
  val normalize : t array -> unit

  val equal : t -> t -> bool

  (** Double-and-add scalar multiplication; non-negative scalars only. *)
  val mul : t -> Bigint.t -> t

  (** Serialised size: 1 tag byte + two padded coordinates. *)
  val size_in_bytes : int

  (** Uncompressed affine serialisation with an infinity tag byte. *)
  val to_bytes : t -> Bytes.t

  (** Parses {!to_bytes} output; validates length, tag and the curve
      equation. Raises [Invalid_argument] otherwise. *)
  val of_bytes_exn : Bytes.t -> t

  val pp : Format.formatter -> t -> unit
end
