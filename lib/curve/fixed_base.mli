(** Fixed-base scalar multiplication with a precomputed window table.
    Used by the Groth16 setup, which performs one scalar multiplication
    per wire per CRS query; an 8-bit window costs ~32 group additions per
    scalar instead of ~380 double-and-adds. *)

module Make (G : sig
  type t

  val zero : t
  val add : t -> t -> t
  val double : t -> t
end) : sig
  type table

  (** Precompute the window table for a base point. [normalize], when
      given, rewrites the finished table's points in place, in one call
      over all of them: [G1.normalize] makes them affine, so each
      addition in {!mul} takes the mixed formula. *)
  val create : ?window:int -> ?normalize:(G.t array -> unit) -> G.t -> table

  (** Raises [Invalid_argument] on a negative scalar or one wider than
      254 bits, the width the table covers. *)
  val mul_bigint : table -> Zkvc_num.Bigint.t -> G.t

  val mul : table -> Zkvc_field.Fr.t -> G.t
end
