(** Fixed-width Montgomery-form prime field, generated from a modulus given
    in decimal. Elements are arrays of 26-bit limbs in native ints; the hot
    path (product-scanning Montgomery multiplication, one carry per column)
    allocates only its k-limb result and never touches big integers. *)

module Make (M : sig
  (** Decimal representation of an odd prime. *)
  val modulus : string
end) : Field_intf.S
