(** Signature of a prime field, as consumed by every layer above
    ({!Zkvc_poly}, {!Zkvc_curve}, {!Zkvc_r1cs}, ...). *)

module type S = sig
  type t

  val modulus : Zkvc_num.Bigint.t

  (** Serialized size of one element, in bytes. *)
  val size_in_bytes : int

  val zero : t
  val one : t

  val of_int : int -> t

  (** Reduces the argument modulo the field characteristic. *)
  val of_bigint : Zkvc_num.Bigint.t -> t

  (** Canonical representative in [\[0, modulus)]. *)
  val to_bigint : t -> Zkvc_num.Bigint.t

  val of_string : string -> t
  val to_string : t -> string

  val equal : t -> t -> bool
  val is_zero : t -> bool
  val is_one : t -> bool

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t
  val sqr : t -> t
  val double : t -> t

  (** Multiplicative inverse. Raises [Division_by_zero] on zero. *)
  val inv : t -> t

  val div : t -> t -> t

  (** [mat_mul x w] is the matrix product X·W of an [a×n] and an [n×b]
      matrix: entry (i, j) is Σ_t x.(i).(t)·w.(t).(j), the same element
      as folding [mul] products with [add]. Raises [Invalid_argument]
      when [n = 0] or a row has the wrong length. *)
  val mat_mul : t array array -> t array array -> t array array

  (** [pow x e] with non-negative big-integer exponent [e]. *)
  val pow : t -> Zkvc_num.Bigint.t -> t

  val pow_int : t -> int -> t

  (** Largest [s] with [2^s | modulus - 1]; governs the radix-2 NTT size. *)
  val two_adicity : int

  (** An element of multiplicative order exactly [2^two_adicity]. *)
  val two_adic_root : t

  val random : Random.State.t -> t

  (** Fixed-width big-endian encoding, [size_in_bytes] long. *)
  val to_bytes : t -> Bytes.t

  (** Raises [Invalid_argument] on wrong length or non-canonical value. *)
  val of_bytes_exn : Bytes.t -> t

  val pp : Format.formatter -> t -> unit
end

(** [mat_mul_dims x w] is [(a, n, b)] for the product of an [a×n] [x] by
    an [n×b] [w]: the shape check every {!S.mat_mul} makes first. *)
let mat_mul_dims x w =
  let n = Array.length w in
  if n = 0 then invalid_arg "mat_mul: empty inner dimension";
  let b = Array.length w.(0) in
  if Array.exists (fun row -> Array.length row <> n) x
     || Array.exists (fun row -> Array.length row <> b) w
  then invalid_arg "mat_mul: dimensions";
  (Array.length x, n, b)
