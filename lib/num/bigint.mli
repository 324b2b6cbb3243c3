(** Arbitrary-precision signed integers.

    Vendored substitute for [zarith] (unavailable in this environment).
    Magnitudes are little-endian arrays of 26-bit limbs stored in native
    OCaml [int]s, so limb products fit comfortably in 63-bit arithmetic.
    Used for field/curve parameters, Montgomery constants, exponents of the
    pairing final exponentiation, and decimal/hex I/O. Hot loops of the
    library never touch this module: field elements use fixed-width
    Montgomery representation in {!Zkvc_field}. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t

(** [to_int_opt n] is [Some i] when [n] fits in a native [int]. *)
val to_int_opt : t -> int option

(** Parses an optionally ['-']-prefixed decimal string, or hexadecimal when
    prefixed with ["0x"]. Raises [Invalid_argument] on malformed input. *)
val of_string : string -> t

val to_string : t -> string
val to_hex : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_even : t -> bool
val sign : t -> int
val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is [(q, r)] with [a = q*b + r], [r] having the sign of [a]
    (truncated division, like OCaml's [/] and [mod]). Raises
    [Division_by_zero] when [b] is zero. *)
val divmod : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

(** [erem a b] is the non-negative remainder of [a] modulo [abs b]. *)
val erem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

(** [bit n i] is bit [i] of [abs n]. *)
val bit : t -> int -> bool

(** [bits n ~pos ~len] is bits [\[pos, pos + len)] of [abs n] as an
    [int], bit [pos] least significant: the value [Σ bit n (pos + k) · 2^k]
    for [k < len]. Requires [pos >= 0] and [0 <= len <= 62], else raises
    [Invalid_argument]. *)
val bits : t -> pos:int -> len:int -> int

(** Number of significant bits of the magnitude; [num_bits zero = 0]. *)
val num_bits : t -> int

(** [pow base exp] with a non-negative [int] exponent. *)
val pow : t -> int -> t

val gcd : t -> t -> t

(** [mod_inverse a m] is the inverse of [a] modulo [m].
    Raises [Invalid_argument] when [gcd a m <> 1]. *)
val mod_inverse : t -> t -> t

(** [mod_pow base exp m]: modular exponentiation with non-negative [exp]. *)
val mod_pow : t -> t -> t -> t

(** Big-endian byte serialisation of the magnitude, left-padded to [len]
    bytes. Raises [Invalid_argument] when the value needs more bytes. *)
val to_bytes_be : t -> int -> Bytes.t

val of_bytes_be : Bytes.t -> t

(** Uniform value in [\[0, bound)] using the given PRNG state. *)
val random : Random.State.t -> t -> t

val pp : Format.formatter -> t -> unit
