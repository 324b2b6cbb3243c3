(** Multi-scalar multiplication (Pippenger's bucket method) — the dominant
    cost of the Groth16 prover. The CRPC/PSQ variable-count reductions
    translate directly into fewer bucket additions here. *)

module Bigint = Zkvc_num.Bigint
module Fr = Zkvc_field.Fr

(** The Pippenger windows [(lo, width)] that {!Make.msm_bigint} plans for
    these scalars, lowest first. They tile bits [\[0, l + 1)], where [l]
    is the longest scalar's bit length: digits are signed, so the top
    window reads the zero bit above the longest scalar to absorb the last
    carry. Their widths minimise a cost that counts, per window, one
    bucket addition per scalar reaching it, the 2·2^(width−1) additions
    of the bucket sum and the doublings. Raises [Invalid_argument] on a
    negative scalar. *)
val windows : Bigint.t array -> (int * int) array

(** [digit s ~lo ~c] is the signed digit of window [\[lo, lo + c)] of
    [s]: bits [\[lo, lo + c)] plus the carry bit [lo − 1], less 2^c times
    the window's top bit; [|digit| ≤ 2^(c−1)]. Over windows that tile
    [\[0, l + 1)] the digits rebuild [s]: Σ digit·2^lo = s. *)
val digit : Bigint.t -> lo:int -> c:int -> int

module type Group = sig
  type t

  val zero : t
  val add : t -> t -> t
  val double : t -> t
  val neg : t -> t
end

module Make (G : Group) : sig
  (** [msm_bigint points scalars = Σ scalars_i · points_i]. Raises
      [Invalid_argument] on length mismatch or a negative scalar. *)
  val msm_bigint : G.t array -> Bigint.t array -> G.t

  val msm : G.t array -> Fr.t array -> G.t

  (** Reference implementation for tests: sum of naive scalar
      multiplications using the supplied [mul]. *)
  val msm_naive : mul:(G.t -> 'scalar -> G.t) -> G.t array -> 'scalar array -> G.t
end
