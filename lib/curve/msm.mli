(** Multi-scalar multiplication (Pippenger's bucket method) — the dominant
    cost of the Groth16 prover. The CRPC/PSQ variable-count reductions
    translate directly into fewer bucket additions here. *)

module Bigint = Zkvc_num.Bigint
module Fr = Zkvc_field.Fr

(** The Pippenger windows [(lo, width)] that {!Make.msm_bigint} plans for
    these scalars, lowest first. They tile bits [\[0, l)], where [l] is
    the longest scalar's bit length, and their widths minimise a cost
    that counts, per window, one bucket addition per scalar reaching it,
    the bucket sum and the doublings. *)
val windows : Bigint.t array -> (int * int) array

module type Group = sig
  type t

  val zero : t
  val add : t -> t -> t
  val double : t -> t
end

module Make (G : Group) : sig
  (** [msm_bigint points scalars = Σ scalars_i · points_i]. Raises
      [Invalid_argument] on length mismatch. *)
  val msm_bigint : G.t array -> Bigint.t array -> G.t

  val msm : G.t array -> Fr.t array -> G.t

  (** Reference implementation for tests: sum of naive scalar
      multiplications using the supplied [mul]. *)
  val msm_naive : mul:(G.t -> 'scalar -> G.t) -> G.t array -> 'scalar array -> G.t
end
