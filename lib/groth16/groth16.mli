(** Groth16 zk-SNARK (EUROCRYPT 2016) over BN254 — zkVC's "zkVC-G"
    backend. Constant-size proofs (two G1 points and one G2 point),
    constant-time verification (one multi-pairing), trusted setup.

    Prover cost is dominated by multi-scalar multiplications of size
    [num_vars] / [num_constraints] and by the NTTs computing the QAP
    quotient — precisely the quantities CRPC and PSQ shrink. *)

module Fr = Zkvc_field.Fr
module Qap : module type of Zkvc_qap.Qap.Make (Fr)
module Cs : module type of Zkvc_r1cs.Constraint_system.Make (Fr)

type proving_key

(** Holds, besides its serialised points, a prepared part derived from
    them when the key is built (by {!setup} or
    {!verifying_key_of_bytes_exn}): [e(α, β)] and the Miller-loop line
    coefficients of [γ] and [δ]. The prepared part is never serialised
    and is immutable, so one key can serve several domains. *)
type verifying_key

type proof =
  { a : Zkvc_curve.G1.t;
    b : Zkvc_curve.G2.t;
    c : Zkvc_curve.G1.t }

(** Canonical (uncompressed affine) proof size: 2·64 + 128 bytes. *)
val proof_size_bytes : proof -> int

(** Wire encoding (tagged uncompressed points; 259 bytes). *)
val proof_to_bytes : proof -> Bytes.t

(** Parses {!proof_to_bytes} output. Validates lengths, curve membership
    of all three points and the G2 subgroup check; raises
    [Invalid_argument] on any failure. *)
val proof_of_bytes_exn : Bytes.t -> proof

(** Compressed wire encoding (131 bytes: x-coordinates + parity tags). *)
val proof_to_bytes_compressed : proof -> Bytes.t

(** Decompresses and validates (curve equations + G2 subgroup). *)
val proof_of_bytes_compressed_exn : Bytes.t -> proof

(** Trusted setup for one circuit. The "toxic waste" (tau, alpha, beta,
    gamma, delta) is sampled from the given PRNG and dropped. *)
val setup : Random.State.t -> Qap.t -> proving_key * verifying_key

(** Produce a proof from a full satisfying assignment (as returned by
    {!Zkvc_r1cs.Builder}). Randomised: proofs are perfectly
    zero-knowledge. *)
val prove : Random.State.t -> proving_key -> Qap.t -> Fr.t array -> proof

(** [verify vk ~public_inputs proof]: public inputs in canonical wire
    order, excluding the constant-one wire. Three Miller loops — the
    [γ] and [δ] ones over line coefficients cached in the key — and one
    final exponentiation, checked against the key's cached [e(α, β)]. *)
val verify : verifying_key -> public_inputs:Fr.t list -> proof -> bool

(** Verdict of a batched verification. [Batch_malformed] lists the
    0-based indices of instances whose public-input arity does not match
    the key — a structural fault attributable to specific members, as
    opposed to [Batch_rejected], where the weighted combination failed
    and identifying the culprit needs a per-item retry. *)
type batch_result =
  | Batch_accepted
  | Batch_rejected
  | Batch_malformed of int list

(** Batch verification of several (public_inputs, proof) pairs under one
    verifying key: (k + 3) Miller loops (the [γ] and [δ] ones over the
    key's cached lines) and a single final exponentiation instead of k
    independent checks. Random weights are derived by Fiat–Shamir from
    the statements, so a batch that verifies contains only valid proofs
    (up to soundness error k/|F_r|).

    Raises [Invalid_argument] on an empty batch: there is no sound
    verdict for zero instances, and the previous behaviour (vacuous
    [true]) let a dropped-to-empty batch "verify". *)
val verify_batch : verifying_key -> (Fr.t list * proof) list -> batch_result

(** {2 Verifying-key components}

    Read-only accessors for the unprepared verification equation
    e(A,B) = e(α,β)·e(IC,γ)·e(C,δ): with {!ic_sum} they let a check
    rebuild it pair by pair, against the prepared lines {!verify}
    uses. *)

val vk_alpha : verifying_key -> Zkvc_curve.G1.t
val vk_beta : verifying_key -> Zkvc_curve.G2.t
val vk_gamma : verifying_key -> Zkvc_curve.G2.t
val vk_delta : verifying_key -> Zkvc_curve.G2.t

(** [ic_sum vk io = IC_0 + Σ io_i·IC_i] — the public-input term of the
    verification equation, as one Pippenger MSM. Raises
    [Invalid_argument] unless [io] has one entry per public input. *)
val ic_sum : verifying_key -> Fr.t list -> Zkvc_curve.G1.t

(** {2 Key wire encodings}

    Length-prefixed arrays of tagged uncompressed points. Parsing
    validates every point's curve equation and every G2 point's r-order
    subgroup membership (the discipline of {!proof_of_bytes_exn});
    raises [Invalid_argument] on any failure, truncation, oversized
    array count or trailing bytes. The subgroup checks make parsing a
    large proving key O([num_vars]) G2 scalar multiplications — intended
    for key files and the proof service's disk cache, not a hot path. *)

val proving_key_to_bytes : proving_key -> Bytes.t
val proving_key_of_bytes_exn : Bytes.t -> proving_key
val verifying_key_to_bytes : verifying_key -> Bytes.t
val verifying_key_of_bytes_exn : Bytes.t -> verifying_key

(** {2 Fault injection}

    Single-component proof corruptions for the adversary harness
    ({!Zkvc_adversary}): replace, negate or identity-out each of A, B, C,
    or swap the two G1 points. Perturbations are group-structured so the
    mutated points remain valid curve/subgroup elements — a sound
    verifier must reject them in the pairing check, not in point
    validation. Test-only; never part of a proving flow. *)
module Mutate : sig
  type site =
    | A_bump  (** A := A + G1 generator *)
    | A_neg
    | A_identity
    | B_bump
    | B_neg
    | B_identity
    | C_bump
    | C_neg
    | C_identity
    | Swap_a_c

  val all : site list
  val site_name : site -> string

  (** Copy of the proof with exactly one component corrupted. *)
  val apply : site -> proof -> proof
end
