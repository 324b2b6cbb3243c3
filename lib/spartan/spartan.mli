(** Spartan-style transparent zkSNARK for R1CS (Setty, CRYPTO 2020) —
    zkVC's "zkVC-S" backend. No trusted setup: the commitment key is
    derived by hashing to the curve.

    Structure (NIZK flavour, as in SpartanNIZK):
    - phase-1 sumcheck over the constraint hypercube proves
      [Σ_x eq̃(τ,x)·(Ãz·B̃z − C̃z)(x) = 0];
    - phase-2 sumcheck reduces the three matrix-vector claims to one
      evaluation of [z̃];
    - the witness half of [z̃] is opened against a Hyrax-style matrix
      Pedersen commitment (√n-size opening, no Bulletproof compression —
      see DESIGN.md substitution 2);
    - the public half is evaluated directly by the verifier.

    Verification is O(nnz + 2^µ + 2^ν) field work — Ã, B̃, C̃ and the
    public half of z̃ are read off the tables eq̃(rx,·) and eq̃(ry,·),
    two multiplications per nonzero — plus one O(√n) MSM for the
    witness opening (2^µ padded constraints, 2^ν padded z length). *)

module Fr = Zkvc_field.Fr
module Cs : module type of Zkvc_r1cs.Constraint_system.Make (Fr)

type instance

(** Pad and index an R1CS for Spartan. *)
val preprocess : Cs.t -> instance

val num_rounds_x : instance -> int
val num_rounds_y : instance -> int

type key

(** Transparent setup: derives Pedersen generators for the witness
    commitment. Deterministic — both parties can run it. *)
val setup : instance -> key

type proof

val proof_size_bytes : proof -> int

(** {2 Wire encodings}

    Length-prefixed arrays over the tagged uncompressed G1 format and the
    canonical 32-byte scalar encoding. Parsing validates every point's
    curve equation and every scalar's canonicity (the discipline of
    [Groth16.proof_of_bytes_exn]); raises [Invalid_argument] on
    truncation, unknown tags, oversized counts or trailing bytes. *)

val proof_to_bytes : proof -> Bytes.t
val proof_of_bytes_exn : Bytes.t -> proof

(** The commitment key as raw points — parsing trusts the file's
    provenance for the generators' unknown discrete logs (see
    {!Pedersen.of_raw}). *)
val key_to_bytes : key -> Bytes.t
val key_of_bytes_exn : Bytes.t -> key

(** [opening_mode] selects the witness-opening flavour:
    [`Hyrax_fold] (default) reveals the √n-size combined row vector;
    [`Ipa] compresses it with a Bulletproofs-style inner-product argument
    (log-size opening, aggregated blind revealed). *)
val prove :
  ?opening_mode:[ `Hyrax_fold | `Ipa ] ->
  Random.State.t ->
  key ->
  instance ->
  Fr.t array ->
  proof

val verify : key -> instance -> public_inputs:Fr.t list -> proof -> bool

(** Verdict of a batched verification, mirroring
    [Groth16.batch_result]: [Batch_malformed] lists the 0-based indices
    of structurally ill-shaped members (wrong public-input arity, wrong
    commitment-grid or opening shape for this key) — cheap to detect and
    attributable — while [Batch_rejected] means some weighted
    combination of the cryptographic checks failed and identifying the
    culprit needs a per-item retry. *)
type batch_result =
  | Batch_accepted
  | Batch_rejected
  | Batch_malformed of int list

(** Randomised batch verification of several (public_inputs, proof)
    pairs under one key. Per-proof field work (sumcheck replays, matrix
    MLE evaluation) still runs for every member, but the group-side
    opening checks — the expensive O(√n) MSMs — are combined: each
    proof's opening is expressed as a linear relation over the shared
    Pedersen basis, Fiat–Shamir weights are drawn from a transcript
    binding every statement and proof in the batch (label
    "zkvc.spartan.batch"), and the weighted sum is evaluated as ONE MSM.
    Soundness error ≤ N/|F_r| on top of the per-proof checks.

    Raises [Invalid_argument] on an empty batch — zero instances have no
    sound verdict. *)
val verify_batch : key -> instance -> (Fr.t list * proof) list -> batch_result

(** {2 Fault injection}

    The proof type is abstract, so the adversary harness
    ({!Zkvc_adversary}) gets its mutation surface from here instead of
    re-deriving the proof layout: {!Mutate.sites} enumerates every
    corruptible component of a concrete proof (each row commitment, each
    sumcheck-round polynomial, each claimed evaluation, each opening
    element — Hyrax fold or IPA folding rounds), and {!Mutate.apply}
    perturbs exactly one (scalar + 1, point + generator), keeping every
    component a valid field/group element. Test-only. *)
module Mutate : sig
  type site

  val sites : proof -> site list
  val site_name : site -> string

  (** Copy of the proof with exactly [site] perturbed. Raises
      [Invalid_argument] if the site refers to the other opening mode. *)
  val apply : site -> proof -> proof
end
