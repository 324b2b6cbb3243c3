(** Thaler's special-purpose sumcheck protocol for matrix multiplication
    (Thaler, CRYPTO 2013 — "Time-optimal interactive proofs for circuit
    evaluation"), the technique underlying the zkCNN family of interactive
    provers the paper compares against (its Figure 3/6 "zkCNN" line).

    To check [C = A·B] with [A : 2^µ1 × 2^ν], [B : 2^ν × 2^µ2], the
    verifier picks random [rx, ry] and the prover runs one ν-round
    sumcheck for

      [C̃(rx, ry) = Σ_{k ∈ {0,1}^ν} Ã(rx, k) · B̃(k, ry)],

    with O(n²) prover field work — no constraint system at all. Made
    non-interactive here by Fiat–Shamir. The protocol proves evaluation
    consistency relative to the inputs (the verifier evaluates Ã, B̃, C̃
    itself, or receives them through commitments in a full system); it is
    {e not} zero-knowledge — exactly the trade-off Table I records for the
    interactive schemes. *)

module Fr = Zkvc_field.Fr

type proof

val proof_size_bytes : proof -> int

(** The round messages, each as its evaluations in canonical 32-byte
    form, then Ã(rx, rk) and B̃(rk, ry); [proof_size_bytes] long. *)
val proof_to_bytes : proof -> Bytes.t

(** [prove ~a ~b] for rectangular matrices (row arrays); dimensions are
    zero-padded to powers of two internally. Raises [Invalid_argument] on
    ragged or empty inputs. *)
val prove : a:Fr.t array array -> b:Fr.t array array -> proof

(** [verify ~a ~b ~c proof] — the verifier here re-evaluates the three
    matrix MLEs directly (O(n²) verifier, as when the matrices are public
    inputs). Sound against any wrong [c]. *)
val verify : a:Fr.t array array -> b:Fr.t array array -> c:Fr.t array array -> proof -> bool
