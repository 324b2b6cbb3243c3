(** Quadratic Arithmetic Program reduction of an R1CS
    (Gennaro–Gentry–Parno–Raykova, as used by Groth16/libsnark).

    Each R1CS matrix column becomes a polynomial interpolating that
    column's entries over a radix-2 domain; a satisfying assignment [z]
    makes [A(x)·B(x) − C(x)] divisible by the domain's vanishing
    polynomial, and the quotient [h] is what the prover commits to.
    As in libsnark, [num_inputs + 1] extra rows [(z_j)·0 = 0] are appended
    so the input columns of A stay linearly independent. *)

module Make (F : Zkvc_field.Field_intf.S) : sig
  module Cs : module type of Zkvc_r1cs.Constraint_system.Make (F)

  type t

  val create : Cs.t -> t

  val domain_size : t -> int
  val num_vars : t -> int
  val num_inputs : t -> int

  (** Number of quotient coefficients: [domain_size − 1]. *)
  val h_length : t -> int

  (** Sparsity of the QAP column families — the counts [Api.keygen]
      publishes as [qap.*] gauges and that [zkvc_cli profile]'s
      per-region nnz ledger reconciles with. [nnz_a/b/c] are nonzero
      entries per matrix over the {e padded} row set, i.e. the R1CS
      counts plus the [num_inputs + 1] input-consistency rows appended
      to A; [rows] is that padded row count and [domain] the
      power-of-two it is rounded up to. Fewer
      A-side nonzeros (the paper's "left wires", reduced by PSQ) mean
      sparser interpolated A-polynomials and a cheaper prover. *)
  type density =
    { rows : int;
      domain : int;
      nnz_a : int;
      nnz_b : int;
      nnz_c : int }

  val density : t -> density

  (** A-side nonzeros the reduction appends beyond the R1CS matrices: one
      per input-consistency row, i.e. [num_inputs + 1]. Lets provenance
      consumers reconcile builder-side nnz counts with {!density} without
      constructing a QAP. *)
  val input_consistency_nnz : num_inputs:int -> int

  (** Quotient polynomial coefficients for a satisfying assignment,
      computed with three inverse NTTs and three coset NTTs. *)
  val h_coeffs : t -> F.t array -> F.t array

  type evaluation =
    { a_at : F.t array; (** per wire: A_j(τ) *)
      b_at : F.t array;
      c_at : F.t array;
      z_at : F.t; (** vanishing polynomial at τ *)
      tau_powers : F.t array (** τ⁰ .. τ^(h_length−1) *) }

  (** Evaluate all wire polynomials at the setup's secret point, in
      O(rows + nnz). Raises [Invalid_argument] if τ lies in the domain. *)
  val evaluate_at : t -> F.t -> evaluation

  (** Test oracle: [(Σ z_j A_j)(Σ z_j B_j) − Σ z_j C_j = h·Z] at a point. *)
  val divisibility_holds : t -> F.t array -> F.t -> bool
end
