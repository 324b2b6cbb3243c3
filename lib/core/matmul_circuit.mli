(** The four matmul-to-R1CS encodings of the zkVC paper's ablation
    (Table II): vanilla circuits, PSQ, CRPC, and CRPC+PSQ.

    - {b Vanilla}: one constraint per scalar product plus one wide
      addition per output — [a·b·(n+1)] constraints.
    - {b PSQ} (Prefix-Sum Query): accumulation carried on the C-side
      linear combination, [L_k·R_k = s_k − s_{k−1}], removing product
      wires and the wide additions.
    - {b CRPC} (Constraint-Reduced Polynomial Circuit): the whole product
      as a polynomial identity in a random challenge [Z],

        [Σ_{i,j} Z^{ib+j} y_ij = Σ_k (Σ_i Z^{ib} x_ik)(Σ_j Z^j w_kj)],

      which is an exact polynomial identity iff [Y = X·W]; instantiating
      [Z] at a post-commitment Fiat–Shamir challenge gives soundness error
      [(a·b − 1)/|F|] by Schwartz–Zippel. Only [n] multiplication
      constraints remain.
    - {b CRPC+PSQ}: CRPC terms accumulated through prefix sums. *)

type strategy = Vanilla | Vanilla_psq | Crpc | Crpc_psq

val all_strategies : strategy list
val strategy_name : strategy -> string
val uses_challenge : strategy -> bool

(** Closed-form constraint counts; validated against compiled circuits by
    the test suite. *)
val expected_constraints : strategy -> Matmul_spec.dims -> int

module Make (F : Zkvc_field.Field_intf.S) : sig
  module B : module type of Zkvc_r1cs.Builder.Make (F)

  type wires =
    { x : int array array;
      w : int array array;
      y : int array array }

  (** Fiat–Shamir challenge for CRPC, bound to the full contents of X, W
      and Y (commit-then-prove flow). *)
  val derive_challenge :
    x:F.t array array -> w:F.t array array -> y:F.t array array -> F.t

  (** Add the constraints of the chosen strategy binding pre-allocated
      wire matrices [y = x·w] — the composition entry point for chaining
      layers. [challenge] is required by the CRPC variants
      ([Invalid_argument] otherwise). *)
  val constrain :
    B.t ->
    strategy ->
    ?challenge:F.t ->
    x:int array array ->
    w:int array array ->
    y:int array array ->
    Matmul_spec.dims ->
    unit

  (** Allocate wires for X, W and Y = X·W and add the constraints of the
      chosen strategy. [x]/[w] default to private witness, [y] to public
      outputs. The caller supplies [y] = X·W, which CRPC callers already
      hold to derive the challenge; a wrong [y] makes the system
      unsatisfiable. Raises [Invalid_argument] on mismatched dimensions. *)
  val build :
    B.t ->
    strategy ->
    ?challenge:F.t ->
    ?x_public:bool ->
    ?w_public:bool ->
    ?y_public:bool ->
    x:F.t array array ->
    w:F.t array array ->
    y:F.t array array ->
    Matmul_spec.dims ->
    wires
end
