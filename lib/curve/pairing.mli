(** Optimal-ate pairing e : G1 × G2 → GT ⊂ Fq12* on BN254.

    The Miller loop runs over the NAF of [6x + 2] (66 digits) with the G2
    point in homogeneous projective coordinates on the twist, so it does
    no inversions, and finishes with the two Frobenius-twisted additions
    [+π(Q)] and [−π²(Q)] (Vercauteren, "Optimal pairings"). Lines are
    sparse Fq12 elements multiplied in by {!Fq12.mul_by_line}; vertical
    lines and Fq2 scalings of lines are dropped, since the final
    exponentiation maps every element of Fq6 to 1.

    The final exponentiation raises to exactly [(q¹²−1)/r]: an easy part
    [(q⁶−1)(q²+1)] (conjugate, one inverse, one Frobenius) and a hard part
    [(q⁴−q²+1)/r] as an addition chain in [x] over cyclotomic squarings.

    The result is a fixed power of the reduced Tate pairing (see DESIGN.md,
    substitution 1), so every pairing-product equation has the same truth
    value under both. The slow Tate reference lives in the tests.

    The G2 side of a pairing can be prepared once ({!prepare_g2}) and
    reused: a verifier with fixed G2 key points skips their point
    arithmetic on every check. *)

(** Line coefficients of the Miller loop for one G2 point. Immutable; safe
    to share between domains. *)
type g2_prepared

val prepare_g2 : G2.t -> g2_prepared

(** [Π_i f_{Q_i}(P_i)] for the optimal-ate Miller function, with one
    shared squaring per loop step. Pairs with [P = O] or [Q = O]
    contribute 1. *)
val multi_miller_loop : (G1.t * g2_prepared) list -> Fq12.t

(** [f ↦ f^((q¹²−1)/r)]. A zero input (possible only for G2 inputs
    outside the r-order subgroup) maps to zero, which is not in GT. *)
val final_exponentiation : Fq12.t -> Fq12.t

(** [pairing p q = final_exponentiation (multi_miller_loop [(p, prepare_g2 q)])]. *)
val pairing : G1.t -> G2.t -> Fq12.t

(** Product of pairings sharing one Miller-loop accumulator and one final
    exponentiation — the Groth16 verification pattern. *)
val multi_pairing : (G1.t * G2.t) list -> Fq12.t

(** Identity of GT. *)
val gt_one : Fq12.t
