module Fr = Zkvc_field.Fr
module G1 = Zkvc_curve.G1
module G2 = Zkvc_curve.G2
module Fq12 = Zkvc_curve.Fq12
module Pairing = Zkvc_curve.Pairing
module Msm = Zkvc_curve.Msm.Make (G1)
module Msm_g2 = Zkvc_curve.Msm.Make (G2)
module Fb = Zkvc_curve.Fixed_base.Make (G1)
module Fb_g2 = Zkvc_curve.Fixed_base.Make (G2)
module P = Zkvc_poly.Dense_poly.Make (Fr)
module T = Zkvc_transcript.Transcript
module Ch = T.Challenge (Fr)

type srs =
  { powers_g1 : G1.t array; (* τ^i · G1, i = 0..degree *)
    tau_g2 : G2.t (* τ · G2 *) }

let setup st ~degree =
  if degree < 0 then invalid_arg "Kzg.setup: negative degree";
  let tau = Fr.random st in
  let table = Fb.create G1.generator in
  let powers_g1 =
    let acc = ref Fr.one in
    Array.init (degree + 1) (fun i ->
        if i > 0 then acc := Fr.mul !acc tau;
        Fb.mul table !acc)
  in
  (* affine powers: every commitment MSM then takes the mixed addition *)
  G1.normalize powers_g1;
  { powers_g1; tau_g2 = G2.mul_fr G2.generator tau }

let max_degree srs = Array.length srs.powers_g1 - 1

type commitment = G1.t

let commit srs p =
  let coeffs = P.coeffs p in
  if Array.length coeffs > Array.length srs.powers_g1 then
    invalid_arg "Kzg.commit: polynomial exceeds SRS degree";
  if Array.length coeffs = 0 then G1.zero
  else Msm.msm (Array.sub srs.powers_g1 0 (Array.length coeffs)) coeffs

type opening =
  { point : Fr.t;
    value : Fr.t;
    witness : G1.t }

(* q(x) = (p(x) - p(z)) / (x - z): exact division by construction. *)
let open_at srs p point =
  let value = P.eval p point in
  let shifted = P.sub p (P.constant value) in
  let divisor = P.of_list [ Fr.neg point; Fr.one ] in
  let q, rem = P.divmod shifted divisor in
  assert (P.is_zero rem);
  { point; value; witness = commit srs q }

(* e(C − value·G, G2) = e(W, τ·G2 − point·G2)
   ⇔ e(C − value·G, G2) · e(−W, τ·G2 − point·G2) = 1 *)
let verify srs c opening =
  let lhs_g1 = G1.add c (G1.neg (G1.mul_fr G1.generator opening.value)) in
  let rhs_g2 = G2.add srs.tau_g2 (G2.neg (G2.mul_fr G2.generator opening.point)) in
  Fq12.is_one
    (Pairing.multi_pairing
       [ (lhs_g1, G2.generator); (G1.neg opening.witness, rhs_g2) ])

(* ---- G2-side mirror ----
   Same scheme with the roles of the groups swapped: the SRS carries
   powers of the trapdoor in G2 and a single trapdoor point in G1, so a
   polynomial commits to a G2 element and the opening is checked as
     e(G1, C − value·G2) = e(τ·G1 − point·G1, W).
   SnarkPack-style aggregation needs both sides: its structured
   commitment keys live in G2 (for the A/C vectors) and in G1 (for the
   B vector), and the final GIPA key check is a KZG opening in each
   group. *)

type srs_g2 =
  { powers_g2 : G2.t array; (* τ^i · G2, i = 0..degree *)
    tau_g1 : G1.t (* τ · G1 *) }

let setup_g2 st ~degree =
  if degree < 0 then invalid_arg "Kzg.setup_g2: negative degree";
  let tau = Fr.random st in
  let table = Fb_g2.create G2.generator in
  let powers_g2 =
    let acc = ref Fr.one in
    Array.init (degree + 1) (fun i ->
        if i > 0 then acc := Fr.mul !acc tau;
        Fb_g2.mul table !acc)
  in
  G2.normalize powers_g2;
  { powers_g2; tau_g1 = G1.mul_fr G1.generator tau }

let max_degree_g2 srs = Array.length srs.powers_g2 - 1

type commitment_g2 = G2.t

let commit_g2 srs p =
  let coeffs = P.coeffs p in
  if Array.length coeffs > Array.length srs.powers_g2 then
    invalid_arg "Kzg.commit_g2: polynomial exceeds SRS degree";
  if Array.length coeffs = 0 then G2.zero
  else Msm_g2.msm (Array.sub srs.powers_g2 0 (Array.length coeffs)) coeffs

type opening_g2 =
  { point_g2 : Fr.t;
    value_g2 : Fr.t;
    witness_g2 : G2.t }

let open_at_g2 srs p point =
  let value = P.eval p point in
  let shifted = P.sub p (P.constant value) in
  let divisor = P.of_list [ Fr.neg point; Fr.one ] in
  let q, rem = P.divmod shifted divisor in
  assert (P.is_zero rem);
  { point_g2 = point; value_g2 = value; witness_g2 = commit_g2 srs q }

(* e(G1, C − value·G2) = e(τ·G1 − point·G1, W)
   ⇔ e(G1, C − value·G2) · e(point·G1 − τ·G1, W) = 1 *)
let verify_g2 srs c opening =
  let rhs_g2 = G2.add c (G2.neg (G2.mul_fr G2.generator opening.value_g2)) in
  let lhs_g1 =
    G1.add (G1.mul_fr G1.generator opening.point_g2) (G1.neg srs.tau_g1)
  in
  Fq12.is_one
    (Pairing.multi_pairing
       [ (G1.generator, rhs_g2); (lhs_g1, opening.witness_g2) ])

let powers srs = srs.powers_g1
let powers_g2 srs = srs.powers_g2

let commit_matrix srs m =
  let coeffs = Array.concat (Array.to_list m) in
  commit srs (P.of_coeffs coeffs)

let derive_challenge c ~x ~y =
  let tr = T.create ~label:"zkvc.crpc.kzg-challenge" in
  T.absorb_bytes tr ~label:"w-comm" (G1.to_bytes c);
  let absorb_matrix label m =
    T.absorb_int tr ~label:(label ^ ".rows") (Array.length m);
    Array.iter (fun row -> Ch.absorb_array tr ~label row) m
  in
  absorb_matrix "x" x;
  absorb_matrix "y" y;
  Ch.challenge tr ~label:"z"
