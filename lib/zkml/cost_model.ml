(** Prover-cost calibration and the paper's reported numbers.

    Calibration runs real proofs on synthetic squaring-chain circuits at
    two sizes and fits  [t(n) = α·n + β·n·log₂ n]  per backend, which the
    end-to-end tables use to extrapolate full-model proving time from the
    exact constraint counts produced by {!Compiler}. The fit is validated
    against held-out real proofs by the test suite.

    Prior systems that cannot be run here (vCNN, ZEN, zkML/halo2, zkCNN,
    pvCNN) are emulated from their paper-reported ratios against the
    measured vanilla baselines — rows carrying these values are labelled
    "(emulated)" in the bench output (DESIGN.md substitution 4). *)

module Fr = Zkvc_field.Fr
module L = Zkvc_r1cs.Lc.Make (Fr)
module Bld = Zkvc_r1cs.Builder.Make (Fr)
module G = Zkvc_r1cs.Gadgets.Make (Fr)

type backend = Zkvc.Api.backend = Backend_groth16 | Backend_spartan

(* squaring chain: n constraints, n+2 wires *)
let synthetic_circuit n =
  let b = Bld.create () in
  let x = Bld.alloc b (Fr.of_int 3) in
  let acc = ref (L.of_var x) in
  for _ = 1 to n do
    acc := L.of_var (G.mul b !acc !acc)
  done;
  Bld.finalize b

(* [Span.now] follows the installed span clock, so these measurements are
   wall time whenever the binary installed one (CPU time misreports
   multi-domain proving; see Zkvc_obs.Span.set_clock). *)
let time f =
  let t0 = Zkvc_obs.Span.now () in
  let r = f () in
  (r, Zkvc_obs.Span.now () -. t0)

let measure_prove backend n =
  let rng = Random.State.make [| n; 17 |] in
  let cs, assignment = synthetic_circuit n in
  let keys = Zkvc.Api.keygen ~rng backend cs in
  snd (time (fun () -> Zkvc.Api.prove_with ~rng keys assignment))

type calibration = { alpha : float; beta : float (* t(n) = α·n + β·n·log2 n *) }

(* Two-point fit, clamped to non-negative coefficients: measurement noise
   at small sizes can otherwise produce a negative α that dominates (and
   flips the sign of) extrapolations to 10⁸-constraint models. *)
let fit (n1, t1) (n2, t2) =
  let n1f = float_of_int n1 and n2f = float_of_int n2 in
  let l1 = log n1f /. log 2. and l2 = log n2f /. log 2. in
  let det = (n1f *. n2f *. l2) -. (n2f *. n1f *. l1) in
  let candidate =
    if abs_float det < 1e-12 then { alpha = t1 /. n1f; beta = 0. }
    else begin
      let beta = ((t2 *. n1f) -. (t1 *. n2f)) /. det in
      let alpha = (t1 -. (beta *. n1f *. l1)) /. n1f in
      { alpha; beta }
    end
  in
  if candidate.alpha >= 0. && candidate.beta >= 0. then candidate
  else if candidate.beta < 0. then { alpha = t2 /. n2f; beta = 0. }
  else { alpha = 0.; beta = t2 /. (n2f *. l2) }

(** Calibrate a backend with real proofs at the two given circuit sizes. *)
let calibrate ?(n1 = 1 lsl 10) ?(n2 = 1 lsl 12) backend =
  let t1 = measure_prove backend n1 in
  let t2 = measure_prove backend n2 in
  fit (n1, t1) (n2, t2)

let estimate calib n =
  let nf = float_of_int (Stdlib.max 2 n) in
  (calib.alpha *. nf) +. (calib.beta *. nf *. (log nf /. log 2.))

(* ------------------------------------------------------------------ *)
(* Paper-reported data                                                   *)

(** Table II of the paper (matmul micro-benchmark ablation, seconds). *)
let paper_table2 =
  [ (* crpc, psq, groth16 prove, groth16 verify, spartan prove, spartan verify *)
    (false, false, 9.12, 0.002, 9.04, 0.36);
    (false, true, 8.69, 0.002, 8.95, 0.32);
    (true, false, 1.01, 0.002, 1.79, 0.08);
    (true, true, 0.73, 0.002, 1.75, 0.05) ]

(** Figure 3 / Figure 6 comparison schemes with paper-reported proving
    times at the [49,64]×[64,128] point, plus qualitative properties
    (Table I). *)
type scheme =
  { scheme_name : string;
    interactive : bool;
    constant_proof : bool;
    trusted_setup : bool;
    emulated : bool; (* true when we reproduce it from reported ratios *)
    paper_prove_s : float; (* at [49,64]x[64,128] *)
    paper_verify_s : float;
    paper_proof_kb : float }

let schemes =
  [ { scheme_name = "vCNN"; interactive = false; constant_proof = true; trusted_setup = true;
      emulated = true; paper_prove_s = 9.0; paper_verify_s = 0.002; paper_proof_kb = 0.127 };
    { scheme_name = "ZEN"; interactive = false; constant_proof = true; trusted_setup = true;
      emulated = true; paper_prove_s = 7.1; paper_verify_s = 0.002; paper_proof_kb = 0.127 };
    { scheme_name = "zkML(halo2)"; interactive = false; constant_proof = false; trusted_setup = true;
      emulated = true; paper_prove_s = 4.1; paper_verify_s = 0.01; paper_proof_kb = 3.2 };
    { scheme_name = "zkCNN"; interactive = true; constant_proof = false; trusted_setup = false;
      emulated = true; paper_prove_s = 0.38; paper_verify_s = 0.4; paper_proof_kb = 113.0 };
    { scheme_name = "groth16"; interactive = false; constant_proof = true; trusted_setup = true;
      emulated = false; paper_prove_s = 9.12; paper_verify_s = 0.002; paper_proof_kb = 0.127 };
    { scheme_name = "Spartan"; interactive = false; constant_proof = false; trusted_setup = false;
      emulated = false; paper_prove_s = 9.04; paper_verify_s = 0.36; paper_proof_kb = 48.0 };
    { scheme_name = "zkVC-G"; interactive = false; constant_proof = true; trusted_setup = true;
      emulated = false; paper_prove_s = 0.73; paper_verify_s = 0.002; paper_proof_kb = 0.127 };
    { scheme_name = "zkVC-S"; interactive = false; constant_proof = false; trusted_setup = false;
      emulated = false; paper_prove_s = 1.75; paper_verify_s = 0.05; paper_proof_kb = 32.0 } ]

(** Table III rows: (dataset, variant, paper top-1 %, paper P_G s, paper P_S s). *)
let paper_table3 =
  [ ("Cifar-10", "SoftApprox.", 93.5, 725.2, 1006.2);
    ("Cifar-10", "SoftFree-S", 88.3, 568.4, 742.8);
    ("Cifar-10", "SoftFree-P", 75.1, 262.7, 300.6);
    ("Cifar-10", "zkVC", 91.6, 458.6, 591.0);
    ("TinyImageNet", "SoftApprox.", 60.5, 1609.6, 2197.4);
    ("TinyImageNet", "SoftFree-S", 51.4, 1004.9, 1348.8);
    ("TinyImageNet", "SoftFree-P", 42.7, 443.7, 503.6);
    ("TinyImageNet", "zkVC", 55.8, 879.3, 1161.4);
    ("ImageNet", "SoftApprox.", 81.0, 10700.0, 12857.7);
    ("ImageNet", "SoftFree-S", 78.5, 4521.3, 5812.7);
    ("ImageNet", "SoftFree-P", 77.2, 2904.0, 3667.8);
    ("ImageNet", "zkVC", 80.3, 3457.1, 4417.1) ]

(** Table IV rows: (variant, MNLI, QNLI, SST-2, MRPC, P_G, P_S). *)
let paper_table4 =
  [ ("SoftApprox.", 74.5, 83.9, 85.8, 71.2, 1299.5, 1793.3);
    ("SoftFree-S", 72.7, 81.1, 85.2, 70.4, 917.1, 1201.4);
    ("SoftFree-L", 67.3, 75.3, 84.5, 68.7, 680.8, 782.0);
    ("zkVC", 70.8, 80.2, 84.7, 69.3, 798.9, 992.2) ]

(** Paper accuracy for (dataset, variant) — carried as recorded constants
    because no training data exists in this environment (DESIGN.md
    substitution 3). *)
let paper_accuracy ~dataset ~variant =
  List.find_map
    (fun (ds, v, acc, _, _) -> if ds = dataset && v = variant then Some acc else None)
    paper_table3
