(* Kernel probes: each times one call of a layer's public function on
   seeded inputs, at a size taken from the workload, with tracing off. *)

module Fr = Zkvc_field.Fr
module G1 = Zkvc_curve.G1
module G2 = Zkvc_curve.G2
module Msm_g1 = Zkvc_curve.Msm.Make (G1)
module Domain = Zkvc_poly.Domain.Make (Fr)

(* set to 1 by smoke runs *)
let max_reps = ref max_int

let repeat k f = List.init (min k !max_reps) (fun _ -> snd (Host.time f))

(* nanoseconds per [Fr.mul], over chains of 100k dependent products *)
let field_mul_ns rng =
  let b = Fr.random rng in
  let batch = 100_000 in
  let samples =
    repeat 5 (fun () ->
        let x = ref (Fr.random rng) in
        for _ = 1 to batch do
          x := Fr.mul !x b
        done;
        ignore (Sys.opaque_identity !x))
  in
  List.map (fun s -> s *. 1e9 /. float batch) samples

let pairing_s rng =
  let p = G1.mul_fr G1.generator (Fr.random rng) in
  let q = G2.mul_fr G2.generator (Fr.random rng) in
  repeat 2 (fun () -> ignore (Sys.opaque_identity (Zkvc_curve.Pairing.pairing p q)))

(* one G1 MSM over [n] points; the points are consecutive multiples of a
   random point (one addition each), the scalars uniform *)
let msm_g1_s rng n =
  let n = max 1 n in
  let base = G1.random rng in
  let points = Array.make n base in
  for i = 1 to n - 1 do
    points.(i) <- G1.add points.(i - 1) base
  done;
  let scalars = Array.init n (fun _ -> Fr.random rng) in
  repeat 2 (fun () -> ignore (Sys.opaque_identity (Msm_g1.msm points scalars)))

(* one forward NTT over a domain of [size] (a power of two) *)
let ntt_s rng size =
  let d = Domain.create size in
  let coeffs = Array.init size (fun _ -> Fr.random rng) in
  repeat 5 (fun () -> Domain.ntt d (Array.copy coeffs))

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* Run every probe and record its metric; [witness] sizes the MSM,
   [ntt_size] the NTT. *)
let run ~seed ~witness ~ntt_size =
  let rng = Random.State.make [| seed; 0x9b0e |] in
  Report.set_median "field.mul_ns" (field_mul_ns rng);
  Report.set_median "curve.pairing_s" (pairing_s rng);
  Report.set_median "curve.msm_g1_s" (msm_g1_s rng witness);
  Report.set_median "poly.ntt_s" (ntt_s rng (pow2_at_least ntt_size 2))
