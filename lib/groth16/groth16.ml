module Fr = Zkvc_field.Fr
module Bigint = Zkvc_num.Bigint
module G1 = Zkvc_curve.G1
module G2 = Zkvc_curve.G2
module Fq12 = Zkvc_curve.Fq12
module Pairing = Zkvc_curve.Pairing
module Qap = Zkvc_qap.Qap.Make (Fr)
module Cs = Zkvc_r1cs.Constraint_system.Make (Fr)
module Msm_g1 = Zkvc_curve.Msm.Make (G1)
module Msm_g2 = Zkvc_curve.Msm.Make (G2)
module Fb_g1 = Zkvc_curve.Fixed_base.Make (G1)
module Fb_g2 = Zkvc_curve.Fixed_base.Make (G2)
module Span = Zkvc_obs.Span

type proving_key =
  { alpha_g1 : G1.t;
    beta_g1 : G1.t;
    beta_g2 : G2.t;
    delta_g1 : G1.t;
    delta_g2 : G2.t;
    a_query : G1.t array; (* per wire: A_j(tau)·G1 *)
    b_g1_query : G1.t array;
    b_g2_query : G2.t array;
    h_query : G1.t array; (* tau^i Z(tau)/delta · G1 *)
    l_query : G1.t array (* per aux wire: (beta A_j + alpha B_j + C_j)/delta · G1 *) }

type verifying_key =
  { vk_alpha_g1 : G1.t;
    vk_beta_g2 : G2.t;
    vk_gamma_g2 : G2.t;
    vk_delta_g2 : G2.t;
    vk_ic : G1.t array; (* per public wire incl. constant: (beta A_j + alpha B_j + C_j)/gamma · G1 *)
    (* prepared part, derived from the points above by [make_vk] and never
       serialised. Computed eagerly: a [Lazy.t] forced by two domains at
       once raises. *)
    vk_alpha_beta : Fq12.t; (* e(alpha, beta) *)
    vk_gamma_lines : Pairing.g2_prepared;
    vk_delta_lines : Pairing.g2_prepared }

(* The one constructor of verifying keys (setup and the key decoder). *)
let make_vk ~alpha_g1 ~beta_g2 ~gamma_g2 ~delta_g2 ~ic =
  { vk_alpha_g1 = alpha_g1;
    vk_beta_g2 = beta_g2;
    vk_gamma_g2 = gamma_g2;
    vk_delta_g2 = delta_g2;
    vk_ic = ic;
    vk_alpha_beta = Pairing.pairing alpha_g1 beta_g2;
    vk_gamma_lines = Pairing.prepare_g2 gamma_g2;
    vk_delta_lines = Pairing.prepare_g2 delta_g2 }

type proof = { a : G1.t; b : G2.t; c : G1.t }

let g1_bytes = 64 (* uncompressed affine: 2 × 32-byte Fq *)
let g2_bytes = 128

let proof_size_bytes (_ : proof) = (2 * g1_bytes) + g2_bytes

(* Wire format: tagged uncompressed points (see Weierstrass.to_bytes);
   3 tag bytes longer than the canonical 256-byte size reported above. *)
let proof_to_bytes p =
  Bytes.concat Bytes.empty [ G1.to_bytes p.a; G2.to_bytes p.b; G1.to_bytes p.c ]

let proof_of_bytes_exn bytes =
  let g1w = G1.size_in_bytes and g2w = G2.size_in_bytes in
  if Bytes.length bytes <> (2 * g1w) + g2w then
    invalid_arg "Groth16.proof_of_bytes_exn: length";
  let a = G1.of_bytes_exn (Bytes.sub bytes 0 g1w) in
  let b = G2.of_bytes_exn (Bytes.sub bytes g1w g2w) in
  let c = G1.of_bytes_exn (Bytes.sub bytes (g1w + g2w) g1w) in
  if not (G2.in_subgroup b) then
    invalid_arg "Groth16.proof_of_bytes_exn: B outside the r-order subgroup";
  { a; b; c }

(* Compressed wire format: 33 + 65 + 33 = 131 bytes. *)
let proof_to_bytes_compressed p =
  Bytes.concat Bytes.empty
    [ G1.to_bytes_compressed p.a; G2.to_bytes_compressed p.b; G1.to_bytes_compressed p.c ]

let proof_of_bytes_compressed_exn bytes =
  let g1w = G1.size_in_bytes_compressed and g2w = G2.size_in_bytes_compressed in
  if Bytes.length bytes <> (2 * g1w) + g2w then
    invalid_arg "Groth16.proof_of_bytes_compressed_exn: length";
  let a = G1.of_bytes_compressed_exn (Bytes.sub bytes 0 g1w) in
  let b = G2.of_bytes_compressed_exn (Bytes.sub bytes g1w g2w) in
  let c = G1.of_bytes_compressed_exn (Bytes.sub bytes (g1w + g2w) g1w) in
  { a; b; c }

(* ---- key wire encodings ----
   Length-prefixed point arrays over the tagged uncompressed point
   formats. Parsing validates every point's curve equation (via
   [of_bytes_exn]) and the r-order subgroup of every G2 point, matching
   the discipline of [proof_of_bytes_exn]. *)

let w_u32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

let w_g1 buf p = Buffer.add_bytes buf (G1.to_bytes p)
let w_g2 buf p = Buffer.add_bytes buf (G2.to_bytes p)

let w_g1_array buf a =
  w_u32 buf (Array.length a);
  Array.iter (w_g1 buf) a

let w_g2_array buf a =
  w_u32 buf (Array.length a);
  Array.iter (w_g2 buf) a

type cursor = { buf : Bytes.t; mutable pos : int }

let need what c n =
  if c.pos + n > Bytes.length c.buf then
    invalid_arg (Printf.sprintf "Groth16.%s: truncated input" what)

let r_u32 what c =
  need what c 4;
  let b i = Char.code (Bytes.get c.buf (c.pos + i)) in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  n

let r_g1 what c =
  need what c G1.size_in_bytes;
  let p = G1.of_bytes_exn (Bytes.sub c.buf c.pos G1.size_in_bytes) in
  c.pos <- c.pos + G1.size_in_bytes;
  p

let r_g2 what c =
  need what c G2.size_in_bytes;
  let p = G2.of_bytes_exn (Bytes.sub c.buf c.pos G2.size_in_bytes) in
  if not (G2.in_subgroup p) then
    invalid_arg (Printf.sprintf "Groth16.%s: G2 point outside the r-order subgroup" what);
  c.pos <- c.pos + G2.size_in_bytes;
  p

let r_array what c width read =
  let n = r_u32 what c in
  if n > (Bytes.length c.buf - c.pos) / width then
    invalid_arg (Printf.sprintf "Groth16.%s: oversized array count" what);
  Array.init n (fun _ -> read what c)

let finished what c =
  if c.pos <> Bytes.length c.buf then
    invalid_arg (Printf.sprintf "Groth16.%s: trailing bytes" what)

let proving_key_to_bytes pk =
  let buf = Buffer.create (1 lsl 16) in
  w_g1 buf pk.alpha_g1;
  w_g1 buf pk.beta_g1;
  w_g2 buf pk.beta_g2;
  w_g1 buf pk.delta_g1;
  w_g2 buf pk.delta_g2;
  w_g1_array buf pk.a_query;
  w_g1_array buf pk.b_g1_query;
  w_g2_array buf pk.b_g2_query;
  w_g1_array buf pk.h_query;
  w_g1_array buf pk.l_query;
  Buffer.to_bytes buf

let proving_key_of_bytes_exn bytes =
  let what = "proving_key_of_bytes_exn" in
  let c = { buf = bytes; pos = 0 } in
  let alpha_g1 = r_g1 what c in
  let beta_g1 = r_g1 what c in
  let beta_g2 = r_g2 what c in
  let delta_g1 = r_g1 what c in
  let delta_g2 = r_g2 what c in
  let a_query = r_array what c G1.size_in_bytes r_g1 in
  let b_g1_query = r_array what c G1.size_in_bytes r_g1 in
  let b_g2_query = r_array what c G2.size_in_bytes r_g2 in
  let h_query = r_array what c G1.size_in_bytes r_g1 in
  let l_query = r_array what c G1.size_in_bytes r_g1 in
  finished what c;
  { alpha_g1; beta_g1; beta_g2; delta_g1; delta_g2; a_query; b_g1_query;
    b_g2_query; h_query; l_query }

let verifying_key_to_bytes vk =
  let buf = Buffer.create 1024 in
  w_g1 buf vk.vk_alpha_g1;
  w_g2 buf vk.vk_beta_g2;
  w_g2 buf vk.vk_gamma_g2;
  w_g2 buf vk.vk_delta_g2;
  w_g1_array buf vk.vk_ic;
  Buffer.to_bytes buf

let verifying_key_of_bytes_exn bytes =
  let what = "verifying_key_of_bytes_exn" in
  let c = { buf = bytes; pos = 0 } in
  let alpha_g1 = r_g1 what c in
  let beta_g2 = r_g2 what c in
  let gamma_g2 = r_g2 what c in
  let delta_g2 = r_g2 what c in
  let ic = r_array what c G1.size_in_bytes r_g1 in
  finished what c;
  make_vk ~alpha_g1 ~beta_g2 ~gamma_g2 ~delta_g2 ~ic

let rec nonzero st = let x = Fr.random st in if Fr.is_zero x then nonzero st else x

let setup st qap =
  let _tau, ev =
    Span.with_span "setup.qap_eval" (fun () ->
        let rec sample_tau () =
          let tau = nonzero st in
          match Qap.evaluate_at qap tau with
          | ev -> (tau, ev)
          | exception Invalid_argument _ -> sample_tau ()
        in
        sample_tau ())
  in
  let alpha = nonzero st
  and beta = nonzero st
  and gamma = nonzero st
  and delta = nonzero st in
  let gamma_inv = Fr.inv gamma and delta_inv = Fr.inv delta in
  let t1, t2 =
    Span.with_span "setup.fixed_base_tables" (fun () ->
        (Fb_g1.create G1.generator, Fb_g2.create G2.generator))
  in
  let g1 = Fb_g1.mul t1 and g2 = Fb_g2.mul t2 in
  let nv = Qap.num_vars qap in
  let ni = Qap.num_inputs qap in
  let beta_a_alpha_b_c j =
    Fr.add (Fr.add (Fr.mul beta ev.Qap.a_at.(j)) (Fr.mul alpha ev.Qap.b_at.(j))) ev.Qap.c_at.(j)
  in
  let pk =
    Span.with_span "setup.pk_queries" (fun () ->
        { alpha_g1 = g1 alpha;
          beta_g1 = g1 beta;
          beta_g2 = g2 beta;
          delta_g1 = g1 delta;
          delta_g2 = g2 delta;
          a_query = Array.init nv (fun j -> g1 ev.Qap.a_at.(j));
          b_g1_query = Array.init nv (fun j -> g1 ev.Qap.b_at.(j));
          b_g2_query = Array.init nv (fun j -> g2 ev.Qap.b_at.(j));
          h_query =
            Array.map
              (fun tp -> g1 (Fr.mul (Fr.mul tp ev.Qap.z_at) delta_inv))
              ev.Qap.tau_powers;
          l_query =
            Array.init (nv - ni - 1) (fun k ->
                g1 (Fr.mul (beta_a_alpha_b_c (ni + 1 + k)) delta_inv)) })
  in
  let gamma_g2, ic =
    Span.with_span "setup.vk_ic" (fun () ->
        (g2 gamma, Array.init (ni + 1) (fun j -> g1 (Fr.mul (beta_a_alpha_b_c j) gamma_inv))))
  in
  let vk =
    Span.with_span "setup.vk_prepare" (fun () ->
        make_vk ~alpha_g1:pk.alpha_g1 ~beta_g2:pk.beta_g2 ~gamma_g2 ~delta_g2:pk.delta_g2 ~ic)
  in
  (* setup's temporaries (fixed-base tables, per-wire evaluations) are
     dead now. Whether OCaml 5.1's collector frees them before the
     caller's prove/verify phase depends on where its cycle stands, and a
     heap left large by them paces later cycles slower, so prover garbage
     piles up as well; one full collection here removes that dependence
     (DESIGN substitution 1, Memory). *)
  Gc.full_major ();
  (* affine MSM bases: every bucket addition of a base then takes the
     mixed formula. In place, and only once the collection above has
     freed the fixed-base tables, so the affine copies reuse their space
     instead of growing the heap; the second collection frees the
     Jacobian points they replace. Keys decoded from bytes are affine
     already. *)
  Span.with_span "setup.normalize" (fun () ->
      List.iter G1.normalize [ pk.a_query; pk.b_g1_query; pk.h_query; pk.l_query; vk.vk_ic ];
      G2.normalize pk.b_g2_query);
  Gc.full_major ();
  (pk, vk)

(* The per-phase spans below mirror the paper's prover cost model: one
   witness-quotient computation (coset NTTs) and five MSMs. *)
let prove st pk qap assignment =
  let nv = Qap.num_vars qap in
  if Array.length assignment <> nv then invalid_arg "Groth16.prove: assignment length";
  let ni = Qap.num_inputs qap in
  let r = Fr.random st and s = Fr.random st in
  let h = Span.with_span "prove.h_coeffs" (fun () -> Qap.h_coeffs qap assignment) in
  let msm_a =
    Span.with_span "prove.msm_a" (fun () -> Msm_g1.msm pk.a_query assignment)
  in
  let a = G1.add pk.alpha_g1 (G1.add msm_a (G1.mul_fr pk.delta_g1 r)) in
  let msm_b2 =
    Span.with_span "prove.msm_b_g2" (fun () -> Msm_g2.msm pk.b_g2_query assignment)
  in
  let b2 = G2.add pk.beta_g2 (G2.add msm_b2 (G2.mul_fr pk.delta_g2 s)) in
  let msm_b1 =
    Span.with_span "prove.msm_b_g1" (fun () -> Msm_g1.msm pk.b_g1_query assignment)
  in
  let b1 = G1.add pk.beta_g1 (G1.add msm_b1 (G1.mul_fr pk.delta_g1 s)) in
  let aux = Array.sub assignment (ni + 1) (nv - ni - 1) in
  let c =
    let l_part = Span.with_span "prove.msm_l" (fun () -> Msm_g1.msm pk.l_query aux) in
    let h_part = Span.with_span "prove.msm_h" (fun () -> Msm_g1.msm pk.h_query h) in
    G1.add
      (G1.add l_part h_part)
      (G1.add
         (G1.add (G1.mul_fr a s) (G1.mul_fr b1 r))
         (G1.neg (G1.mul_fr pk.delta_g1 (Fr.mul r s))))
  in
  (* Finish the collector's current cycle (~2 ms on the benchmark
     statement), so one proof's promoted MSM and NTT garbage is gone
     before the next proof adds its own. Under OCaml 5.1 the collector
     falls behind a prover that promotes as many words as before while
     allocating half the minor words (DESIGN substitution 1, Memory). *)
  Gc.major ();
  { a; b = b2; c }

(* Read-only components of the unprepared verification equation. *)
let vk_alpha vk = vk.vk_alpha_g1
let vk_beta vk = vk.vk_beta_g2
let vk_gamma vk = vk.vk_gamma_g2
let vk_delta vk = vk.vk_delta_g2

let ic_sum vk public_inputs =
  let n = Array.length vk.vk_ic - 1 in
  if List.length public_inputs <> n then invalid_arg "Groth16.ic_sum: public input arity";
  G1.add vk.vk_ic.(0) (Msm_g1.msm (Array.sub vk.vk_ic 1 n) (Array.of_list public_inputs))

(* Batch verification: with random weights z_i, the k pairing equations
   collapse into (k + 3) Miller loops sharing one final exponentiation:
     Π e(−z_i·A_i, B_i) · e((Σz_i)·α, β) · e(Σ z_i·IC_i, γ)
       · e(Σ z_i·C_i, δ) = 1.
   Weights are derived by Fiat–Shamir from the statements and proofs, so
   no trusted randomness is needed.

   The result distinguishes structurally malformed instances (wrong
   public-input arity for this key — reported by index, cheap to detect,
   and attributable to a specific submitter) from honest cryptographic
   rejection (some weighted combination failed; the batch says nothing
   about which member without a per-item retry). An empty batch has no
   sound verdict — "all zero members verified" is exactly the vacuous
   acceptance this API used to ship — so it is a caller error. *)
type batch_result =
  | Batch_accepted
  | Batch_rejected
  | Batch_malformed of int list

let malformed_indices ~arity_of instances =
  let _, bad =
    List.fold_left
      (fun (i, acc) inst -> (i + 1, if arity_of inst then acc else i :: acc))
      (0, []) instances
  in
  List.rev bad

let verify_batch vk instances =
  if instances = [] then invalid_arg "Groth16.verify_batch: empty batch";
  let expected = Array.length vk.vk_ic - 1 in
  match
    malformed_indices ~arity_of:(fun (io, _) -> List.length io = expected) instances
  with
  | _ :: _ as bad -> Batch_malformed bad
  | [] ->
    let module T = Zkvc_transcript.Transcript in
    let module Ch = T.Challenge (Fr) in
    let tr = T.create ~label:"zkvc.groth16.batch" in
    List.iter
      (fun (io, proof) ->
        Ch.absorb_list tr ~label:"io" io;
        T.absorb_bytes tr ~label:"proof" (proof_to_bytes proof))
      instances;
    let weighted = List.map (fun inst -> (Ch.challenge tr ~label:"z", inst)) instances in
    let sum_g1 f =
      List.fold_left (fun acc (z, inst) -> G1.add acc (G1.mul_fr (f inst) z)) G1.zero weighted
    in
    let alpha_scale = List.fold_left (fun acc (z, _) -> Fr.add acc z) Fr.zero weighted in
    let prepared (p, q) = (p, Pairing.prepare_g2 q) in
    let pairs =
      List.map (fun (z, (_, proof)) -> prepared (G1.neg (G1.mul_fr proof.a z), proof.b)) weighted
      @ [ prepared (G1.mul_fr vk.vk_alpha_g1 alpha_scale, vk.vk_beta_g2);
          (sum_g1 (fun (io, _) -> ic_sum vk io), vk.vk_gamma_lines);
          (sum_g1 (fun (_, proof) -> proof.c), vk.vk_delta_lines) ]
    in
    if Fq12.is_one (Pairing.final_exponentiation (Pairing.multi_miller_loop pairs)) then
      Batch_accepted
    else Batch_rejected

let verify vk ~public_inputs proof =
  if List.length public_inputs <> Array.length vk.vk_ic - 1 then false
  else begin
    (* e(A,B) = e(alpha,beta) · e(ic,gamma) · e(C,delta)  ⇔
       e(-A,B) · e(ic,gamma) · e(C,delta) · e(alpha,beta) = 1, with
       e(alpha,beta) and the gamma/delta lines taken from the key: three
       Miller loops (two with cached lines) and one final exponentiation *)
    let ic = Span.with_span "verify.ic_sum" (fun () -> ic_sum vk public_inputs) in
    Span.with_span "verify.pairing" (fun () ->
        let m =
          Pairing.multi_miller_loop
            [ (G1.neg proof.a, Pairing.prepare_g2 proof.b);
              (ic, vk.vk_gamma_lines);
              (proof.c, vk.vk_delta_lines) ]
        in
        Fq12.is_one (Fq12.mul (Pairing.final_exponentiation m) vk.vk_alpha_beta))
  end

(* Fault-injection sites for the adversary harness (lib/adversary): each
   site is one way to corrupt exactly one component of a proof. The
   perturbations are group-structured (add the generator / negate /
   replace with the identity) so the mutated points stay on the curve and
   in the right subgroup — the forgery must be caught by the pairing
   check itself, not by point validation. *)
module Mutate = struct
  type site =
    | A_bump
    | A_neg
    | A_identity
    | B_bump
    | B_neg
    | B_identity
    | C_bump
    | C_neg
    | C_identity
    | Swap_a_c

  let all =
    [ A_bump; A_neg; A_identity;
      B_bump; B_neg; B_identity;
      C_bump; C_neg; C_identity;
      Swap_a_c ]

  let site_name = function
    | A_bump -> "a+g"
    | A_neg -> "a.neg"
    | A_identity -> "a=0"
    | B_bump -> "b+g"
    | B_neg -> "b.neg"
    | B_identity -> "b=0"
    | C_bump -> "c+g"
    | C_neg -> "c.neg"
    | C_identity -> "c=0"
    | Swap_a_c -> "swap(a,c)"

  let apply site p =
    match site with
    | A_bump -> { p with a = G1.add p.a G1.generator }
    | A_neg -> { p with a = G1.neg p.a }
    | A_identity -> { p with a = G1.zero }
    | B_bump -> { p with b = G2.add p.b G2.generator }
    | B_neg -> { p with b = G2.neg p.b }
    | B_identity -> { p with b = G2.zero }
    | C_bump -> { p with c = G1.add p.c G1.generator }
    | C_neg -> { p with c = G1.neg p.c }
    | C_identity -> { p with c = G1.zero }
    | Swap_a_c -> { p with a = p.c; c = p.a }
end
