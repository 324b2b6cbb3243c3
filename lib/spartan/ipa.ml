module Fr = Zkvc_field.Fr
module G1 = Zkvc_curve.G1
module Msm = Zkvc_curve.Msm.Make (G1)
module T = Zkvc_transcript.Transcript
module Ch = T.Challenge (Fr)

type proof =
  { ls : G1.t array;
    rs : G1.t array;
    a_final : Fr.t }

let proof_size_bytes p = ((Array.length p.ls + Array.length p.rs) * 64) + 32

let q_generator = Pedersen.hash_to_point "ipa-q"

let rounds_metric = Zkvc_obs.Metrics.counter "ipa.rounds"

let inner a b =
  let acc = ref Fr.zero in
  Array.iteri (fun i v -> acc := Fr.add !acc (Fr.mul v b.(i))) a;
  !acc

let rec nonzero_challenge tr =
  let u = Ch.challenge tr ~label:"ipa-u" in
  if Fr.is_zero u then nonzero_challenge tr else u

let check_pow2 n = n > 0 && n land (n - 1) = 0

let prove key tr ~a ~b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Ipa.prove: length mismatch";
  if not (check_pow2 n) then invalid_arg "Ipa.prove: length must be a power of two";
  if n > Pedersen.key_size key then invalid_arg "Ipa.prove: vector longer than key";
  let a = Array.copy a and b = Array.copy b in
  let g = Array.init n (fun i -> (Pedersen.generators key).(i)) in
  let rounds = ref [] in
  let len = ref n in
  while !len > 1 do
    Zkvc_obs.Metrics.incr rounds_metric;
    let half = !len / 2 in
    let al = Array.sub a 0 half and ar = Array.sub a half half in
    let bl = Array.sub b 0 half and br = Array.sub b half half in
    let gl = Array.sub g 0 half and gr = Array.sub g half half in
    let lr =
      [| G1.add (Msm.msm gr al) (G1.mul_fr q_generator (inner al br));
         G1.add (Msm.msm gl ar) (G1.mul_fr q_generator (inner ar bl)) |]
    in
    (* one inversion makes both affine, for their encodings here and in
       the proof *)
    G1.normalize lr;
    let l = lr.(0) and r = lr.(1) in
    T.absorb_bytes tr ~label:"ipa-l" (G1.to_bytes l);
    T.absorb_bytes tr ~label:"ipa-r" (G1.to_bytes r);
    let u = nonzero_challenge tr in
    let uinv = Fr.inv u in
    for i = 0 to half - 1 do
      a.(i) <- Fr.add (Fr.mul al.(i) u) (Fr.mul ar.(i) uinv);
      b.(i) <- Fr.add (Fr.mul bl.(i) uinv) (Fr.mul br.(i) u);
      g.(i) <- G1.add (G1.mul_fr gl.(i) uinv) (G1.mul_fr gr.(i) u)
    done;
    rounds := (l, r) :: !rounds;
    len := half
  done;
  let rounds = List.rev !rounds in
  { ls = Array.of_list (List.map fst rounds);
    rs = Array.of_list (List.map snd rounds);
    a_final = a.(0) }

(* Deferred form of the verification equation. The original check
     P + Σ u_i²L_i + u_i⁻²R_i = a_final·G_final + (a_final·b_final)·Q
   is rearranged into a single linear group relation that holds iff
     P + Σ points + ⟨g_scalars, G⟩ + q_scalar·Q = 0,
   so a caller batching several openings can sum the scalar sides and
   check one MSM. [deferred] replays the transcript (absorbing every
   round's L/R before drawing its challenge, exactly as [verify] did)
   and performs only field work — no group operations. *)
type deferred =
  { g_scalars : Fr.t array; (* over the first n key generators *)
    q_scalar : Fr.t;
    points : (G1.t * Fr.t) list (* the proof's own L/R round points *) }

let deferred key tr ~b proof =
  let n = Array.length b in
  if not (check_pow2 n) then None
  else begin
    let k = Array.length proof.ls in
    if Array.length proof.rs <> k || 1 lsl k <> n || n > Pedersen.key_size key then None
    else begin
      (* replay the challenges *)
      let us =
        Array.init k (fun i ->
            T.absorb_bytes tr ~label:"ipa-l" (G1.to_bytes proof.ls.(i));
            T.absorb_bytes tr ~label:"ipa-r" (G1.to_bytes proof.rs.(i));
            nonzero_challenge tr)
      in
      let uinvs = Array.map Fr.inv us in
      (* s_j = Π u_i^{±1}: +1 when bit (k-1-i) of j is set (right half at
         round i). Both G and b fold as u⁻¹·left + u·right, so
         G_final = ⟨s, G⟩ and b_final = ⟨s, b⟩ (only a folds oppositely). *)
      let s = Array.make n Fr.one in
      for j = 0 to n - 1 do
        for i = 0 to k - 1 do
          let bit = (j lsr (k - 1 - i)) land 1 in
          s.(j) <- Fr.mul s.(j) (if bit = 1 then us.(i) else uinvs.(i))
        done
      done;
      let b_final =
        let acc = ref Fr.zero in
        Array.iteri (fun j v -> acc := Fr.add !acc (Fr.mul s.(j) v)) b;
        !acc
      in
      let neg_af = Fr.neg proof.a_final in
      Some
        { g_scalars = Array.map (fun sj -> Fr.mul neg_af sj) s;
          q_scalar = Fr.neg (Fr.mul proof.a_final b_final);
          points =
            List.concat
              (List.init k (fun i ->
                   [ (proof.ls.(i), Fr.sqr us.(i)); (proof.rs.(i), Fr.sqr uinvs.(i)) ])) }
    end
  end

let verify key tr ~b ~commitment proof =
  match deferred key tr ~b proof with
  | None -> false
  | Some d ->
    let tail = (commitment, Fr.one) :: (q_generator, d.q_scalar) :: d.points in
    let points =
      Array.append
        (Array.sub (Pedersen.generators key) 0 (Array.length d.g_scalars))
        (Array.of_list (List.map fst tail))
    in
    let scalars = Array.append d.g_scalars (Array.of_list (List.map snd tail)) in
    G1.equal (Msm.msm points scalars) G1.zero
