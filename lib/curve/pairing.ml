module Fq = Zkvc_field.Fq
module Bigint = Zkvc_num.Bigint

let gt_one = Fq12.one

(* Non-adjacent form of a positive integer, most significant digit first
   (digits in {−1, 0, 1}; the first is always 1). *)
let naf n =
  let four = Bigint.of_int 4 in
  let rec go n acc =
    if Bigint.is_zero n then Array.of_list acc
    else if Bigint.is_even n then go (Bigint.shift_right n 1) (0 :: acc)
    else begin
      let d = if Bigint.equal (Bigint.erem n four) Bigint.one then 1 else -1 in
      go (Bigint.shift_right (Bigint.sub n (Bigint.of_int d)) 1) (d :: acc)
    end
  in
  go n []

(* Miller loop length of the optimal ate pairing on BN curves: 6x + 2. *)
let ate_naf = naf (Bigint.add (Bigint.mul (Bigint.of_int 6) Bn_params.x) Bigint.two)

let x_naf = naf Bn_params.x

(* ---- G2 preparation ----
   T walks through multiples of Q on the twist E'(Fq2) in homogeneous
   projective coordinates (x' = X/Z, y' = Y/Z), so no step inverts. Each
   step emits the line through T (and Q) as three Fq2 coefficients that
   do not depend on the G1 argument: evaluated at P = (x_P, y_P) the line
   is ly·y_P + lx·x_P·w + l0·w³ (the untwisted x and y coordinates live at
   w² and w³). Formulas: Costello–Lange–Naehrig for y² = x³ + b', as in
   Aranha et al., "Faster explicit formulas for computing pairings over
   ordinary curves" (EUROCRYPT 2011); lines are scaled by factors in Fq2,
   which the final exponentiation removes. *)

type line = { ly : Fq2.t; lx : Fq2.t; l0 : Fq2.t }

type g2_prepared = line array (* empty for Q = O *)

type proj = { x : Fq2.t; y : Fq2.t; z : Fq2.t }

let three_b = Fq2.mul_by_fq (Fq.of_int 3) G2.b_twist

(* Doubling, scaled by 4 to avoid halvings: with B = Y², E = 3b'Z²,
   F = 3E, H = 2YZ: X3 = 2XY(B − F), Y3 = (B + F)² − 12E², Z3 = 4BH;
   line −H·y_P + 3X²·x_P·w + (E − B)·w³. *)
let doubling_step t =
  let b = Fq2.sqr t.y and c = Fq2.sqr t.z in
  let e = Fq2.mul three_b c in
  let f = Fq2.add (Fq2.double e) e in
  let h = Fq2.sub (Fq2.sqr (Fq2.add t.y t.z)) (Fq2.add b c) in
  let xx = Fq2.sqr t.x in
  let e2 = Fq2.sqr e in
  let t' =
    { x = Fq2.double (Fq2.mul (Fq2.mul t.x t.y) (Fq2.sub b f));
      y = Fq2.sub (Fq2.sqr (Fq2.add b f)) (Fq2.double (Fq2.double (Fq2.add (Fq2.double e2) e2)));
      z = Fq2.double (Fq2.double (Fq2.mul b h)) }
  in
  (t', { ly = Fq2.neg h; lx = Fq2.add (Fq2.double xx) xx; l0 = Fq2.sub e b })

(* Mixed addition T + (qx, qy): θ = Y − qy·Z, λ = X − qx·Z,
   H = λ³ + Zθ² − 2Xλ²: X3 = λH, Y3 = θ(Xλ² − H) − Yλ³, Z3 = Zλ³;
   line λ·y_P − θ·x_P·w + (θ·qx − λ·qy)·w³. *)
let addition_step t (qx, qy) =
  let theta = Fq2.sub t.y (Fq2.mul qy t.z) in
  let lambda = Fq2.sub t.x (Fq2.mul qx t.z) in
  let d = Fq2.sqr lambda in
  let e = Fq2.mul lambda d in
  let g = Fq2.mul t.x d in
  let h = Fq2.sub (Fq2.add e (Fq2.mul t.z (Fq2.sqr theta))) (Fq2.double g) in
  let t' =
    { x = Fq2.mul lambda h;
      y = Fq2.sub (Fq2.mul theta (Fq2.sub g h)) (Fq2.mul t.y e);
      z = Fq2.mul t.z e }
  in
  (t', { ly = lambda; lx = Fq2.neg theta; l0 = Fq2.sub (Fq2.mul theta qx) (Fq2.mul lambda qy) })

(* ψ⁻¹∘π^k∘ψ on the twist: the q^k-power Frobenius of the untwisted point
   (x'w², y'w³), read back in twist coordinates. *)
let twist_frobenius ~power (qx, qy) =
  let f c = if power land 1 = 1 then Fq2.conj c else c in
  ( Fq2.mul (f qx) (Fq6.frobenius_coeff ~power 2),
    Fq2.mul (f qy) (Fq6.frobenius_coeff ~power 3) )

let prepare_g2 q =
  match G2.to_affine q with
  | None -> [||]
  | Some ((qx, qy) as qa) ->
    let lines = ref [] in
    let t = ref { x = qx; y = qy; z = Fq2.one } in
    let step (t', l) = t := t'; lines := l :: !lines in
    let neg_qa = (qx, Fq2.neg qy) in
    for i = 1 to Array.length ate_naf - 1 do
      step (doubling_step !t);
      match ate_naf.(i) with
      | 1 -> step (addition_step !t qa)
      | -1 -> step (addition_step !t neg_qa)
      | _ -> ()
    done;
    (* the two Frobenius-twisted additions: + π(Q), then − π²(Q) *)
    step (addition_step !t (twist_frobenius ~power:1 qa));
    let q2x, q2y = twist_frobenius ~power:2 qa in
    step (addition_step !t (q2x, Fq2.neg q2y));
    Array.of_list (List.rev !lines)

(* One Miller loop over all pairs: f is squared once per step and every
   pair's line is multiplied into the same accumulator. The line schedule
   depends only on the loop NAF, so the prepared arrays stay aligned. *)
let multi_miller_loop pairs =
  let live =
    List.filter_map
      (fun (p, (lines : g2_prepared)) ->
        if Array.length lines = 0 then None
        else Option.map (fun (xp, yp) -> (xp, yp, lines)) (G1.to_affine p))
      pairs
  in
  let f = ref Fq12.one and k = ref 0 in
  let apply_lines () =
    List.iter
      (fun (xp, yp, lines) ->
        let l = lines.(!k) in
        f := Fq12.mul_by_line !f (Fq2.mul_by_fq yp l.ly) (Fq2.mul_by_fq xp l.lx) l.l0)
      live;
    incr k
  in
  if live <> [] then begin
    for i = 1 to Array.length ate_naf - 1 do
      if i > 1 then f := Fq12.sqr !f;
      apply_lines ();
      if ate_naf.(i) <> 0 then apply_lines ()
    done;
    apply_lines ();
    apply_lines ()
  end;
  !f

(* f^x on the cyclotomic subgroup, over the NAF of x (f⁻¹ = conj f there). *)
let cyclotomic_pow_x f =
  let f_inv = Fq12.conj f in
  let acc = ref f in
  for i = 1 to Array.length x_naf - 1 do
    acc := Fq12.cyclotomic_sqr !acc;
    match x_naf.(i) with
    | 1 -> acc := Fq12.mul !acc f
    | -1 -> acc := Fq12.mul !acc f_inv
    | _ -> ()
  done;
  !acc

(* f^((q¹²−1)/r) = f^((q⁶−1)(q²+1)) then ^((q⁴−q²+1)/r).
   Hard part: Scott et al., "On the final exponentiation for calculating
   pairings on ordinary elliptic curves" (Pairing 2009). With
   (q⁴−q²+1)/r = λ0 + λ1·q + λ2·q² + λ3·q³ and λ3 = 1, λ2 = 6x² + 1,
   λ1 = −36x³ − 18x² − 12x + 1, λ0 = −36x³ − 30x² − 18x − 2, the chain
   below computes y0·y1²·y2⁶·y3¹²·y4¹⁸·y5³⁰·y6³⁶ for
   y0 = f^(q+q²+q³), y1 = f⁻¹, y2 = f^(x²q²), y3 = f^(−xq),
   y4 = f^(−x−x²q), y5 = f^(−x²), y6 = f^(−x³−x³q): exactly the hard
   part, not a multiple of it. *)
let final_exponentiation f =
  (* a zero Miller value only arises from a degenerate line (a G2 input
     outside the r-order subgroup); it is not in GT and checks against
     gt_one fail on it *)
  if Fq12.is_zero f then Fq12.zero
  else begin
    let mul = Fq12.mul and sqr = Fq12.cyclotomic_sqr and conj = Fq12.conj in
    let frob k a = Fq12.frobenius ~power:k a in
    let f = mul (conj f) (Fq12.inv f) in
    let f = mul (frob 2 f) f in
    let fx = cyclotomic_pow_x f in
    let fx2 = cyclotomic_pow_x fx in
    let fx3 = cyclotomic_pow_x fx2 in
    let y0 = mul (mul (frob 1 f) (frob 2 f)) (frob 3 f) in
    let y1 = conj f in
    let y2 = frob 2 fx2 in
    let y3 = conj (frob 1 fx) in
    let y4 = conj (mul fx (frob 1 fx2)) in
    let y5 = conj fx2 in
    let y6 = conj (mul fx3 (frob 1 fx3)) in
    let t0 = mul (mul (sqr y6) y4) y5 in
    let t1 = mul (mul y3 y5) t0 in
    let t0 = mul t0 y2 in
    let t1 = sqr (mul (sqr t1) t0) in
    let t0 = mul t1 y1 in
    let t1 = mul t1 y0 in
    mul (sqr t0) t1
  end

let multi_pairing pairs =
  final_exponentiation (multi_miller_loop (List.map (fun (p, q) -> (p, prepare_g2 q)) pairs))

let pairing p q = multi_pairing [ (p, q) ]
