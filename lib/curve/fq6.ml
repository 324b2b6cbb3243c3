(** Cubic extension Fq6 = Fq2[v]/(v³ − ξ) with ξ = 9 + u. *)

module Bigint = Zkvc_num.Bigint

type t = { c0 : Fq2.t; c1 : Fq2.t; c2 : Fq2.t }

let make c0 c1 c2 = { c0; c1; c2 }
let zero = make Fq2.zero Fq2.zero Fq2.zero
let one = make Fq2.one Fq2.zero Fq2.zero
let of_fq2 c = make c Fq2.zero Fq2.zero

let equal a b = Fq2.equal a.c0 b.c0 && Fq2.equal a.c1 b.c1 && Fq2.equal a.c2 b.c2
let is_zero a = equal a zero
let is_one a = equal a one

let add a b = make (Fq2.add a.c0 b.c0) (Fq2.add a.c1 b.c1) (Fq2.add a.c2 b.c2)
let sub a b = make (Fq2.sub a.c0 b.c0) (Fq2.sub a.c1 b.c1) (Fq2.sub a.c2 b.c2)
let neg a = make (Fq2.neg a.c0) (Fq2.neg a.c1) (Fq2.neg a.c2)
let double a = add a a

let mul_xi = Fq2.mul_by_xi

(* Karatsuba (Devegili et al., "Multiplication and Squaring on Pairing-
   Friendly Fields"): 6 Fq2 products instead of 9. *)
let mul a b =
  let v0 = Fq2.mul a.c0 b.c0 in
  let v1 = Fq2.mul a.c1 b.c1 in
  let v2 = Fq2.mul a.c2 b.c2 in
  let cross x0 x1 y0 y1 = Fq2.mul (Fq2.add x0 x1) (Fq2.add y0 y1) in
  let c0 = Fq2.add v0 (mul_xi (Fq2.sub (cross a.c1 a.c2 b.c1 b.c2) (Fq2.add v1 v2))) in
  let c1 = Fq2.add (Fq2.sub (cross a.c0 a.c1 b.c0 b.c1) (Fq2.add v0 v1)) (mul_xi v2) in
  let c2 = Fq2.add (Fq2.sub (cross a.c0 a.c2 b.c0 b.c2) (Fq2.add v0 v2)) v1 in
  make c0 c1 c2

(* CH-SQR2 from the same paper: with s0 = a0², s1 = 2a0a1,
   s2 = (a0 − a1 + a2)², s3 = 2a1a2, s4 = a2²,
   a² = (s0 + ξs3) + (s1 + ξs4) v + (s1 + s2 + s3 − s0 − s4) v². *)
let sqr a =
  let s0 = Fq2.sqr a.c0 in
  let s1 = Fq2.double (Fq2.mul a.c0 a.c1) in
  let s2 = Fq2.sqr (Fq2.add (Fq2.sub a.c0 a.c1) a.c2) in
  let s3 = Fq2.double (Fq2.mul a.c1 a.c2) in
  let s4 = Fq2.sqr a.c2 in
  make
    (Fq2.add s0 (mul_xi s3))
    (Fq2.add s1 (mul_xi s4))
    (Fq2.sub (Fq2.add s1 (Fq2.add s2 s3)) (Fq2.add s0 s4))

let mul_by_fq2 k a = make (Fq2.mul k a.c0) (Fq2.mul k a.c1) (Fq2.mul k a.c2)

(* (a0 + a1 v + a2 v²)(b0 + b1 v): 5 Fq2 products. *)
let mul_by_01 a b0 b1 =
  let v0 = Fq2.mul a.c0 b0 and v1 = Fq2.mul a.c1 b1 in
  let c0 = Fq2.add v0 (mul_xi (Fq2.mul a.c2 b1)) in
  let c1 = Fq2.sub (Fq2.mul (Fq2.add a.c0 a.c1) (Fq2.add b0 b1)) (Fq2.add v0 v1) in
  let c2 = Fq2.add v1 (Fq2.mul a.c2 b0) in
  make c0 c1 c2

(* Multiplication by v: (c0, c1, c2) * v = (ξ c2, c0, c1). *)
let mul_by_v a = make (mul_xi a.c2) a.c0 a.c1

(* Inverse (Devegili et al., "Multiplication and Squaring on Pairing-
   Friendly Fields"). *)
let inv a =
  let t0 = Fq2.sub (Fq2.sqr a.c0) (mul_xi (Fq2.mul a.c1 a.c2)) in
  let t1 = Fq2.sub (mul_xi (Fq2.sqr a.c2)) (Fq2.mul a.c0 a.c1) in
  let t2 = Fq2.sub (Fq2.sqr a.c1) (Fq2.mul a.c0 a.c2) in
  let denom =
    Fq2.add (Fq2.mul a.c0 t0) (mul_xi (Fq2.add (Fq2.mul a.c2 t1) (Fq2.mul a.c1 t2)))
  in
  let dinv = Fq2.inv denom in
  make (Fq2.mul t0 dinv) (Fq2.mul t1 dinv) (Fq2.mul t2 dinv)

(* ---- Frobenius ----
   Over Fq2 the q-power Frobenius is conjugation, and w⁶ = ξ (with
   w² = v, the Fq12 generator) gives w^(e·q^k) = w^e · ξ^(e(q^k − 1)/6).
   The constants γ_{k,e} = ξ^(e(q^k − 1)/6) are derived here from ξ, not
   transcribed: one Fq2 power for k = 1, then
   γ_{2,1} = γ_{1,1}·γ_{1,1}^q and γ_{3,1} = γ_{2,1}·γ_{1,1}^(q²), using
   (q^k − 1)/6 = (q − 1)/6 · (1 + q + … + q^(k−1)) and γ^q = conj γ. *)
let frobenius_coeffs =
  let q = Zkvc_field.Fq.modulus in
  let e, rem = Bigint.divmod (Bigint.sub q Bigint.one) (Bigint.of_int 6) in
  assert (Bigint.is_zero rem);
  let g1 = Fq2.pow Fq2.xi e in
  (* γ_{1,1}⁶ = ξ^(q−1), i.e. γ_{1,1}⁶·ξ = ξ^q = conj ξ *)
  let sixth g = Fq2.mul (Fq2.sqr g) (Fq2.mul (Fq2.sqr g) (Fq2.sqr g)) in
  assert (Fq2.equal (Fq2.mul (sixth g1) Fq2.xi) (Fq2.conj Fq2.xi));
  let g2 = Fq2.mul g1 (Fq2.conj g1) in
  let g3 = Fq2.mul g2 g1 in
  (* ξ^(q²−1) = 1 makes γ_{2,1} a sixth root of unity, and it lies in Fq *)
  assert (Fq2.is_one (sixth g2) && Zkvc_field.Fq.is_zero g2.Fq2.c1);
  assert (Fq2.equal (Fq2.mul (sixth g3) Fq2.xi) (Fq2.conj Fq2.xi));
  Array.map
    (fun g ->
      let pw = Array.make 6 Fq2.one in
      for i = 1 to 5 do
        pw.(i) <- Fq2.mul pw.(i - 1) g
      done;
      pw)
    [| g1; g2; g3 |]

let frobenius_coeff ~power e =
  if power < 1 || power > 3 || e < 0 || e > 5 then invalid_arg "Fq6.frobenius_coeff";
  frobenius_coeffs.(power - 1).(e)

let frob_fq2 power c = if power land 1 = 1 then Fq2.conj c else c

(* v = w², so the v^j coefficient picks up γ_{k,2j}. *)
let frobenius ~power a =
  let g = frobenius_coeff ~power in
  make
    (frob_fq2 power a.c0)
    (Fq2.mul (frob_fq2 power a.c1) (g 2))
    (Fq2.mul (frob_fq2 power a.c2) (g 4))

let random st = make (Fq2.random st) (Fq2.random st) (Fq2.random st)

let pp fmt a = Format.fprintf fmt "(%a, %a, %a)" Fq2.pp a.c0 Fq2.pp a.c1 Fq2.pp a.c2
