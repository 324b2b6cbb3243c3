(** Quadratic extension Fq12 = Fq6[w]/(w² − v). Since v³ = ξ we get w⁶ = ξ,
    which is exactly the relation the D-type sextic twist of BN254 needs:
    the untwisting map sends a G2 point (x', y') ∈ E'(Fq2) to
    (x'·w², y'·w³) ∈ E(Fq12). *)

module Bigint = Zkvc_num.Bigint

type t = { c0 : Fq6.t; c1 : Fq6.t }

let make c0 c1 = { c0; c1 }
let zero = make Fq6.zero Fq6.zero
let one = make Fq6.one Fq6.zero

let equal a b = Fq6.equal a.c0 b.c0 && Fq6.equal a.c1 b.c1
let is_zero a = equal a zero
let is_one a = equal a one

let add a b = make (Fq6.add a.c0 b.c0) (Fq6.add a.c1 b.c1)
let sub a b = make (Fq6.sub a.c0 b.c0) (Fq6.sub a.c1 b.c1)
let neg a = make (Fq6.neg a.c0) (Fq6.neg a.c1)

(* (a0 + a1 w)(b0 + b1 w) = (a0b0 + a1b1 v) + (a0b1 + a1b0) w *)
let mul a b =
  let m00 = Fq6.mul a.c0 b.c0 in
  let m11 = Fq6.mul a.c1 b.c1 in
  let cross = Fq6.mul (Fq6.add a.c0 a.c1) (Fq6.add b.c0 b.c1) in
  make (Fq6.add m00 (Fq6.mul_by_v m11)) (Fq6.sub cross (Fq6.add m00 m11))

(* Complex squaring: with t = a0·a1,
   (a0 + a1 w)² = ((a0 + a1)(a0 + a1 v) − t − t v) + 2t w: two Fq6 products. *)
let sqr a =
  let t = Fq6.mul a.c0 a.c1 in
  let s = Fq6.mul (Fq6.add a.c0 a.c1) (Fq6.add a.c0 (Fq6.mul_by_v a.c1)) in
  make (Fq6.sub s (Fq6.add t (Fq6.mul_by_v t))) (Fq6.double t)

let conj a = make a.c0 (Fq6.neg a.c1)

(* a + b·w + c·w³ sits in the tower as (a, 0, 0) + (b, c, 0)·w, so the
   product is a Karatsuba over Fq6 whose operands are all sparse:
   13 Fq2 products instead of 18. *)
let mul_by_line f a b c =
  let t0 = Fq6.mul_by_fq2 a f.c0 in
  let t1 = Fq6.mul_by_01 f.c1 b c in
  let cross = Fq6.mul_by_01 (Fq6.add f.c0 f.c1) (Fq2.add a b) c in
  make (Fq6.add t0 (Fq6.mul_by_v t1)) (Fq6.sub cross (Fq6.add t0 t1))

(* Granger–Scott, "Faster squaring in the cyclotomic subgroup of sixth
   degree extensions" (PKC 2010). Read Fq12 as Fq4[w]/(w³ − s) with
   Fq4 = Fq2[s]/(s² − ξ), s = w³: f = A + B·w + C·w² where
   A = (c0.c0, c1.c1), B = (c1.c0, c0.c2), C = (c0.c1, c1.c2). For f in
   the cyclotomic subgroup (f^(q⁴−q²+1) = 1, which holds after the easy
   part of the final exponentiation), f² = (3A² − 2Ā) + (3s·C² + 2B̄)·w
   + (3B² − 2C̄)·w², where x̄ negates the s-part. Each Fq4 square costs
   two Fq2 products. *)
let cyclotomic_sqr f =
  let fq4_sqr x y =
    let t = Fq2.mul x y in
    ( Fq2.sub (Fq2.mul (Fq2.add x y) (Fq2.add x (Fq2.mul_by_xi y))) (Fq2.add t (Fq2.mul_by_xi t)),
      Fq2.double t )
  in
  (* 3t − 2z and 3t + 2z *)
  let minus t z = Fq2.add (Fq2.double (Fq2.sub t z)) t in
  let plus t z = Fq2.add (Fq2.double (Fq2.add t z)) t in
  let z0 = f.c0.Fq6.c0 and z4 = f.c0.Fq6.c1 and z3 = f.c0.Fq6.c2 in
  let z2 = f.c1.Fq6.c0 and z1 = f.c1.Fq6.c1 and z5 = f.c1.Fq6.c2 in
  let t0, t1 = fq4_sqr z0 z1 in
  let t2, t3 = fq4_sqr z2 z3 in
  let t4, t5 = fq4_sqr z4 z5 in
  make
    (Fq6.make (minus t0 z0) (minus t2 z4) (minus t4 z3))
    (Fq6.make (plus (Fq2.mul_by_xi t5) z2) (plus t1 z1) (plus t3 z5))

(* The w^(2j+1) coefficients (c1.c_j) pick up γ_{k,2j+1}. *)
let frobenius ~power a =
  let g = Fq6.frobenius_coeff ~power in
  let f c = if power land 1 = 1 then Fq2.conj c else c in
  make
    (Fq6.frobenius ~power a.c0)
    (Fq6.make
       (Fq2.mul (f a.c1.Fq6.c0) (g 1))
       (Fq2.mul (f a.c1.Fq6.c1) (g 3))
       (Fq2.mul (f a.c1.Fq6.c2) (g 5)))

let inv a =
  (* 1/(a0 + a1 w) = (a0 - a1 w)/(a0² - a1² v) *)
  let denom = Fq6.sub (Fq6.sqr a.c0) (Fq6.mul_by_v (Fq6.sqr a.c1)) in
  let dinv = Fq6.inv denom in
  make (Fq6.mul a.c0 dinv) (Fq6.neg (Fq6.mul a.c1 dinv))

let pow base e =
  if Bigint.sign e < 0 then invalid_arg "Fq12.pow";
  let nb = Bigint.num_bits e in
  let acc = ref one in
  for i = nb - 1 downto 0 do
    acc := sqr !acc;
    if Bigint.bit e i then acc := mul !acc base
  done;
  !acc

(** Embedding of an E'(Fq2) x-coordinate: x'·w² = (0, x', 0) in the c0 part. *)
let of_twist_x x' = make (Fq6.make Fq2.zero x' Fq2.zero) Fq6.zero

(** Embedding of an E'(Fq2) y-coordinate: y'·w³ = (0, y', 0)·w. *)
let of_twist_y y' = make Fq6.zero (Fq6.make Fq2.zero y' Fq2.zero)

let random st = make (Fq6.random st) (Fq6.random st)

let pp fmt a = Format.fprintf fmt "[%a; %a]" Fq6.pp a.c0 Fq6.pp a.c1
