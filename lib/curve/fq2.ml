module Fq = Zkvc_field.Fq
module Bigint = Zkvc_num.Bigint

type t = { c0 : Fq.t; c1 : Fq.t }

let make c0 c1 = { c0; c1 }
let zero = make Fq.zero Fq.zero
let one = make Fq.one Fq.zero
let of_fq c = make c Fq.zero
let of_int n = of_fq (Fq.of_int n)
let of_strings a b = make (Fq.of_string a) (Fq.of_string b)

let xi = make (Fq.of_int 9) Fq.one

let equal a b = Fq.equal a.c0 b.c0 && Fq.equal a.c1 b.c1
let is_zero a = equal a zero
let is_one a = equal a one

let add a b = make (Fq.add a.c0 b.c0) (Fq.add a.c1 b.c1)
let sub a b = make (Fq.sub a.c0 b.c0) (Fq.sub a.c1 b.c1)
let neg a = make (Fq.neg a.c0) (Fq.neg a.c1)
let double a = add a a

(* (a0 + a1 u)(b0 + b1 u) = (a0b0 - a1b1) + (a0b1 + a1b0) u, since u² = -1. *)
let mul a b =
  let t0 = Fq.mul a.c0 b.c0 and t1 = Fq.mul a.c1 b.c1 in
  let cross = Fq.mul (Fq.add a.c0 a.c1) (Fq.add b.c0 b.c1) in
  make (Fq.sub t0 t1) (Fq.sub cross (Fq.add t0 t1))

let sqr a =
  (* (a0+a1u)² = (a0+a1)(a0-a1) + 2a0a1 u *)
  let s = Fq.mul (Fq.add a.c0 a.c1) (Fq.sub a.c0 a.c1) in
  make s (Fq.double (Fq.mul a.c0 a.c1))

let mul_by_fq k a = make (Fq.mul k a.c0) (Fq.mul k a.c1)

(* (a0 + a1 u)(9 + u) = (9a0 − a1) + (a0 + 9a1) u, by additions only. *)
let mul_by_xi a =
  let nine c = Fq.add (Fq.double (Fq.double (Fq.double c))) c in
  make (Fq.sub (nine a.c0) a.c1) (Fq.add a.c0 (nine a.c1))

let conj a = make a.c0 (Fq.neg a.c1)

let inv a =
  (* 1/(a0+a1u) = (a0 - a1 u)/(a0² + a1²) *)
  let norm = Fq.add (Fq.sqr a.c0) (Fq.sqr a.c1) in
  if Fq.is_zero norm then raise Division_by_zero;
  let ninv = Fq.inv norm in
  make (Fq.mul a.c0 ninv) (Fq.neg (Fq.mul a.c1 ninv))

let div a b = mul a (inv b)

let pow base e =
  if Bigint.sign e < 0 then invalid_arg "Fq2.pow";
  let nb = Bigint.num_bits e in
  let acc = ref one in
  for i = nb - 1 downto 0 do
    acc := sqr !acc;
    if Bigint.bit e i then acc := mul !acc base
  done;
  !acc

(* Square root for q ≡ 3 (mod 4) (complex-method variant); the candidate is
   verified by squaring, so a wrong branch can only yield [None]. *)
let sqrt a =
  if is_zero a then Some zero
  else begin
    let q = Fq.modulus in
    let e1 = Bigint.shift_right (Bigint.sub q (Bigint.of_int 3)) 2 in (* (q-3)/4 *)
    let e2 = Bigint.shift_right (Bigint.sub q Bigint.one) 1 in (* (q-1)/2 *)
    let a1 = pow a e1 in
    let alpha = mul (sqr a1) a in
    let x0 = mul a1 a in
    let candidate =
      if equal alpha (neg one) then mul (make Fq.zero Fq.one) x0
      else
        let b = pow (add one alpha) e2 in
        mul b x0
    in
    if equal (sqr candidate) a then Some candidate else None
  end

let random st = make (Fq.random st) (Fq.random st)

let size_in_bytes = 2 * Fq.size_in_bytes

let to_bytes a = Bytes.cat (Fq.to_bytes a.c0) (Fq.to_bytes a.c1)

let of_bytes_exn b =
  if Bytes.length b <> size_in_bytes then invalid_arg "Fq2.of_bytes_exn: bad length";
  let half = Fq.size_in_bytes in
  make (Fq.of_bytes_exn (Bytes.sub b 0 half)) (Fq.of_bytes_exn (Bytes.sub b half half))

let pp fmt a = Format.fprintf fmt "(%a + %a*u)" Fq.pp a.c0 Fq.pp a.c1
