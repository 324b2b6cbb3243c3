(* Slow reference pairing for the tests: the reduced Tate pairing
   t(Q, P) = f_{r,Q}(P)^((q¹²−1)/r) with a plain affine Miller loop over
   the 254 bits of r (one Fq2 inversion per step) and the final
   exponentiation as one generic Fq12.pow. It shares no code with
   Zkvc_curve.Pairing beyond the field tower and the curve groups, so the
   fast optimal-ate pairing is checked against an independent
   construction. *)

module Fq2 = Zkvc_curve.Fq2
module Fq6 = Zkvc_curve.Fq6
module Fq12 = Zkvc_curve.Fq12
module G1 = Zkvc_curve.G1
module G2 = Zkvc_curve.G2
module Bigint = Zkvc_num.Bigint
module Bn_params = Zkvc_curve.Bn_params

(* T runs through multiples of Q on the twist, and the line through T
   with slope λ' is evaluated at P as y_P − λ'x_P·w + (λ'x_T − y_T)·w³.
   Vertical lines are dropped (denominator elimination); the final
   exponentiation kills them. After the loop T = r·Q = O, consumed by the
   final vertical line. *)
let miller_loop p q =
  if G1.is_zero p || G2.is_zero q then Fq12.one
  else begin
    let xp, yp = match G1.to_affine p with Some a -> a | None -> assert false in
    let qx, qy = match G2.to_affine q with Some a -> a | None -> assert false in
    let f = ref Fq12.one in
    let tx = ref qx and ty = ref qy and t_inf = ref false in
    let line lambda =
      let l =
        Fq12.make
          (Fq6.of_fq2 (Fq2.of_fq yp))
          (Fq6.make (Fq2.neg (Fq2.mul_by_fq xp lambda)) (Fq2.sub (Fq2.mul lambda !tx) !ty) Fq2.zero)
      in
      f := Fq12.mul !f l
    in
    let through lambda x2 =
      line lambda;
      let x3 = Fq2.sub (Fq2.sub (Fq2.sqr lambda) !tx) x2 in
      ty := Fq2.sub (Fq2.mul lambda (Fq2.sub !tx x3)) !ty;
      tx := x3
    in
    let tangent_step () =
      through (Fq2.div (Fq2.mul (Fq2.of_int 3) (Fq2.sqr !tx)) (Fq2.double !ty)) !tx
    in
    let addition_step () =
      if !t_inf then begin
        tx := qx; ty := qy; t_inf := false
      end
      else if Fq2.equal !tx qx then begin
        if Fq2.equal !ty qy then tangent_step () else t_inf := true
      end
      else through (Fq2.div (Fq2.sub qy !ty) (Fq2.sub qx !tx)) qx
    in
    let r = Bn_params.r in
    for i = Bigint.num_bits r - 2 downto 0 do
      f := Fq12.sqr !f;
      if not !t_inf then tangent_step ();
      if Bigint.bit r i then addition_step ()
    done;
    assert !t_inf;
    !f
  end

(* (q¹² − 1)/r, exactly *)
let final_exp_exponent =
  let num = Bigint.sub (Bigint.pow Bn_params.q 12) Bigint.one in
  let e, rem = Bigint.divmod num Bn_params.r in
  assert (Bigint.is_zero rem);
  e

let final_exponentiation f = Fq12.pow f final_exp_exponent

(* t(Q, P) *)
let pairing p q = final_exponentiation (miller_loop p q)

let multi_pairing pairs =
  final_exponentiation
    (List.fold_left (fun acc (p, q) -> Fq12.mul acc (miller_loop p q)) Fq12.one pairs)

(* The optimal ate pairing a(Q, P) equals t(Q, P)^e_o (Vercauteren,
   "Optimal pairings", with the ate-to-Tate relation of Hess–Smart–
   Vercauteren): its Miller function comes from
   λ = 6x + 2 + q − q² + q³ = m·r, whose Miller function raised to
   (q¹²−1)/r gives t(Q, P)^m; splitting λ along the powers of q leaves
   the factors f_{q^i, [c_i]Q}(P)^((q¹²−1)/r) = t(Q, P)^(c_i·i·q^(i−1)·h/(12·q¹¹))
   with h = (q¹²−1)/r and (c_1, c_2, c_3) = (1, −1, 1). So
   e_o = m − h·(1 − 2q + 3q²)/(12·q¹¹) mod r. *)
let ate_exponent =
  let r = Bn_params.r and q = Bn_params.q in
  let lambda =
    List.fold_left Bigint.add
      (Bigint.add (Bigint.mul (Bigint.of_int 6) Bn_params.x) Bigint.two)
      [ q; Bigint.neg (Bigint.pow q 2); Bigint.pow q 3 ]
  in
  let m, rem = Bigint.divmod lambda r in
  assert (Bigint.is_zero rem);
  let c = List.fold_left Bigint.add Bigint.one
      [ Bigint.mul (Bigint.of_int (-2)) q; Bigint.mul (Bigint.of_int 3) (Bigint.pow q 2) ] in
  let denom = Bigint.mul (Bigint.of_int 12) (Bigint.pow q 11) in
  let correction = Bigint.mul final_exp_exponent (Bigint.mul c (Bigint.mod_inverse denom r)) in
  Bigint.erem (Bigint.sub m correction) r
