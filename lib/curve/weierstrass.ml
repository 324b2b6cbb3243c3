(** Short Weierstrass curves [y² = x³ + b] in Jacobian coordinates,
    functorised over the coordinate field so that the same (heavily tested)
    formulas drive both G1 (over Fq) and the G2 twist (over Fq2). *)

module Bigint = Zkvc_num.Bigint

module type Coord = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val equal : t -> t -> bool
  val is_zero : t -> bool
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val double : t -> t
  val mul : t -> t -> t
  val sqr : t -> t
  val inv : t -> t
  val size_in_bytes : int
  val to_bytes : t -> Bytes.t
  val of_bytes_exn : Bytes.t -> t
  val pp : Format.formatter -> t -> unit
end

module Make (F : Coord) (P : sig
  val b : F.t
end) =
struct
  type t = { x : F.t; y : F.t; z : F.t } (* z = 0 encodes the point at infinity *)

  let zero = { x = F.one; y = F.one; z = F.zero }
  let is_zero p = F.is_zero p.z

  let of_affine (x, y) = { x; y; z = F.one }

  let to_affine p =
    if is_zero p then None
    else if F.equal p.z F.one then Some (p.x, p.y)
    else begin
      let zinv = F.inv p.z in
      let zinv2 = F.sqr zinv in
      Some (F.mul p.x zinv2, F.mul p.y (F.mul zinv2 zinv))
    end

  let is_on_curve_affine (x, y) =
    F.equal (F.sqr y) (F.add (F.mul x (F.sqr x)) P.b)

  let is_on_curve p =
    if is_zero p then true
    else match to_affine p with
      | None -> true
      | Some a -> is_on_curve_affine a

  let neg p = if is_zero p then p else { p with y = F.neg p.y }

  (* dbl-2009-l (a = 0): A = X², B = Y², C = B², D = 2((X+B)² − A − C),
     E = 3A, F = E², X3 = F − 2D, Y3 = E(D − X3) − 8C, Z3 = 2YZ. *)
  let double p =
    if is_zero p then p
    else begin
      let a = F.sqr p.x in
      let b = F.sqr p.y in
      let c = F.sqr b in
      let d = F.double (F.sub (F.sub (F.sqr (F.add p.x b)) a) c) in
      let e = F.add (F.double a) a in
      let f = F.sqr e in
      let x3 = F.sub f (F.double d) in
      let y3 = F.sub (F.mul e (F.sub d x3)) (F.double (F.double (F.double c))) in
      let z3 = F.double (F.mul p.y p.z) in
      { x = x3; y = y3; z = z3 }
    end

  (* madd-2007-bl (7M + 4S) for a Jacobian [p] plus an affine [q] (z = 1):
     U2 = X2·Z1², S2 = Y2·Z1³ against U1 = X1, S1 = Y1, with the same
     doubling and inverse edge cases as the general formula. *)
  let add_affine p q =
    let z1z1 = F.sqr p.z in
    let u2 = F.mul q.x z1z1 in
    let s2 = F.mul q.y (F.mul p.z z1z1) in
    if F.equal p.x u2 then begin
      if F.equal p.y s2 then double p else zero
    end
    else begin
      let h = F.sub u2 p.x in
      let hh = F.sqr h in
      let i = F.double (F.double hh) in
      let j = F.mul h i in
      let rr = F.double (F.sub s2 p.y) in
      let v = F.mul p.x i in
      let x3 = F.sub (F.sub (F.sqr rr) j) (F.double v) in
      let y3 = F.sub (F.mul rr (F.sub v x3)) (F.double (F.mul p.y j)) in
      let z3 = F.sub (F.sub (F.sqr (F.add p.z h)) z1z1) hh in
      { x = x3; y = y3; z = z3 }
    end

  (* add-2007-bl (11M + 5S) with doubling/infinity edge cases resolved
     explicitly; the mixed formula above whenever either operand is
     affine, which every normalised key base and every bucket holding a
     single base is. *)
  let add p q =
    if is_zero p then q
    else if is_zero q then p
    else if F.equal q.z F.one then add_affine p q
    else if F.equal p.z F.one then add_affine q p
    else begin
      let z1z1 = F.sqr p.z in
      let z2z2 = F.sqr q.z in
      let u1 = F.mul p.x z2z2 in
      let u2 = F.mul q.x z1z1 in
      let s1 = F.mul p.y (F.mul q.z z2z2) in
      let s2 = F.mul q.y (F.mul p.z z1z1) in
      if F.equal u1 u2 then begin
        if F.equal s1 s2 then double p else zero
      end
      else begin
        let h = F.sub u2 u1 in
        let i = F.sqr (F.double h) in
        let j = F.mul h i in
        let rr = F.double (F.sub s2 s1) in
        let v = F.mul u1 i in
        let x3 = F.sub (F.sub (F.sqr rr) j) (F.double v) in
        let y3 = F.sub (F.mul rr (F.sub v x3)) (F.double (F.mul s1 j)) in
        let z3 = F.mul (F.sub (F.sub (F.sqr (F.add p.z q.z)) z1z1) z2z2) h in
        { x = x3; y = y3; z = z3 }
      end
    end

  let sub_point p q = add p (neg q)

  (* Montgomery's trick with zero masking, as Batch.invert_all: the
     points at infinity and the already-affine points contribute F.one to
     the running products and keep their encoding, so one F.inv serves
     the whole array. *)
  let normalize ps =
    let n = Array.length ps in
    if n > 0 then begin
      let todo p = not (is_zero p || F.equal p.z F.one) in
      (* prefix.(i) = product of the z still to invert among ps.(0..i) *)
      let prefix = Array.make n F.one in
      let running = ref F.one in
      for i = 0 to n - 1 do
        if todo ps.(i) then running := F.mul !running ps.(i).z;
        prefix.(i) <- !running
      done;
      let inv_all = ref (F.inv !running) in
      for i = n - 1 downto 0 do
        let p = ps.(i) in
        if todo p then begin
          let zinv = if i = 0 then !inv_all else F.mul !inv_all prefix.(i - 1) in
          inv_all := F.mul !inv_all p.z;
          let zinv2 = F.sqr zinv in
          ps.(i) <- { x = F.mul p.x zinv2; y = F.mul p.y (F.mul zinv2 zinv); z = F.one }
        end
      done
    end

  let equal p q =
    match is_zero p, is_zero q with
    | true, true -> true
    | true, false | false, true -> false
    | false, false ->
      (* X1 Z2² = X2 Z1² and Y1 Z2³ = Y2 Z1³ *)
      let z1z1 = F.sqr p.z and z2z2 = F.sqr q.z in
      F.equal (F.mul p.x z2z2) (F.mul q.x z1z1)
      && F.equal (F.mul p.y (F.mul q.z z2z2)) (F.mul q.y (F.mul p.z z1z1))

  let mul p e =
    if Bigint.sign e < 0 then invalid_arg "Weierstrass.mul: negative scalar";
    let nb = Bigint.num_bits e in
    let acc = ref zero in
    for i = nb - 1 downto 0 do
      acc := double !acc;
      if Bigint.bit e i then acc := add !acc p
    done;
    !acc

  (** Fixed-width serialisation: a tag byte (0 = infinity, 1 = affine)
      followed by the two padded coordinates. *)
  let size_in_bytes = 1 + (2 * F.size_in_bytes)

  let to_bytes p =
    match to_affine p with
    | None -> Bytes.make size_in_bytes '\000'
    | Some (x, y) ->
      Bytes.cat (Bytes.make 1 '\001') (Bytes.cat (F.to_bytes x) (F.to_bytes y))

  (** Parses {!to_bytes} output; checks length, tag and the curve
      equation. Raises [Invalid_argument] otherwise. *)
  let of_bytes_exn b =
    if Bytes.length b <> size_in_bytes then invalid_arg "Weierstrass.of_bytes_exn: length";
    match Bytes.get b 0 with
    | '\000' -> zero
    | '\001' ->
      let fw = F.size_in_bytes in
      let x = F.of_bytes_exn (Bytes.sub b 1 fw) in
      let y = F.of_bytes_exn (Bytes.sub b (1 + fw) fw) in
      if not (is_on_curve_affine (x, y)) then
        invalid_arg "Weierstrass.of_bytes_exn: point not on curve";
      of_affine (x, y)
    | _ -> invalid_arg "Weierstrass.of_bytes_exn: bad tag"

  let pp fmt p =
    match to_affine p with
    | None -> Format.pp_print_string fmt "O"
    | Some (x, y) -> Format.fprintf fmt "(%a, %a)" F.pp x F.pp y
end
