(** Reusable R1CS gadgets: products, booleans, bit decomposition,
    comparisons, maxima, Euclidean division. These are the building blocks
    of zkVC's non-linear approximations (SoftMax / GELU, Section III-C of
    the paper), which reduce everything to "bit decomposition + a handful
    of multiplications". *)

module Bigint = Zkvc_num.Bigint

module Make (F : Zkvc_field.Field_intf.S) = struct
  module L = Lc.Make (F)
  module B = Builder.Make (F)

  (** [mul b x y] allocates and constrains the product wire of two LCs. *)
  let mul b x y =
    let xv = B.eval b x and yv = B.eval b y in
    let z = B.alloc b (F.mul xv yv) in
    B.enforce b ~label:"mul" x y (L.of_var z);
    z

  (** Enforce that an LC takes a boolean value: [x (1 - x) = 0]. *)
  let assert_boolean b x =
    B.enforce b ~label:"bool" x (L.sub (L.constant F.one) x) L.zero

  (** Allocate a boolean wire with the given value. *)
  let alloc_boolean b value =
    let v = B.alloc b (if value then F.one else F.zero) in
    assert_boolean b (L.of_var v);
    v

  (** Enforce equality of two LCs (one linear constraint). *)
  let assert_equal b x y = B.enforce b ~label:"eq" (L.sub x y) (L.constant F.one) L.zero

  (** Decompose the value of [x] into [width] boolean wires,
      least-significant first, and enforce [x = Σ 2^i b_i]. This doubles as
      a range proof that [0 ≤ x < 2^width]. The witness value must already
      be in range or the resulting system is unsatisfiable (checked
      eagerly: raises [Invalid_argument]). *)
  let bits_of b ~width x =
    let xv = F.to_bigint (B.eval b x) in
    if Bigint.num_bits xv > width then
      invalid_arg "Gadgets.bits_of: value exceeds width (witness out of range)";
    B.in_region b "bits" (fun () ->
        let bits =
          List.init width (fun i -> alloc_boolean b (Bigint.bit xv i))
        in
        let sum =
          List.fold_left
            (fun (terms, p2) bit -> ((bit, p2) :: terms, F.double p2))
            ([], F.one) bits
          |> fst |> L.of_terms
        in
        assert_equal b sum x;
        bits)

  (** Range-check without returning the bits. *)
  let assert_in_range b ~width x = ignore (bits_of b ~width x)

  (** [assert_le b ~width x y] enforces [x ≤ y], both interpreted as
      integers below [2^width]: range-check [y - x]. *)
  let assert_le b ~width x y = assert_in_range b ~width (L.sub y x)

  (** Boolean wire set to 1 iff the LC evaluates to zero.
      Standard construction: with witness [m] (= 1/x when x ≠ 0),
      [x·m = 1 - flag] and [x·flag = 0]. *)
  let is_zero b x =
    let xv = B.eval b x in
    let flagv = F.is_zero xv in
    let m = B.alloc b (if flagv then F.zero else F.inv xv) in
    let flag = B.alloc b (if flagv then F.one else F.zero) in
    B.enforce b ~label:"iszero-1" x (L.of_var m)
      (L.sub (L.constant F.one) (L.of_var flag));
    B.enforce b ~label:"iszero-2" x (L.of_var flag) L.zero;
    flag

  (** [select b cond a c] is [cond ? a : c]; [cond] must be boolean. *)
  let select b cond a c =
    let condv = B.eval b cond in
    let res = B.alloc b (if F.is_one condv then B.eval b a else B.eval b c) in
    (* cond (a - c) = res - c *)
    B.enforce b ~label:"select" cond (L.sub a c) (L.sub (L.of_var res) c);
    res

  (** Chained product [Π xs] using [n-1] constraints; the empty product
      is the constant 1. *)
  let product b = function
    | [] -> L.constant F.one
    | [ x ] -> x
    | x :: rest ->
      let acc = List.fold_left (fun acc y -> L.of_var (mul b acc y)) x rest in
      acc

  (** Maximum of a non-empty list of LCs, all valued in [0, 2^width):
      constrains (1) max ≥ x_j for all j via range checks and
      (2) Π (max − x_j) = 0, exactly the two conditions in the paper's
      SoftMax section. *)
  let max_of b ~width xs =
    if xs = [] then invalid_arg "Gadgets.max_of: empty";
    B.in_region b "max" (fun () ->
        let values = List.map (fun x -> F.to_bigint (B.eval b x)) xs in
        let maxv = List.fold_left Bigint.max (List.hd values) values in
        let m = B.alloc b (F.of_bigint maxv) in
        let diffs = List.map (fun x -> L.sub (L.of_var m) x) xs in
        List.iter (fun d -> assert_in_range b ~width d) diffs;
        let prod = product b diffs in
        B.enforce b ~label:"max-member" prod (L.constant F.one) L.zero;
        m)

  (** Euclidean division by a positive constant: allocates [q, r] with
      [x = q·d + r], [0 ≤ r < d], [0 ≤ q < 2^q_width]. Returns [(q, r)]. *)
  let div_by_constant b ~q_width x d =
    if Bigint.le d Bigint.zero then invalid_arg "Gadgets.div_by_constant: d <= 0";
    B.in_region b "divc" (fun () ->
        let xv = F.to_bigint (B.eval b x) in
        let qv, rv = Bigint.divmod xv d in
        let q = B.alloc b (F.of_bigint qv) in
        let r = B.alloc b (F.of_bigint rv) in
        (* linear reconstruction *)
        assert_equal b x (L.add (L.term (F.of_bigint d) q) (L.of_var r));
        assert_in_range b ~width:q_width (L.of_var q);
        (* r < d: range-check r and d-1-r *)
        let d_bits = Bigint.num_bits d in
        assert_in_range b ~width:d_bits (L.of_var r);
        assert_in_range b ~width:d_bits
          (L.sub (L.constant (F.of_bigint (Bigint.sub d Bigint.one))) (L.of_var r));
        (q, r))

  (** Division with a witness-dependent divisor: [x = q·y + r], [0 ≤ r < y].
      Used for the SoftMax normalisation [e_i·S / Σ e_j]. Costs one
      multiplication constraint plus range checks. *)
  let div_rem b ~q_width ~r_width x y =
    let xv = F.to_bigint (B.eval b x) and yv = F.to_bigint (B.eval b y) in
    if Bigint.le yv Bigint.zero then invalid_arg "Gadgets.div_rem: divisor <= 0";
    B.in_region b "divrem" (fun () ->
        let qv, rv = Bigint.divmod xv yv in
        let q = B.alloc b (F.of_bigint qv) in
        let r = B.alloc b (F.of_bigint rv) in
        (* q*y = x - r *)
        B.enforce b ~label:"divrem" (L.of_var q) y (L.sub x (L.of_var r));
        assert_in_range b ~width:q_width (L.of_var q);
        assert_in_range b ~width:r_width (L.of_var r);
        (* r < y via range check of y - 1 - r *)
        assert_in_range b ~width:r_width (L.sub (L.sub y (L.constant F.one)) (L.of_var r));
        (q, r))
end
