module Bigint = Zkvc_num.Bigint

(* One shared counter across all field instantiations (Fr, Fq, Fsmall):
   total Montgomery multiplications — the innermost prover cost unit. The
   hot path hoists the sink flag so the disabled cost is a load + branch. *)
let mul_metric = Zkvc_obs.Metrics.counter "field.mont_mul"
let obs_on = Zkvc_obs.Sink.enabled

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

module Make (M : sig
  val modulus : string
end) : Field_intf.S = struct
  type t = int array (* Montgomery form, k limbs, canonical in [0, p) *)

  let modulus = Bigint.of_string M.modulus
  let () = assert (Bigint.gt modulus Bigint.one && not (Bigint.is_even modulus))
  let bits = Bigint.num_bits modulus
  let k = (bits + limb_bits - 1) / limb_bits
  let size_in_bytes = (bits + 7) / 8

  (* a product-scanning column sums up to 2k products below 2^52 *)
  let () = assert (2 * k < 1 lsl (62 - (2 * limb_bits)))

  let limbs_of_bigint n =
    let a = Array.make k 0 in
    let rec go n i =
      if not (Bigint.is_zero n) then begin
        (match Bigint.to_int_opt (Bigint.erem n (Bigint.of_int limb_base)) with
         | Some v -> a.(i) <- v
         | None -> assert false);
        go (Bigint.shift_right n limb_bits) (i + 1)
      end
    in
    go n 0;
    a

  let bigint_of_limbs a =
    let acc = ref Bigint.zero in
    for i = k - 1 downto 0 do
      acc := Bigint.add (Bigint.shift_left !acc limb_bits) (Bigint.of_int a.(i))
    done;
    !acc

  let p_limbs = limbs_of_bigint modulus
  let p0 = p_limbs.(0)

  (* -p[0]^{-1} mod 2^26, via Newton iteration on the odd limb. *)
  let n0' =
    let x = ref 1 in
    for _ = 1 to 5 do
      x := (!x * (2 - (p0 * !x))) land limb_mask
    done;
    (limb_base - !x) land limb_mask

  let r2 =
    let r = Bigint.shift_left Bigint.one (limb_bits * k) in
    limbs_of_bigint (Bigint.erem (Bigint.mul r r) modulus)

  (* t >= p, comparing from the top limb down; a loop, so no closure is
     allocated on every [mul] and [add]. *)
  let geq_p t =
    let i = ref (k - 1) in
    while !i >= 0 && t.(!i) = p_limbs.(!i) do decr i done;
    !i < 0 || t.(!i) > p_limbs.(!i)

  let sub_p_inplace t =
    let borrow = ref 0 in
    for i = 0 to k - 1 do
      let s = t.(i) - p_limbs.(i) - !borrow in
      if s < 0 then begin t.(i) <- s + limb_base; borrow := 1 end
      else begin t.(i) <- s; borrow := 0 end
    done

  (* Finely integrated product scanning (FIPS; Koç–Acar–Kaliski, IEEE Micro
     1996). Column c of a·b + m·p is summed in one native int and carried
     once: a column holds at most 2k products below 2^52 plus a carry below
     2^31, so it stays under 2^57 for k = 10 (and under 2^62 for any k the
     assertion above admits).
     m_i is kept in slot i of the result: column i+k is the first to write
     that slot, and no column from i+k on reads m_i (its j starts at i+1).
     After the length check every index below is in range by the loop
     bounds (0 <= j, i-j, c-k, c-j <= k-1), hence the unsafe accesses. The
     result is the only allocation, so the kernel is safe on any domain. *)
  let mont_mul a b =
    if !obs_on then Atomic.incr mul_metric.Zkvc_obs.Metrics.value;
    if Array.length a <> k || Array.length b <> k then
      invalid_arg "Montgomery.mul: operand of the wrong length";
    let r = Array.make k 0 in
    let acc = ref 0 in
    for i = 0 to k - 1 do
      let s = ref !acc in
      for j = 0 to i - 1 do
        s :=
          !s
          + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
          + (Array.unsafe_get r j * Array.unsafe_get p_limbs (i - j))
      done;
      let s = !s + (Array.unsafe_get a i * Array.unsafe_get b 0) in
      (* s * n0' wraps mod 2^63, but its low 26 bits are exact *)
      let m = (s * n0') land limb_mask in
      Array.unsafe_set r i m;
      acc := (s + (m * p0)) lsr limb_bits
    done;
    for c = k to (2 * k) - 1 do
      let s = ref !acc in
      for j = c - k + 1 to k - 1 do
        s :=
          !s
          + (Array.unsafe_get a j * Array.unsafe_get b (c - j))
          + (Array.unsafe_get r j * Array.unsafe_get p_limbs (c - j))
      done;
      Array.unsafe_set r (c - k) (!s land limb_mask);
      acc := !s lsr limb_bits
    done;
    if !acc <> 0 || geq_p r then sub_p_inplace r;
    r

  let zero = Array.make k 0

  (* the integer 1 as raw limbs: [mont_mul a one_raw] leaves Montgomery
     form, giving the canonical limbs of the value *)
  let one_raw = Array.init k (fun i -> if i = 0 then 1 else 0)

  let of_bigint n = mont_mul (limbs_of_bigint (Bigint.erem n modulus)) r2
  let to_bigint a = bigint_of_limbs (mont_mul a one_raw)

  let one = of_bigint Bigint.one

  let of_int n = of_bigint (Bigint.of_int n)
  let of_string s = of_bigint (Bigint.of_string s)
  let to_string a = Bigint.to_string (to_bigint a)

  let equal a b = a = b
  let is_zero a = equal a zero
  let is_one a = equal a one

  let add a b =
    let t = Array.make k 0 in
    let carry = ref 0 in
    for i = 0 to k - 1 do
      let s = a.(i) + b.(i) + !carry in
      t.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done;
    if !carry <> 0 || geq_p t then sub_p_inplace t;
    t

  let sub a b =
    let t = Array.make k 0 in
    let borrow = ref 0 in
    for i = 0 to k - 1 do
      let s = a.(i) - b.(i) - !borrow in
      if s < 0 then begin t.(i) <- s + limb_base; borrow := 1 end
      else begin t.(i) <- s; borrow := 0 end
    done;
    if !borrow <> 0 then begin
      let carry = ref 0 in
      for i = 0 to k - 1 do
        let s = t.(i) + p_limbs.(i) + !carry in
        t.(i) <- s land limb_mask;
        carry := s lsr limb_bits
      done
    end;
    t

  let neg a = if is_zero a then a else sub zero a
  let mul = mont_mul
  let sqr a = mont_mul a a
  let double a = add a a

  (* R³ mod p as raw limbs: [mont_mul h r3] is h·R² in Montgomery form *)
  let r3 =
    let r = Bigint.shift_left Bigint.one (limb_bits * k) in
    limbs_of_bigint (Bigint.erem (Bigint.mul r (Bigint.mul r r)) modulus)

  (* Inner terms one reduction covers: a sum of [chunk] products of
     canonical values is below chunk·2^(2·bits) = R², so it splits into
     lo + hi·R with lo, hi < R (4096 terms at 254 bits). *)
  let mat_mul_chunk = 1 lsl (2 * ((limb_bits * k) - bits))

  (* Terms between carry normalisations: a normalised column (< 2^26)
     plus [carry_every] terms of at most k limb products below 2^52 each
     stays below 2^62. *)
  let carry_every = 64
  let () = assert (carry_every * k < 1 lsl (62 - (2 * limb_bits)))

  (* Lazily reduced matrix product. Every entry leaves Montgomery form
     once, into canonical limbs (X row-major, W column-major) with its
     count of significant limbs. Output (i, j) then sums its n limb
     products schoolbook-style into 2k native-int columns, over only the
     significant limbs of each operand, carrying every [carry_every]
     terms. The integer sum T = lo + hi·R (below R² per chunk) returns to
     Montgomery form with two multiplications, T·R = mont_mul(lo, R²) +
     mont_mul(hi, R³), the second skipped when hi = 0; chunks, if any,
     are added. Every step is exact, so the result is the canonical
     element the mul/add loop gives. Its time depends on the entries'
     limb lengths. The accesses below stay inside xs, ws (offsets e·k + l
     with l < k) and acc (l + m < 2k) by construction. *)
  let mat_mul x w =
    let a, n, b = Field_intf.mat_mul_dims x w in
    let xs = Array.make (a * n * k) 0 and xlen = Array.make (a * n) 0 in
    let ws = Array.make (b * n * k) 0 and wlen = Array.make (b * n) 0 in
    let load limbs lens e v =
      let c = mont_mul v one_raw in
      Array.blit c 0 limbs (e * k) k;
      let l = ref k in
      while !l > 0 && c.(!l - 1) = 0 do decr l done;
      lens.(e) <- !l
    in
    Array.iteri (fun i row -> Array.iteri (fun t v -> load xs xlen ((i * n) + t) v) row) x;
    Array.iteri (fun t row -> Array.iteri (fun j v -> load ws wlen ((j * n) + t) v) row) w;
    let acc = Array.make (2 * k) 0 in
    let normalise () =
      let carry = ref 0 in
      for c = 0 to (2 * k) - 1 do
        let s = Array.unsafe_get acc c + !carry in
        Array.unsafe_set acc c (s land limb_mask);
        carry := s lsr limb_bits
      done
    in
    (* Σ_{t0 <= t < t1} x_it·w_tj, back in Montgomery form *)
    let chunk i j t0 t1 =
      Array.fill acc 0 (2 * k) 0;
      for t = t0 to t1 - 1 do
        let xe = (i * n) + t and we = (j * n) + t in
        let xo = xe * k and wo = we * k and lw = Array.unsafe_get wlen we in
        for l = 0 to Array.unsafe_get xlen xe - 1 do
          let xv = Array.unsafe_get xs (xo + l) in
          for m = 0 to lw - 1 do
            Array.unsafe_set acc (l + m)
              (Array.unsafe_get acc (l + m) + (xv * Array.unsafe_get ws (wo + m)))
          done
        done;
        if (t - t0) land (carry_every - 1) = carry_every - 1 then normalise ()
      done;
      normalise ();
      let y = mont_mul (Array.sub acc 0 k) r2 in
      let hi = Array.sub acc k k in
      if Array.for_all (( = ) 0) hi then y else add y (mont_mul hi r3)
    in
    Array.init a (fun i ->
        Array.init b (fun j ->
            let rec from t0 =
              let t1 = Stdlib.min n (t0 + mat_mul_chunk) in
              let y = chunk i j t0 t1 in
              if t1 < n then add y (from t1) else y
            in
            from 0))

  let pow base e =
    if Bigint.sign e < 0 then invalid_arg "Montgomery.pow: negative exponent";
    let nb = Bigint.num_bits e in
    let acc = ref one in
    for i = nb - 1 downto 0 do
      acc := sqr !acc;
      if Bigint.bit e i then acc := mul !acc base
    done;
    !acc

  let pow_int base e = pow base (Bigint.of_int e)

  let p_minus_2 = Bigint.sub modulus Bigint.two

  let inv a = if is_zero a then raise Division_by_zero else pow a p_minus_2

  let div a b = mul a (inv b)

  let two_adicity =
    let rec go n s = if Bigint.is_even n then go (Bigint.shift_right n 1) (s + 1) else s in
    go (Bigint.sub modulus Bigint.one) 0

  let two_adic_root =
    (* c^((p-1)/2^s) has order dividing 2^s; exact order 2^s iff its
       2^(s-1)-th power is non-trivial. *)
    let odd_part = Bigint.shift_right (Bigint.sub modulus Bigint.one) two_adicity in
    let half_order = Bigint.shift_left Bigint.one (two_adicity - 1) in
    let rec search c =
      if c > 1000 then failwith "Montgomery: no 2-adic root found"
      else begin
        let w = pow (of_int c) odd_part in
        if not (is_one (pow w half_order)) then w else search (c + 1)
      end
    in
    search 2

  let random st = of_bigint (Bigint.random st modulus)

  (* Big-endian, straight from the canonical limbs: the 26-bit limbs stream
     least significant first through a bit buffer of at most 33 bits, and
     bytes fill from the end. Same bytes as [Bigint.to_bytes_be]. *)
  let to_bytes a =
    let v = mont_mul a one_raw in
    let out = Bytes.make size_in_bytes '\000' in
    let buf = ref 0 and nbits = ref 0 and pos = ref (size_in_bytes - 1) in
    for i = 0 to k - 1 do
      buf := !buf lor (v.(i) lsl !nbits);
      nbits := !nbits + limb_bits;
      while !nbits >= 8 && !pos >= 0 do
        Bytes.set out !pos (Char.unsafe_chr (!buf land 0xff));
        buf := !buf lsr 8;
        nbits := !nbits - 8;
        decr pos
      done
    done;
    if !pos >= 0 then Bytes.set out !pos (Char.unsafe_chr (!buf land 0xff));
    out

  (* The inverse of [to_bytes]: bytes stream least significant first
     into 26-bit limbs through a bit buffer of at most 33 bits, with no
     big-integer arithmetic. Bits past the k limbs make the value at
     least 2^(26k) > p, so they are non-canonical like any value ≥ p. *)
  let of_bytes_exn b =
    if Bytes.length b <> size_in_bytes then invalid_arg "Montgomery.of_bytes_exn: bad length";
    let a = Array.make k 0 in
    let buf = ref 0 and nbits = ref 0 and limb = ref 0 and overflow = ref false in
    let emit v =
      if !limb < k then a.(!limb) <- v else if v <> 0 then overflow := true;
      incr limb
    in
    for pos = size_in_bytes - 1 downto 0 do
      buf := !buf lor (Char.code (Bytes.get b pos) lsl !nbits);
      nbits := !nbits + 8;
      if !nbits >= limb_bits then begin
        emit (!buf land limb_mask);
        buf := !buf lsr limb_bits;
        nbits := !nbits - limb_bits
      end
    done;
    emit !buf;
    if !overflow || geq_p a then invalid_arg "Montgomery.of_bytes_exn: not canonical";
    mont_mul a r2

  let pp fmt a = Format.pp_print_string fmt (to_string a)
end
