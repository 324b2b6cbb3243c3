(* Little-endian base-2^26 magnitudes; limb products fit in 52 bits so all
   intermediate sums stay well inside OCaml's 63-bit native ints. *)

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = { sign : int; (* 1 or -1; zero has sign 1 and empty magnitude *)
           mag : int array (* little-endian, no trailing zero limbs *) }

let zero = { sign = 1; mag = [||] }

let is_zero n = Array.length n.mag = 0

(* ------------------------------------------------------------------ *)
(* Magnitude helpers                                                    *)

let mag_normalize a =
  let k = ref (Array.length a) in
  while !k > 0 && a.(!k - 1) = 0 do decr k done;
  if !k = Array.length a then a else Array.sub a 0 !k

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + Stdlib.max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let av = if i < la then a.(i) else 0 in
    let bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  assert (!carry = 0);
  mag_normalize r

(* Requires [a >= b]. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let s = a.(i) - bv - !borrow in
    if s < 0 then begin r.(i) <- s + limb_base; borrow := 1 end
    else begin r.(i) <- s; borrow := 0 end
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land limb_mask;
          carry := s lsr limb_bits
        done;
        (* propagate the remaining carry (can exceed one limb only briefly) *)
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land limb_mask;
          carry := s lsr limb_bits;
          incr k
        done
      end
    done;
    mag_normalize r
  end

let mag_num_bits a =
  let l = Array.length a in
  if l = 0 then 0
  else
    let top = a.(l - 1) in
    let rec width n acc = if n = 0 then acc else width (n lsr 1) (acc + 1) in
    ((l - 1) * limb_bits) + width top 0

let mag_bit a i =
  let limb = i / limb_bits and off = i mod limb_bits in
  if limb >= Array.length a then false else (a.(limb) lsr off) land 1 = 1

(* bits [pos, pos + len) as an int, read limb by limb. With len <= 62 the
   final mask keeps every wanted bit; a limb shifted past bit 62 loses
   only bits the mask would clear anyway. *)
let mag_bits a pos len =
  let la = Array.length a in
  let limb = pos / limb_bits in
  if limb >= la then 0
  else begin
    let v = ref (a.(limb) lsr (pos mod limb_bits)) in
    let got = ref (limb_bits - (pos mod limb_bits)) and i = ref (limb + 1) in
    while !got < len && !i < la do
      v := !v lor (a.(!i) lsl !got);
      got := !got + limb_bits;
      incr i
    done;
    !v land ((1 lsl len) - 1)
  end

let mag_shift_left a k =
  if Array.length a = 0 || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- v lsr limb_bits
    done;
    mag_normalize r
  end

let mag_shift_right a k =
  if Array.length a = 0 || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then [||]
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask else 0 in
        r.(i) <- if bits = 0 then a.(i + limbs) else lo lor hi
      done;
      mag_normalize r
    end
  end

(* [mag_divmod_small a d] with [0 < d < 2^26]. *)
let mag_divmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (mag_normalize q, !r)

(* Bit-by-bit long division; only used for parameter-setup paths. *)
let mag_divmod a b =
  if Array.length b = 0 then raise Division_by_zero;
  let c = mag_compare a b in
  if c < 0 then ([||], a)
  else if Array.length b = 1 then begin
    let q, r = mag_divmod_small a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else begin
    let nb = mag_num_bits a in
    let qlimbs = Array.make (Array.length a) 0 in
    let r = ref [||] in
    for i = nb - 1 downto 0 do
      r := mag_shift_left !r 1;
      if mag_bit a i then
        r := (if Array.length !r = 0 then [| 1 |]
              else begin
                let r' = Array.copy !r in
                r'.(0) <- r'.(0) lor 1; r'
              end);
      if mag_compare !r b >= 0 then begin
        r := mag_sub !r b;
        qlimbs.(i / limb_bits) <- qlimbs.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (mag_normalize qlimbs, !r)
  end

(* ------------------------------------------------------------------ *)
(* Signed interface                                                     *)

let mk sign mag =
  let mag = mag_normalize mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n < 0 then -1 else 1 in
    let v = abs n in
    let rec limbs v = if v = 0 then [] else (v land limb_mask) :: limbs (v lsr limb_bits) in
    { sign; mag = Array.of_list (limbs v) }
  end

let one = of_int 1
let two = of_int 2

let to_int_opt n =
  if mag_num_bits n.mag > 62 then None
  else begin
    let v = Array.fold_right (fun limb acc -> (acc lsl limb_bits) lor limb) n.mag 0 in
    Some (n.sign * v)
  end

let sign n = if is_zero n then 0 else n.sign

let neg n = if is_zero n then zero else { n with sign = -n.sign }
let abs n = { n with sign = 1 }

let compare a b =
  match sign a, sign b with
  | sa, sb when sa <> sb -> Stdlib.compare sa sb
  | 0, _ -> 0
  | s, _ -> s * mag_compare a.mag b.mag

let equal a b = compare a b = 0
let lt a b = compare a b < 0
let le a b = compare a b <= 0
let gt a b = compare a b > 0
let ge a b = compare a b >= 0
let min a b = if le a b then a else b
let max a b = if ge a b then a else b

let add a b =
  if is_zero a then b
  else if is_zero b then a
  else if a.sign = b.sign then mk a.sign (mag_add a.mag b.mag)
  else begin
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then mk a.sign (mag_sub a.mag b.mag)
    else mk b.sign (mag_sub b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if is_zero a || is_zero b then zero
  else mk (a.sign * b.sign) (mag_mul a.mag b.mag)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  let qm, rm = mag_divmod a.mag b.mag in
  (mk (a.sign * b.sign) qm, mk a.sign rm)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let erem a b =
  let r = rem a b in
  if sign r < 0 then add r (abs b) else r

let shift_left a k = if k < 0 then invalid_arg "Bigint.shift_left" else mk a.sign (mag_shift_left a.mag k)
let shift_right a k = if k < 0 then invalid_arg "Bigint.shift_right" else mk a.sign (mag_shift_right a.mag k)

let bit a i = mag_bit a.mag i

let bits a ~pos ~len =
  if pos < 0 || len < 0 || len > 62 then invalid_arg "Bigint.bits";
  mag_bits a.mag pos len

let num_bits a = mag_num_bits a.mag
let is_even a = not (bit a 0)

let pow base e =
  if e < 0 then invalid_arg "Bigint.pow";
  let rec go acc base e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (e lsr 1)
    end
  in
  go one base e

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let mod_inverse a m =
  (* extended Euclid on (a mod m, m) *)
  let a = erem a m in
  let rec go old_r r old_s s =
    if is_zero r then (old_r, old_s)
    else begin
      let q = div old_r r in
      go r (sub old_r (mul q r)) s (sub old_s (mul q s))
    end
  in
  let g, x = go a m one zero in
  if not (equal g one) then invalid_arg "Bigint.mod_inverse: not coprime";
  erem x m

let mod_pow base e m =
  if sign e < 0 then invalid_arg "Bigint.mod_pow";
  let base = erem base m in
  let nb = num_bits e in
  let acc = ref (erem one m) in
  for i = nb - 1 downto 0 do
    acc := erem (mul !acc !acc) m;
    if bit e i then acc := erem (mul !acc base) m
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Conversions                                                          *)

let ten_pow7 = 10_000_000

let of_decimal s start =
  let acc = ref zero in
  let chunk = ref 0 and chunk_len = ref 0 in
  let flush () =
    if !chunk_len > 0 then begin
      let scale = of_int (int_of_float (10. ** float_of_int !chunk_len)) in
      acc := add (mul !acc scale) (of_int !chunk);
      chunk := 0; chunk_len := 0
    end
  in
  for i = start to String.length s - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string";
    chunk := (!chunk * 10) + (Char.code c - Char.code '0');
    incr chunk_len;
    if !chunk_len = 7 then flush ()
  done;
  flush ();
  !acc

let of_hex_body s start =
  let acc = ref zero in
  for i = start to String.length s - 1 do
    let c = Char.lowercase_ascii s.[i] in
    let v =
      if c >= '0' && c <= '9' then Char.code c - Char.code '0'
      else if c >= 'a' && c <= 'f' then 10 + Char.code c - Char.code 'a'
      else invalid_arg "Bigint.of_string: bad hex digit"
    in
    acc := add (shift_left !acc 4) (of_int v)
  done;
  !acc

let of_string s =
  if String.length s = 0 then invalid_arg "Bigint.of_string: empty";
  let negv, start = if s.[0] = '-' then (true, 1) else (false, 0) in
  if String.length s - start = 0 then invalid_arg "Bigint.of_string: empty";
  let v =
    if String.length s - start > 2 && s.[start] = '0' && (s.[start + 1] = 'x' || s.[start + 1] = 'X')
    then of_hex_body s (start + 2)
    else of_decimal s start
  in
  if negv then neg v else v

let to_string n =
  if is_zero n then "0"
  else begin
    let buf = Buffer.create 64 in
    let rec go m acc =
      if Array.length m = 0 then acc
      else begin
        let q, r = mag_divmod_small m ten_pow7 in
        go q (r :: acc)
      end
    in
    let chunks = go n.mag [] in
    if n.sign < 0 then Buffer.add_char buf '-';
    (match chunks with
     | [] -> ()
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%07d" c)) rest);
    Buffer.contents buf
  end

let to_hex n =
  if is_zero n then "0x0"
  else begin
    let buf = Buffer.create 64 in
    if n.sign < 0 then Buffer.add_char buf '-';
    Buffer.add_string buf "0x";
    let nb = num_bits n in
    let nibbles = (nb + 3) / 4 in
    let started = ref false in
    for i = nibbles - 1 downto 0 do
      let v =
        (if bit n ((4 * i) + 3) then 8 else 0)
        + (if bit n ((4 * i) + 2) then 4 else 0)
        + (if bit n ((4 * i) + 1) then 2 else 0)
        + (if bit n (4 * i) then 1 else 0)
      in
      if v <> 0 || !started then begin
        started := true;
        Buffer.add_char buf "0123456789abcdef".[v]
      end
    done;
    Buffer.contents buf
  end

let to_bytes_be n len =
  let nb = num_bits n in
  if nb > 8 * len then invalid_arg "Bigint.to_bytes_be: value too large";
  let b = Bytes.make len '\000' in
  for i = 0 to len - 1 do
    let byte = ref 0 in
    for j = 7 downto 0 do
      byte := (!byte lsl 1) lor (if bit n ((8 * i) + j) then 1 else 0)
    done;
    Bytes.set b (len - 1 - i) (Char.chr !byte)
  done;
  b

let of_bytes_be b =
  let acc = ref zero in
  Bytes.iter (fun c -> acc := add (shift_left !acc 8) (of_int (Char.code c))) b;
  !acc

let random st bound =
  if le bound zero then invalid_arg "Bigint.random: bound must be positive";
  let nb = num_bits bound in
  let nlimbs = ((nb + limb_bits - 1) / limb_bits) in
  let rec draw () =
    let mag = Array.init nlimbs (fun _ -> Random.State.int st limb_base) in
    (* mask the top limb so the rejection rate stays below 1/2 *)
    let top_bits = nb - ((nlimbs - 1) * limb_bits) in
    mag.(nlimbs - 1) <- mag.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    let v = mk 1 mag in
    if lt v bound then v else draw ()
  in
  draw ()

let pp fmt n = Format.pp_print_string fmt (to_string n)
