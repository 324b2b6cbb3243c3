(** Small NTT-friendly prime field [p = 15 * 2^27 + 1 = 2013265921], with
    primitive root 31. Elements fit native ints, so property-based tests of
    polynomial / R1CS / sumcheck code run orders of magnitude faster here
    than over {!Fr}; every functorised layer is tested against both. *)

module Bigint = Zkvc_num.Bigint

type t = int (* canonical in [0, p) *)

let p = 2013265921
let modulus = Bigint.of_int p
let size_in_bytes = 4

let zero = 0
let one = 1

let of_int n =
  let v = n mod p in
  if v < 0 then v + p else v

let of_bigint n =
  match Bigint.to_int_opt (Bigint.erem n modulus) with
  | Some v -> v
  | None -> assert false

let to_bigint = Bigint.of_int
let of_string s = of_bigint (Bigint.of_string s)
let to_string = string_of_int

let equal = Int.equal
let is_zero a = a = 0
let is_one a = a = 1

let add a b =
  let s = a + b in
  if s >= p then s - p else s

let sub a b =
  let s = a - b in
  if s < 0 then s + p else s

let neg a = if a = 0 then 0 else p - a
let mul a b = a * b mod p
let sqr a = a * a mod p
let double a = add a a

let pow base e =
  if Bigint.sign e < 0 then invalid_arg "Fsmall.pow";
  let nb = Bigint.num_bits e in
  let acc = ref 1 in
  for i = nb - 1 downto 0 do
    acc := sqr !acc;
    if Bigint.bit e i then acc := mul !acc base
  done;
  !acc

let pow_int base e = pow base (Bigint.of_int e)

let inv a = if a = 0 then raise Division_by_zero else pow_int a (p - 2)
let div a b = mul a (inv b)

(* a product of two entries is below p² < 2^62 and the running sum below
   p, so one [mod] per term keeps every intermediate a native int *)
let mat_mul x w =
  let _, n, b = Field_intf.mat_mul_dims x w in
  Array.map
    (fun row ->
      Array.init b (fun j ->
          let acc = ref 0 in
          for t = 0 to n - 1 do
            acc := (!acc + (row.(t) * w.(t).(j))) mod p
          done;
          !acc))
    x

let two_adicity = 27

(* 31 generates the multiplicative group; 31^15 has order exactly 2^27. *)
let two_adic_root = pow_int 31 15

let random st = Random.State.full_int st p

let to_bytes a =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 ((a lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((a lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((a lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (a land 0xff);
  b

let of_bytes_exn b =
  if Bytes.length b <> 4 then invalid_arg "Fsmall.of_bytes_exn: bad length";
  let v =
    (Bytes.get_uint8 b 0 lsl 24)
    lor (Bytes.get_uint8 b 1 lsl 16)
    lor (Bytes.get_uint8 b 2 lsl 8)
    lor Bytes.get_uint8 b 3
  in
  if v >= p then invalid_arg "Fsmall.of_bytes_exn: not canonical";
  v

let pp fmt a = Format.pp_print_int fmt a
