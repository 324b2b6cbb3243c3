module B = Zkvc_num.Bigint

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let b = B.of_string

(* ------------------------------------------------------------------ *)
(* Unit tests on known values                                           *)

let test_roundtrip_decimal () =
  let cases =
    [ "0"; "1"; "-1"; "42"; "-42"; "67108864" (* 2^26 *); "67108863";
      "18446744073709551616" (* 2^64 *);
      "21888242871839275222246405745257275088548364400416034343698204186575808495617";
      "-123456789012345678901234567890123456789012345678901234567890" ]
  in
  List.iter (fun s -> check_str s s (B.to_string (b s))) cases

let test_hex () =
  check_str "hex of 255" "0xff" (B.to_hex (B.of_int 255));
  check_str "hex parse" "255" (B.to_string (b "0xff"));
  check_str "hex parse big" "18446744073709551615" (B.to_string (b "0xffffffffffffffff"));
  check_str "neg hex" "-0x10" (B.to_hex (B.of_int (-16)))

let test_add_sub_known () =
  let x = b "99999999999999999999999999999999" in
  let y = b "1" in
  check_str "add" "100000000000000000000000000000000" (B.to_string (B.add x y));
  check_str "sub" "99999999999999999999999999999998" (B.to_string (B.sub x y));
  check_str "sub to neg" "-1" (B.to_string (B.sub y (B.of_int 2)))

let test_mul_known () =
  let x = b "123456789123456789123456789" in
  check_str "square"
    "15241578780673678546105778281054720515622620750190521"
    (B.to_string (B.mul x x))

let test_divmod_known () =
  let a = b "10000000000000000000000000000000000000001" in
  let d = b "333333333333333333333" in
  let q, r = B.divmod a d in
  check_bool "reconstruct" true (B.equal a (B.add (B.mul q d) r));
  check_bool "r < d" true (B.lt r d);
  check_str "q" "30000000000000000000" (B.to_string q);
  (* truncated semantics on negatives, like OCaml's (/) and (mod) *)
  let q, r = B.divmod (B.of_int (-7)) (B.of_int 2) in
  check_int "q trunc" (-3) (Option.get (B.to_int_opt q));
  check_int "r trunc" (-1) (Option.get (B.to_int_opt r));
  check_int "erem" 1 (Option.get (B.to_int_opt (B.erem (B.of_int (-7)) (B.of_int 2))))

let test_div_by_zero () =
  Alcotest.check_raises "divmod by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_shifts () =
  check_str "shl 100" (B.to_string (B.pow B.two 100)) (B.to_string (B.shift_left B.one 100));
  check_str "shr" "1" (B.to_string (B.shift_right (B.shift_left B.one 100) 100));
  check_str "shr to zero" "0" (B.to_string (B.shift_right (B.of_int 5) 3))

let test_bits () =
  let n = b "1025" in
  check_bool "bit0" true (B.bit n 0);
  check_bool "bit1" false (B.bit n 1);
  check_bool "bit10" true (B.bit n 10);
  check_int "num_bits" 11 (B.num_bits n);
  check_int "num_bits zero" 0 (B.num_bits B.zero)

(* the limb-reading extractor against the bit-by-bit definition, at every
   window up to 62 bits wide and every offset past the top limb; 26-bit
   limbs make most of these windows straddle one or two limb boundaries *)
let test_bits_window () =
  let st = Random.State.make [| 26 |] in
  let values =
    [ B.zero;
      B.sub (B.shift_left B.one 262) B.one;
      b "21888242871839275222246405745257275088548364400416034343698204186575808495616";
      B.neg (B.random st (B.shift_left B.one 254));
      B.random st (B.shift_left B.one 300) ]
  in
  let crossing = ref 0 in
  List.iter
    (fun n ->
      for pos = 0 to 320 do
        for len = 0 to 62 do
          let expect = ref 0 in
          for k = len - 1 downto 0 do
            expect := (!expect lsl 1) lor (if B.bit n (pos + k) then 1 else 0)
          done;
          if len > 0 && pos / 26 <> (pos + len - 1) / 26 then incr crossing;
          if B.bits n ~pos ~len <> !expect then
            Alcotest.failf "bits %s ~pos:%d ~len:%d" (B.to_hex n) pos len
        done
      done)
    values;
  check_bool "windows crossing a limb boundary checked" true (!crossing > 10_000);
  List.iter
    (fun (pos, len) ->
      check_bool (Printf.sprintf "pos %d len %d rejected" pos len) true
        (match B.bits B.one ~pos ~len with
         | exception Invalid_argument _ -> true
         | _ -> false))
    [ (-1, 4); (0, -1); (0, 63) ]

let test_pow () =
  check_str "2^200"
    "1606938044258990275541962092341162602522202993782792835301376"
    (B.to_string (B.pow B.two 200));
  check_str "x^0" "1" (B.to_string (B.pow (b "12345") 0))

let test_gcd_inverse () =
  check_str "gcd" "6" (B.to_string (B.gcd (B.of_int 54) (B.of_int 24)));
  let m = b "21888242871839275222246405745257275088548364400416034343698204186575808495617" in
  let a = b "1234567891011121314151617181920" in
  let ainv = B.mod_inverse a m in
  check_str "a * a^-1 mod m" "1" (B.to_string (B.erem (B.mul a ainv) m))

let test_mod_pow () =
  (* Fermat: a^(p-1) = 1 mod p *)
  let p = b "2013265921" in
  check_str "fermat" "1" (B.to_string (B.mod_pow (B.of_int 31) (B.sub p B.one) p));
  check_str "mod_pow small" "445" (B.to_string (B.mod_pow (B.of_int 4) (B.of_int 13) (B.of_int 497)))

let test_bytes () =
  let n = b "1234567890123456789" in
  let bytes = B.to_bytes_be n 32 in
  check_int "len" 32 (Bytes.length bytes);
  check_str "roundtrip" (B.to_string n) (B.to_string (B.of_bytes_be bytes));
  Alcotest.check_raises "too large" (Invalid_argument "Bigint.to_bytes_be: value too large")
    (fun () -> ignore (B.to_bytes_be n 4))

let test_random_bounded () =
  let st = Random.State.make [| 42 |] in
  let bound = b "123456789123456789123456789" in
  for _ = 1 to 100 do
    let v = B.random st bound in
    if not (B.ge v B.zero && B.lt v bound) then Alcotest.fail "random out of range"
  done

(* ------------------------------------------------------------------ *)
(* Property tests: agreement with native int arithmetic                 *)

let int_arb = QCheck.int_range (-1_000_000_000) 1_000_000_000

let prop_of_to_int =
  QCheck.Test.make ~name:"of_int/to_int roundtrip" ~count:500 int_arb (fun n ->
      Option.get (B.to_int_opt (B.of_int n)) = n)

let prop_add_matches_int =
  QCheck.Test.make ~name:"add matches int" ~count:500 (QCheck.pair int_arb int_arb)
    (fun (x, y) -> Option.get (B.to_int_opt (B.add (B.of_int x) (B.of_int y))) = x + y)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"mul matches int" ~count:500 (QCheck.pair int_arb int_arb)
    (fun (x, y) -> Option.get (B.to_int_opt (B.mul (B.of_int x) (B.of_int y))) = x * y)

let prop_divmod_matches_int =
  QCheck.Test.make ~name:"divmod matches int" ~count:500 (QCheck.pair int_arb int_arb)
    (fun (x, y) ->
      QCheck.assume (y <> 0);
      let q, r = B.divmod (B.of_int x) (B.of_int y) in
      Option.get (B.to_int_opt q) = x / y && Option.get (B.to_int_opt r) = x mod y)

let prop_compare_matches_int =
  QCheck.Test.make ~name:"compare matches int" ~count:500 (QCheck.pair int_arb int_arb)
    (fun (x, y) -> Stdlib.compare (B.compare (B.of_int x) (B.of_int y)) 0 = Stdlib.compare (Stdlib.compare x y) 0)

(* Property tests on big operands: algebraic laws *)

let big_arb =
  let gen st =
    let digits = 1 + Random.State.int st 60 in
    let s = String.init digits (fun i ->
        if i = 0 then Char.chr (Char.code '1' + Random.State.int st 9)
        else Char.chr (Char.code '0' + Random.State.int st 10))
    in
    let s = if Random.State.bool st then "-" ^ s else s in
    B.of_string s
  in
  QCheck.make ~print:B.to_string (gen)

let prop_add_assoc =
  QCheck.Test.make ~name:"big add associative" ~count:300 (QCheck.triple big_arb big_arb big_arb)
    (fun (x, y, z) -> B.equal (B.add (B.add x y) z) (B.add x (B.add y z)))

let prop_mul_distrib =
  QCheck.Test.make ~name:"big mul distributes" ~count:300 (QCheck.triple big_arb big_arb big_arb)
    (fun (x, y, z) -> B.equal (B.mul x (B.add y z)) (B.add (B.mul x y) (B.mul x z)))

let prop_divmod_reconstruct =
  QCheck.Test.make ~name:"big divmod reconstructs" ~count:300 (QCheck.pair big_arb big_arb)
    (fun (x, y) ->
      QCheck.assume (not (B.is_zero y));
      let q, r = B.divmod x y in
      B.equal x (B.add (B.mul q y) r) && B.lt (B.abs r) (B.abs y))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"big decimal roundtrip" ~count:300 big_arb
    (fun x -> B.equal x (B.of_string (B.to_string x)))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"big hex roundtrip" ~count:300 big_arb
    (fun x -> B.equal x (B.of_string (B.to_hex x)))

let prop_shift_is_pow2 =
  QCheck.Test.make ~name:"shift_left = mul 2^k" ~count:200
    (QCheck.pair big_arb (QCheck.int_range 0 120))
    (fun (x, s) -> B.equal (B.shift_left x s) (B.mul x (B.pow B.two s)))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [ prop_of_to_int; prop_add_matches_int; prop_mul_matches_int;
        prop_divmod_matches_int; prop_compare_matches_int; prop_add_assoc;
        prop_mul_distrib; prop_divmod_reconstruct; prop_string_roundtrip;
        prop_hex_roundtrip; prop_shift_is_pow2 ]
  in
  Alcotest.run "zkvc_num"
    [ ( "bigint",
        [ Alcotest.test_case "decimal roundtrip" `Quick test_roundtrip_decimal;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "add/sub known" `Quick test_add_sub_known;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "divmod known" `Quick test_divmod_known;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "bits" `Quick test_bits;
          Alcotest.test_case "bits window = bit loop" `Quick test_bits_window;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "gcd/mod_inverse" `Quick test_gcd_inverse;
          Alcotest.test_case "mod_pow" `Quick test_mod_pow;
          Alcotest.test_case "bytes" `Quick test_bytes;
          Alcotest.test_case "random bounded" `Quick test_random_bounded ] );
      ("bigint-properties", qsuite) ]
