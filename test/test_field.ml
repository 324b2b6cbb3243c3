module B = Zkvc_num.Bigint

(* Generic field law suite, instantiated for Fr, Fq and Fsmall. *)
module Make_suite (F : Zkvc_field.Field_intf.S) (Name : sig
  val name : string
end) =
struct
  let st = Random.State.make [| 7; 11; 13 |]

  let arb =
    let gen _ = F.random st in
    QCheck.make ~print:F.to_string (gen)

  let t name f = QCheck.Test.make ~name:(Name.name ^ ": " ^ name) ~count:200 arb f
  let t2 name f = QCheck.Test.make ~name:(Name.name ^ ": " ^ name) ~count:200 (QCheck.pair arb arb) f
  let t3 name f = QCheck.Test.make ~name:(Name.name ^ ": " ^ name) ~count:200 (QCheck.triple arb arb arb) f

  let props =
    [ t2 "add commutative" (fun (x, y) -> F.equal (F.add x y) (F.add y x));
      t3 "add associative" (fun (x, y, z) -> F.equal (F.add (F.add x y) z) (F.add x (F.add y z)));
      t "add zero" (fun x -> F.equal (F.add x F.zero) x);
      t "sub self" (fun x -> F.is_zero (F.sub x x));
      t "neg" (fun x -> F.is_zero (F.add x (F.neg x)));
      t2 "mul commutative" (fun (x, y) -> F.equal (F.mul x y) (F.mul y x));
      t3 "mul associative" (fun (x, y, z) -> F.equal (F.mul (F.mul x y) z) (F.mul x (F.mul y z)));
      t "mul one" (fun x -> F.equal (F.mul x F.one) x);
      t3 "distributivity" (fun (x, y, z) ->
          F.equal (F.mul x (F.add y z)) (F.add (F.mul x y) (F.mul x z)));
      t "sqr = mul self" (fun x -> F.equal (F.sqr x) (F.mul x x));
      t "double = add self" (fun x -> F.equal (F.double x) (F.add x x));
      t "inverse" (fun x -> F.is_zero x || F.is_one (F.mul x (F.inv x)));
      t2 "div" (fun (x, y) -> F.is_zero y || F.equal (F.mul (F.div x y) y) x);
      t "bigint roundtrip" (fun x -> F.equal x (F.of_bigint (F.to_bigint x)));
      t "string roundtrip" (fun x -> F.equal x (F.of_string (F.to_string x)));
      t "bytes roundtrip" (fun x -> F.equal x (F.of_bytes_exn (F.to_bytes x)));
      t "canonical range" (fun x ->
          let n = F.to_bigint x in
          B.ge n B.zero && B.lt n F.modulus);
      t "fermat little" (fun x ->
          F.is_zero x || F.is_one (F.pow x (B.sub F.modulus B.one)));
      t "pow matches repeated mul" (fun x ->
          let rec naive acc i = if i = 0 then acc else naive (F.mul acc x) (i - 1) in
          F.equal (F.pow_int x 13) (naive F.one 13));
      t2 "mul matches bigint" (fun (x, y) ->
          B.equal
            (F.to_bigint (F.mul x y))
            (B.erem (B.mul (F.to_bigint x) (F.to_bigint y)) F.modulus));
      t2 "add matches bigint" (fun (x, y) ->
          B.equal
            (F.to_bigint (F.add x y))
            (B.erem (B.add (F.to_bigint x) (F.to_bigint y)) F.modulus));
      t "to_bytes matches bigint" (fun x ->
          Bytes.equal (F.to_bytes x) (B.to_bytes_be (F.to_bigint x) F.size_in_bytes));
      QCheck.Test.make ~name:(Name.name ^ ": challenge reduction matches bigint") ~count:200
        QCheck.(string_of_size (Gen.int_bound 80))
        (fun s ->
          let module Ch = Zkvc_transcript.Transcript.Challenge (F) in
          let b = Bytes.of_string s in
          F.equal (Ch.of_bytes_wide b) (F.of_bigint (B.of_bytes_be b))) ]

  (* Edge operands for the multiply, checked against the Bigint reference
     x·y mod p: 0, 1, p−1, p−2, 2^26−1 and 2^(26(k−1)) (k = number of
     26-bit limbs of p), and (p−1) times each. Every value v also appears
     as v·R⁻¹ mod p (R = 2^(26k)), whose Montgomery limbs are v's own, so
     the kernel sees the same extremes as raw limbs. *)
  let edge_operands =
    let p = F.modulus in
    let k = (B.num_bits p + 25) / 26 in
    let pm1 = B.sub p B.one in
    let base =
      [ B.zero; B.one; pm1; B.sub p B.two;
        B.sub (B.shift_left B.one 26) B.one;
        B.shift_left B.one (26 * (k - 1)) ]
    in
    let base = base @ List.map (fun v -> B.erem (B.mul pm1 v) p) base in
    let r_inv = F.to_bigint (F.inv (F.of_bigint (B.shift_left B.one (26 * k)))) in
    base @ List.map (fun v -> B.erem (B.mul v r_inv) p) base

  let test_mul_edges () =
    let p = F.modulus in
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            let got = F.to_bigint (F.mul (F.of_bigint x) (F.of_bigint y)) in
            let want = B.erem (B.mul x y) p in
            if not (B.equal got want) then
              Alcotest.failf "%s * %s: got %s, want %s" (B.to_string x) (B.to_string y)
                (B.to_string got) (B.to_string want))
          edge_operands;
        Alcotest.(check bool) "to_bytes" true
          (Bytes.equal
             (F.to_bytes (F.of_bigint x))
             (B.to_bytes_be (B.erem x p) F.size_in_bytes)))
      edge_operands

  (* mat_mul against the per-term oracle. Each entry is drawn from the
     edges 0, 1 and p−1, small values (below 2^7, one limb), full-width
     random values and 2^(26(k−1)) − 1, whose k−1 low limbs are all ones
     (the largest limb products a column can take), so one row mixes limb
     lengths; the inner dimensions sit either side of the kernel's
     64-term carry interval. *)
  module Oracle = Matmul_oracle.Make (F)

  let low_limbs_full =
    let k = (B.num_bits F.modulus + 25) / 26 in
    F.of_bigint (B.sub (B.shift_left B.one (26 * (k - 1))) B.one)

  let mat_mul_agrees x w =
    let got = F.mat_mul x w and want = Oracle.multiply x w in
    Array.length got = Array.length want && Array.for_all2 (Array.for_all2 F.equal) got want

  let mat_mul_entry rng =
    match Random.State.int rng 6 with
    | 0 -> F.zero
    | 1 -> F.one
    | 2 -> F.neg F.one
    | 3 -> F.of_int (Random.State.int rng 128)
    | 4 -> low_limbs_full
    | _ -> F.random rng

  let mat_mul_prop =
    QCheck.Test.make ~name:(Name.name ^ ": mat_mul matches the oracle") ~count:60
      QCheck.(
        quad (int_range 1 3) (oneofl [ 1; 2; 63; 64; 65; 200 ]) (int_range 1 3)
          (int_bound 1_000_000))
      (fun (a, n, b, seed) ->
        let rng = Random.State.make [| seed |] in
        let matrix rows cols =
          Array.init rows (fun _ -> Array.init cols (fun _ -> mat_mul_entry rng))
        in
        let x = matrix a n in
        mat_mul_agrees x (matrix n b))

  let test_mat_mul_edges () =
    let col n v = Array.init n (fun _ -> [| v |]) in
    let pm1 = F.neg F.one in
    List.iter
      (fun (what, x, w) -> Alcotest.(check bool) what true (mat_mul_agrees x w))
      [ (* past the 4096-term Montgomery chunk at 254 bits; 8200 terms of
           (p−1)² sum past R² = 2^520 for Fr and Fq, so one chunk of them
           would overflow *)
        ("1x8200x1 of p-1", [| Array.make 8200 pm1 |], col 8200 pm1);
        ( "1x4100x1 mixed",
          (let rng = Random.State.make [| 4100 |] in
           [| Array.init 4100 (fun _ -> mat_mul_entry rng) |]),
          col 4100 (F.of_int 127) );
        ("64 terms of p-1", [| Array.make 64 pm1; Array.make 64 F.one |], col 64 pm1);
        ("300 terms of full low limbs", [| Array.make 300 low_limbs_full |], col 300 low_limbs_full)
      ];
    Alcotest.check_raises "ragged" (Invalid_argument "mat_mul: dimensions") (fun () ->
        ignore (F.mat_mul [| [| F.one; F.one |] |] [| [| F.one |] |]));
    Alcotest.check_raises "empty inner" (Invalid_argument "mat_mul: empty inner dimension")
      (fun () -> ignore (F.mat_mul [| [||] |] [||]))

  module Sqrt = Zkvc_field.Sqrt.Make (F)

  let sqrt_props =
    [ t "sqrt of square" (fun x ->
          let sq = F.sqr x in
          match Sqrt.sqrt sq with
          | None -> false
          | Some r -> F.equal (F.sqr r) sq);
      t "is_square consistent" (fun x ->
          Sqrt.is_square (F.sqr x)
          && (match Sqrt.sqrt x with
              | Some r -> Sqrt.is_square x && F.equal (F.sqr r) x
              | None -> not (Sqrt.is_square x))) ]

  let unit_tests =
    [ Alcotest.test_case "constants" `Quick (fun () ->
          Alcotest.(check bool) "zero" true (F.is_zero F.zero);
          Alcotest.(check bool) "one" true (F.is_one F.one);
          Alcotest.(check bool) "one <> zero" false (F.equal F.one F.zero);
          Alcotest.(check string) "of_int 5" "5" (F.to_string (F.of_int 5));
          Alcotest.(check string) "of_int -1"
            (B.to_string (B.sub F.modulus B.one))
            (F.to_string (F.of_int (-1))));
      Alcotest.test_case "two-adic root order" `Quick (fun () ->
          let s = F.two_adicity in
          Alcotest.(check bool) "adicity >= 1" true (s >= 1);
          let w = F.two_adic_root in
          let pow2 k = F.pow w (B.shift_left B.one k) in
          Alcotest.(check bool) "w^(2^s) = 1" true (F.is_one (pow2 s));
          Alcotest.(check bool) "w^(2^(s-1)) <> 1" true (not (F.is_one (pow2 (s - 1)))));
      Alcotest.test_case "inv zero raises" `Quick (fun () ->
          Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (F.inv F.zero)));
      Alcotest.test_case "mul on edge operands matches bigint" `Quick test_mul_edges;
      Alcotest.test_case "mat_mul on edge shapes matches the oracle" `Quick test_mat_mul_edges;
      Alcotest.test_case "of_bytes_exn matches bigint on edge encodings" `Quick (fun () ->
          (* the decoder accepts exactly the big-endian values below p and
             returns them: 0, p − 1, p, p + 1, all-0xff, and random byte
             strings, most of them ≥ p for these moduli *)
          let n = F.size_in_bytes in
          let p = F.modulus in
          let enc v = B.to_bytes_be v n in
          let rng = Random.State.make [| 5; 8 |] in
          let random_bytes () = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
          List.iter
            (fun b ->
              let v = B.of_bytes_be b in
              match F.of_bytes_exn b with
              | x ->
                Alcotest.(check bool) "value below p decoded to itself" true
                  (B.lt v p && B.equal (F.to_bigint x) v)
              | exception Invalid_argument _ ->
                Alcotest.(check bool) "rejected value is at least p" true (B.ge v p))
            ([ enc B.zero; enc (B.sub p B.one); enc p; enc (B.add p B.one);
               Bytes.make n '\255' ]
             @ List.init 64 (fun _ -> random_bytes ())));
      Alcotest.test_case "challenge reduction matches bigint on edge halves" `Quick (fun () ->
          (* Transcript challenges reduce 64 hash bytes; halves at or above
             p, all-0xff and short or empty inputs reduce like the Bigint
             path B.of_bytes_be mod p *)
          let module Ch = Zkvc_transcript.Transcript.Challenge (F) in
          let p = F.modulus in
          let rng = Random.State.make [| 5; 9 |] in
          let random_bytes n = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
          let half v = B.to_bytes_be v 32 in
          let halves =
            [ half B.zero; half (B.sub p B.one); half p; half (B.add p B.one);
              Bytes.make 32 '\255'; random_bytes 32 ]
          in
          let inputs =
            List.concat_map (fun hi -> List.map (fun lo -> Bytes.cat hi lo) halves) halves
            @ [ Bytes.empty; random_bytes 1 ]
          in
          List.iter
            (fun b ->
              Alcotest.(check bool) "same element" true
                (F.equal (Ch.of_bytes_wide b) (F.of_bigint (B.of_bytes_be b))))
            inputs) ]

  let suite =
    ( Name.name,
      unit_tests @ List.map QCheck_alcotest.to_alcotest (props @ sqrt_props @ [ mat_mul_prop ]) )
end

module Fr_suite = Make_suite (Zkvc_field.Fr) (struct let name = "Fr" end)
module Fq_suite = Make_suite (Zkvc_field.Fq) (struct let name = "Fq" end)
module Fsmall_suite = Make_suite (Zkvc_field.Fsmall) (struct let name = "Fsmall" end)

module Fr = Zkvc_field.Fr
module Fr_batch = Zkvc_field.Batch.Make (Fr)

let batch_tests =
  let st = Random.State.make [| 3; 1; 4 |] in
  (* (length, zero mask) — masks include all-zero and no-zero extremes *)
  let arb =
    QCheck.make
      ~print:(fun (n, mask) ->
        Printf.sprintf "n=%d mask=%s" n
          (String.concat "" (List.map (fun b -> if b then "0" else "x") mask)))
      QCheck.Gen.(
        1 -- 40 >>= fun n ->
        list_repeat n (frequency [ (3, return false); (1, return true) ]) >>= fun mask ->
        return (n, mask))
  in
  let qcheck_zeros =
    QCheck.Test.make ~name:"invert_all skips zeros, inverts the rest" ~count:300 arb
      (fun (n, mask) ->
        let mask = Array.of_list mask in
        let a =
          Array.init n (fun i ->
              if mask.(i) then Fr.zero
              else
                let rec nz () =
                  let x = Fr.random st in
                  if Fr.is_zero x then nz () else x
                in
                nz ())
        in
        let orig = Array.copy a in
        Fr_batch.invert_all a;
        Array.for_all2
          (fun x y ->
            if Fr.is_zero x then Fr.is_zero y else Fr.is_one (Fr.mul x y))
          orig a)
  in
  [ Alcotest.test_case "invert_all: all zeros is a no-op" `Quick (fun () ->
        let a = Array.make 5 Fr.zero in
        Fr_batch.invert_all a;
        Alcotest.(check bool) "all zero" true (Array.for_all Fr.is_zero a));
    Alcotest.test_case "invert_all: zero in first and last slot" `Quick (fun () ->
        let x = Fr.of_int 7 in
        let a = [| Fr.zero; x; Fr.zero |] in
        Fr_batch.invert_all a;
        Alcotest.(check bool) "a.(0)" true (Fr.is_zero a.(0));
        Alcotest.(check bool) "a.(1)" true (Fr.is_one (Fr.mul a.(1) x));
        Alcotest.(check bool) "a.(2)" true (Fr.is_zero a.(2)));
    Alcotest.test_case "invert_all: empty array" `Quick (fun () ->
        let a = [||] in
        Fr_batch.invert_all a;
        Alcotest.(check int) "len" 0 (Array.length a));
    QCheck_alcotest.to_alcotest qcheck_zeros ]

let known_value_tests =
  [ Alcotest.test_case "Fr modulus bits" `Quick (fun () ->
        Alcotest.(check int) "254" 254 (B.num_bits Zkvc_field.Fr.modulus);
        Alcotest.(check int) "bytes" 32 Zkvc_field.Fr.size_in_bytes);
    Alcotest.test_case "Fq modulus bits" `Quick (fun () ->
        Alcotest.(check int) "254" 254 (B.num_bits Zkvc_field.Fq.modulus));
    Alcotest.test_case "Fr two-adicity is 28" `Quick (fun () ->
        Alcotest.(check int) "28" 28 Zkvc_field.Fr.two_adicity);
    Alcotest.test_case "Fsmall two-adicity is 27" `Quick (fun () ->
        Alcotest.(check int) "27" 27 Zkvc_field.Fsmall.two_adicity);
    Alcotest.test_case "Fr known product" `Quick (fun () ->
        (* (r-1) * (r-1) mod r = 1 *)
        let m1 = Zkvc_field.Fr.of_int (-1) in
        Alcotest.(check bool) "(-1)^2 = 1" true Zkvc_field.Fr.(is_one (mul m1 m1)));
    Alcotest.test_case "cross-check Fr mul vs bigint on fixed values" `Quick (fun () ->
        let x = Zkvc_field.Fr.of_string "123456789123456789123456789123456789" in
        let y = Zkvc_field.Fr.of_string "987654321987654321987654321987654321" in
        let expect =
          B.erem
            (B.mul (B.of_string "123456789123456789123456789123456789")
               (B.of_string "987654321987654321987654321987654321"))
            Zkvc_field.Fr.modulus
        in
        Alcotest.(check string) "product" (B.to_string expect)
          Zkvc_field.Fr.(to_string (mul x y))) ]

let () =
  Alcotest.run "zkvc_field"
    [ Fr_suite.suite;
      Fq_suite.suite;
      Fsmall_suite.suite;
      ("known-values", known_value_tests);
      ("batch-inversion", batch_tests) ]
