module Fr = Zkvc_field.Fr
module Tm = Zkvc_gkr.Thaler_matmul
module Spec = Zkvc.Matmul_spec.Make (Fr)

let st = Random.State.make [| 1337 |]
let check_bool = Alcotest.(check bool)

let rand rows cols = Spec.random_matrix st ~rows ~cols ~bound:1000

let tests =
  [ Alcotest.test_case "complete on power-of-two dims" `Quick (fun () ->
        let a = rand 4 8 and b = rand 8 4 in
        let c = Spec.multiply a b in
        let proof = Tm.prove ~a ~b in
        check_bool "verifies" true (Tm.verify ~a ~b ~c proof);
        check_bool "positive size" true (Tm.proof_size_bytes proof > 0));
    Alcotest.test_case "complete on padded (non-pow2) dims" `Quick (fun () ->
        (* the paper's embedding-layer shape at 1/7 scale: [7,9]x[9,18] *)
        let a = rand 7 9 and b = rand 9 18 in
        let c = Spec.multiply a b in
        let proof = Tm.prove ~a ~b in
        check_bool "verifies" true (Tm.verify ~a ~b ~c proof));
    Alcotest.test_case "wrong product rejected" `Quick (fun () ->
        let a = rand 4 4 and b = rand 4 4 in
        let c = Spec.multiply a b in
        let proof = Tm.prove ~a ~b in
        let c_bad = Array.map Array.copy c in
        c_bad.(2).(1) <- Fr.add c_bad.(2).(1) Fr.one;
        check_bool "rejected" false (Tm.verify ~a ~b ~c:c_bad proof));
    Alcotest.test_case "wrong inputs rejected" `Quick (fun () ->
        let a = rand 4 4 and b = rand 4 4 in
        let c = Spec.multiply a b in
        let proof = Tm.prove ~a ~b in
        let a_bad = Array.map Array.copy a in
        a_bad.(0).(0) <- Fr.add a_bad.(0).(0) Fr.one;
        check_bool "rejected" false (Tm.verify ~a:a_bad ~b ~c proof));
    Alcotest.test_case "proof size is logarithmic" `Quick (fun () ->
        (* doubling the inner dimension adds one sumcheck round (3 field
           elements), unlike the constraint-based schemes *)
        let p1 = Tm.prove ~a:(rand 4 8) ~b:(rand 8 4) in
        let p2 = Tm.prove ~a:(rand 4 16) ~b:(rand 16 4) in
        Alcotest.(check int) "one extra round = 96 bytes"
          (Tm.proof_size_bytes p1 + 96)
          (Tm.proof_size_bytes p2));
    Alcotest.test_case "dimension mismatch raises" `Quick (fun () ->
        check_bool "raises" true
          (match Tm.prove ~a:(rand 4 5) ~b:(rand 6 4) with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "golden proof bytes" `Quick (fun () ->
        (* taken from the generic closure-driven sumcheck prover, before
           the product kernel *)
        let rng = Random.State.make [| 2024; 5 |] in
        let a = Spec.random_matrix rng ~rows:5 ~cols:12 ~bound:1000 in
        let b = Spec.random_matrix rng ~rows:12 ~cols:6 ~bound:1000 in
        let proof = Tm.prove ~a ~b in
        check_bool "verifies" true (Tm.verify ~a ~b ~c:(Spec.multiply a b) proof);
        Alcotest.(check int) "encoded size" (Tm.proof_size_bytes proof)
          (Bytes.length (Tm.proof_to_bytes proof));
        Alcotest.(check string) "sha256" "54c6a9864b4cde70006c6c98115158fa02efe9afd25e90fce4167a4715d26720"
          Zkvc_hash.Sha256.(to_hex (digest (Tm.proof_to_bytes proof)))) ]

let () = Alcotest.run "zkvc_gkr" [ ("thaler-matmul", tests) ]
