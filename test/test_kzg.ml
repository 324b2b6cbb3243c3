module Fr = Zkvc_field.Fr
module G1 = Zkvc_curve.G1
module Kzg = Zkvc_kzg.Kzg
module P = Zkvc_poly.Dense_poly.Make (Fr)
module Mc = Zkvc.Matmul_circuit
module Mcf = Mc.Make (Fr)
module Spec = Zkvc.Matmul_spec.Make (Fr)
module Mspec = Zkvc.Matmul_spec
module Bld = Zkvc_r1cs.Builder.Make (Fr)
module Cs = Zkvc_r1cs.Constraint_system.Make (Fr)

let st = Random.State.make [| 424242 |]
let check_bool = Alcotest.(check bool)
let srs = Kzg.setup st ~degree:64

let tests =
  [ Alcotest.test_case "commit/open/verify roundtrip" `Quick (fun () ->
        for _ = 1 to 5 do
          let p = P.random st ~degree:(Random.State.int st 60) in
          let c = Kzg.commit srs p in
          let z = Fr.random st in
          let opening = Kzg.open_at srs p z in
          check_bool "value correct" true (Fr.equal opening.Kzg.value (P.eval p z));
          check_bool "verifies" true (Kzg.verify srs c opening)
        done);
    Alcotest.test_case "wrong value rejected" `Quick (fun () ->
        let p = P.random st ~degree:10 in
        let c = Kzg.commit srs p in
        let opening = Kzg.open_at srs p (Fr.of_int 7) in
        let bad = { opening with Kzg.value = Fr.add opening.Kzg.value Fr.one } in
        check_bool "rejected" false (Kzg.verify srs c bad));
    Alcotest.test_case "wrong commitment rejected" `Quick (fun () ->
        let p = P.random st ~degree:10 and q = P.random st ~degree:10 in
        let cq = Kzg.commit srs q in
        let opening = Kzg.open_at srs p (Fr.of_int 9) in
        check_bool "rejected" false (Kzg.verify srs cq opening));
    Alcotest.test_case "zero polynomial and constants" `Quick (fun () ->
        let c = Kzg.commit srs P.zero in
        check_bool "zero commits to O" true (G1.is_zero c);
        let p = P.constant (Fr.of_int 42) in
        let c = Kzg.commit srs p in
        let opening = Kzg.open_at srs p (Fr.of_int 5) in
        check_bool "constant verifies" true (Kzg.verify srs c opening);
        check_bool "constant value" true (Fr.equal opening.Kzg.value (Fr.of_int 42)));
    Alcotest.test_case "degree bound enforced" `Quick (fun () ->
        check_bool "raises" true
          (match Kzg.commit srs (P.random st ~degree:100) with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "committed-weight CRPC flow" `Quick (fun () ->
        (* the deployment flow: W committed once (KZG), per-inference
           challenge bound to that commitment + public X, Y *)
        let d = Mspec.dims ~a:3 ~n:4 ~b:3 in
        let x = Spec.random_matrix st ~rows:3 ~cols:4 ~bound:50 in
        let w = Spec.random_matrix st ~rows:4 ~cols:3 ~bound:50 in
        let y = Spec.multiply x w in
        let w_comm = Kzg.commit_matrix srs w in
        let challenge = Kzg.derive_challenge w_comm ~x ~y in
        let b = Bld.create () in
        let _ = Mcf.build b Mc.Crpc_psq ~challenge ~x ~w ~y d in
        let cs, assignment = Bld.finalize b in
        Cs.check_satisfied cs assignment;
        (* different W (hence different commitment) gives a different
           challenge: the commitment binds the weights *)
        let w2 = Spec.random_matrix st ~rows:4 ~cols:3 ~bound:50 in
        let w_comm2 = Kzg.commit_matrix srs w2 in
        check_bool "challenge bound to W" false
          (Fr.equal challenge (Kzg.derive_challenge w_comm2 ~x ~y))) ]

let () = Alcotest.run "zkvc_kzg" [ ("kzg", tests) ]
