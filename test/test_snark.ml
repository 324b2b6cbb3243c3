(* End-to-end QAP + Groth16 tests: completeness, soundness against
   tampering, and the QAP divisibility identity. *)

module Fr = Zkvc_field.Fr
module G1 = Zkvc_curve.G1
module G2 = Zkvc_curve.G2
module Groth16 = Zkvc_groth16.Groth16
module Qap = Groth16.Qap
module L = Zkvc_r1cs.Lc.Make (Fr)
module Bld = Zkvc_r1cs.Builder.Make (Fr)
module G = Zkvc_r1cs.Gadgets.Make (Fr)

let st = Random.State.make [| 31337 |]
let check_bool = Alcotest.(check bool)

(* knowledge of x with x^3 + x + 5 = out (the classic example circuit) *)
let cubic_circuit x =
  let b = Bld.create () in
  let xv = Bld.alloc b (Fr.of_int x) in
  let x2 = G.mul b (L.of_var xv) (L.of_var xv) in
  let x3 = G.mul b (L.of_var x2) (L.of_var xv) in
  let out_val = Fr.add (Fr.add (Bld.value b x3) (Fr.of_int x)) (Fr.of_int 5) in
  let out = Bld.alloc_input b out_val in
  G.assert_equal b (L.of_var out)
    (L.add (L.add (L.of_var x3) (L.of_var xv)) (L.constant (Fr.of_int 5)));
  (b, out_val)

(* ---------------- QAP-level tests over the small field ---------------- *)

module Sq = Zkvc_qap.Qap.Make (Zkvc_field.Fsmall)
module Sbld = Zkvc_r1cs.Builder.Make (Zkvc_field.Fsmall)
module Sg = Zkvc_r1cs.Gadgets.Make (Zkvc_field.Fsmall)
module Sl = Zkvc_r1cs.Lc.Make (Zkvc_field.Fsmall)
module Scs = Zkvc_r1cs.Constraint_system.Make (Zkvc_field.Fsmall)

let small_circuit () =
  let module F = Zkvc_field.Fsmall in
  let b = Sbld.create () in
  let xs = Array.init 10 (fun i -> Sbld.alloc b (F.of_int (i + 2))) in
  let acc = ref (Sl.of_var xs.(0)) in
  for i = 1 to 9 do
    acc := Sl.of_var (Sg.mul b !acc (Sl.of_var xs.(i)))
  done;
  let out = Sbld.alloc_input b (Sbld.eval b !acc) in
  Sg.assert_equal b (Sl.of_var out) !acc;
  Sbld.finalize b

let qap_tests =
  let module F = Zkvc_field.Fsmall in
  [ Alcotest.test_case "divisibility identity" `Quick (fun () ->
        let cs, assignment = small_circuit () in
        Scs.check_satisfied cs assignment;
        let qap = Sq.create cs in
        for _ = 1 to 5 do
          let tau = F.random st in
          check_bool "A·B - C = h·Z at random tau" true
            (Sq.divisibility_holds qap assignment tau)
        done);
    Alcotest.test_case "divisibility fails on bad witness" `Quick (fun () ->
        let cs, assignment = small_circuit () in
        let qap = Sq.create cs in
        let bad = Array.copy assignment in
        bad.(3) <- F.add bad.(3) F.one;
        (* With an unsatisfying witness, (AB - C) is not divisible by Z, so
           the identity at a random point fails with overwhelming
           probability. *)
        let ok = ref 0 in
        for _ = 1 to 5 do
          if Sq.divisibility_holds qap bad (F.random st) then incr ok
        done;
        Alcotest.(check int) "no lucky points" 0 !ok);
    Alcotest.test_case "domain sized to constraints" `Quick (fun () ->
        let cs, _ = small_circuit () in
        let qap = Sq.create cs in
        check_bool "pow2" true
          (let n = Sq.domain_size qap in
           n land (n - 1) = 0 && n >= Scs.num_constraints cs)) ]

(* ---------------- Groth16 end-to-end ---------------- *)

(* The multi-input statement of "multi-input circuit" under its own seed:
   public x = 3, y = 8, z = 50; witness w = 2 with (x + w)(y + w) = z. *)
let seeded_statement () =
  let st = Random.State.make [| 0x16; 2026 |] in
  let bld = Bld.create () in
  let x = Bld.alloc_input bld (Fr.of_int 3) in
  let y = Bld.alloc_input bld (Fr.of_int 8) in
  let w = Bld.alloc bld (Fr.of_int 2) in
  let prod = G.mul bld (L.add (L.of_var x) (L.of_var w)) (L.add (L.of_var y) (L.of_var w)) in
  let z = Bld.alloc_input bld (Bld.value bld prod) in
  G.assert_equal bld (L.of_var z) (L.of_var prod);
  let cs, assignment = Bld.finalize bld in
  let qap = Qap.create cs in
  let pk, vk = Groth16.setup st qap in
  (pk, vk, Groth16.prove st pk qap assignment, [ Fr.of_int 3; Fr.of_int 8; Fr.of_int 50 ])

let groth16_tests =
  [ Alcotest.test_case "complete (prove/verify roundtrip)" `Slow (fun () ->
        let b, out = cubic_circuit 3 in
        let cs, assignment = Bld.finalize b in
        let qap = Qap.create cs in
        let pk, vk = Groth16.setup st qap in
        let proof = Groth16.prove st pk qap assignment in
        check_bool "verifies" true (Groth16.verify vk ~public_inputs:[ out ] proof);
        Alcotest.(check int) "proof is 256 bytes" 256 (Groth16.proof_size_bytes proof));
    Alcotest.test_case "sound (wrong public input rejected)" `Slow (fun () ->
        let b, _out = cubic_circuit 3 in
        let cs, assignment = Bld.finalize b in
        let qap = Qap.create cs in
        let pk, vk = Groth16.setup st qap in
        let proof = Groth16.prove st pk qap assignment in
        check_bool "wrong statement rejected" false
          (Groth16.verify vk ~public_inputs:[ Fr.of_int 36 ] proof));
    Alcotest.test_case "sound (tampered proof rejected)" `Slow (fun () ->
        let b, out = cubic_circuit 5 in
        let cs, assignment = Bld.finalize b in
        let qap = Qap.create cs in
        let pk, vk = Groth16.setup st qap in
        let proof = Groth16.prove st pk qap assignment in
        let tampered = { proof with Groth16.a = G1.double proof.Groth16.a } in
        check_bool "tampered a" false (Groth16.verify vk ~public_inputs:[ out ] tampered);
        let tampered = { proof with Groth16.c = G1.add proof.Groth16.c G1.generator } in
        check_bool "tampered c" false (Groth16.verify vk ~public_inputs:[ out ] tampered);
        let tampered = { proof with Groth16.b = G2.double proof.Groth16.b } in
        check_bool "tampered b" false (Groth16.verify vk ~public_inputs:[ out ] tampered));
    Alcotest.test_case "zero knowledge (proofs re-randomised)" `Slow (fun () ->
        let b, out = cubic_circuit 4 in
        let cs, assignment = Bld.finalize b in
        let qap = Qap.create cs in
        let pk, vk = Groth16.setup st qap in
        let p1 = Groth16.prove st pk qap assignment in
        let p2 = Groth16.prove st pk qap assignment in
        check_bool "distinct proofs" false (G1.equal p1.Groth16.a p2.Groth16.a);
        check_bool "both verify" true
          (Groth16.verify vk ~public_inputs:[ out ] p1
           && Groth16.verify vk ~public_inputs:[ out ] p2));
    Alcotest.test_case "multi-input circuit" `Slow (fun () ->
        (* public: x, y; witness: w with (x + w)(y + w) = public z *)
        let bld = Bld.create () in
        let x = Bld.alloc_input bld (Fr.of_int 3) in
        let y = Bld.alloc_input bld (Fr.of_int 8) in
        let w = Bld.alloc bld (Fr.of_int 2) in
        let prod =
          G.mul bld
            (L.add (L.of_var x) (L.of_var w))
            (L.add (L.of_var y) (L.of_var w))
        in
        let z = Bld.alloc_input bld (Bld.value bld prod) in
        G.assert_equal bld (L.of_var z) (L.of_var prod);
        let cs, assignment = Bld.finalize bld in
        let qap = Qap.create cs in
        let pk, vk = Groth16.setup st qap in
        let proof = Groth16.prove st pk qap assignment in
        check_bool "verifies with (3,8,50)" true
          (Groth16.verify vk ~public_inputs:[ Fr.of_int 3; Fr.of_int 8; Fr.of_int 50 ] proof);
        check_bool "rejected with (3,8,51)" false
          (Groth16.verify vk ~public_inputs:[ Fr.of_int 3; Fr.of_int 8; Fr.of_int 51 ] proof));
    Alcotest.test_case "golden proof and key bytes" `Slow (fun () ->
        (* Setup, prove and the key format must not drift: these digests
           were taken from the implementation before the optimal-ate
           verifier, for one seeded statement. *)
        let _, vk, proof, _ = seeded_statement () in
        let sha b = Zkvc_hash.Sha256.(to_hex (digest b)) in
        Alcotest.(check string) "proof bytes"
          "1d1fbd54ecb3ecf086eb30b9e1142218965c240004971cc5917b5bb5f11acb44" (sha (Groth16.proof_to_bytes proof));
        Alcotest.(check string) "verifying key bytes"
          "572b949b8264ac8a5946aa5bc272d3d95267e5c3176149246e9c92f9f51aea5e" (sha (Groth16.verifying_key_to_bytes vk)));
    Alcotest.test_case "prepared key = unprepared 4-pair check" `Slow (fun () ->
        let module Pairing = Zkvc_curve.Pairing in
        let module Fq12 = Zkvc_curve.Fq12 in
        let _, vk, proof, io = seeded_statement () in
        let vk' = Groth16.verifying_key_of_bytes_exn (Groth16.verifying_key_to_bytes vk) in
        let unprepared (p : Groth16.proof) =
          Fq12.is_one
            (Pairing.multi_pairing
               [ (G1.neg p.a, p.b);
                 (Groth16.vk_alpha vk, Groth16.vk_beta vk);
                 (Groth16.ic_sum vk io, Groth16.vk_gamma vk);
                 (p.c, Groth16.vk_delta vk) ])
        in
        let agree name p expect =
          check_bool (name ^ " unprepared") expect (unprepared p);
          check_bool (name ^ " prepared") expect (Groth16.verify vk ~public_inputs:io p);
          check_bool (name ^ " decoded key") expect (Groth16.verify vk' ~public_inputs:io p)
        in
        agree "honest" proof true;
        List.iter
          (fun site -> agree (Groth16.Mutate.site_name site) (Groth16.Mutate.apply site proof) false)
          Groth16.Mutate.all) ]

let batch_tests =
  [ Alcotest.test_case "batch verification" `Slow (fun () ->
        (* three statements under one key: batch accepts them together,
           and rejects the batch if any single proof is corrupted *)
        let b, out = cubic_circuit 3 in
        let cs, _ = Bld.finalize b in
        let qap = Qap.create cs in
        let pk, vk = Groth16.setup st qap in
        let instances =
          List.map
            (fun x ->
              let b, out = cubic_circuit x in
              let _, assignment = Bld.finalize b in
              let proof = Groth16.prove st pk qap assignment in
              ([ out ], proof))
            [ 2; 3; 7 ]
        in
        ignore out;
        let accepted = function Groth16.Batch_accepted -> true | _ -> false in
        check_bool "batch accepts" true (accepted (Groth16.verify_batch vk instances));
        (* the empty batch has no sound verdict: it must raise, not
           vacuously accept (the bug shipped in the first version) *)
        check_bool "empty batch raises" true
          (match Groth16.verify_batch vk [] with
          | exception Invalid_argument _ -> true
          | _ -> false);
        (* corrupt one statement's claimed output *)
        let bad =
          match instances with
          | (io, p) :: rest -> ([ Fr.add (List.hd io) Fr.one ], p) :: rest
          | [] -> assert false
        in
        check_bool "batch with one bad statement rejects" false
          (accepted (Groth16.verify_batch vk bad));
        (* corrupt one proof point *)
        let bad =
          match instances with
          | (io, p) :: rest -> (io, { p with Groth16.c = G1.double p.Groth16.c }) :: rest
          | [] -> assert false
        in
        check_bool "batch with one bad proof rejects" false
          (accepted (Groth16.verify_batch vk bad));
        (* arity mismatch is malformed (with the culprit index), not a
           mere rejection *)
        let bad =
          match instances with
          | (io, p) :: rest -> ((Fr.one :: io), p) :: rest
          | [] -> assert false
        in
        check_bool "arity mismatch flagged malformed" true
          (Groth16.verify_batch vk bad = Groth16.Batch_malformed [ 0 ]));
    Alcotest.test_case "batch faster than sequential" `Slow (fun () ->
        let b, out = cubic_circuit 5 in
        let cs, assignment = Bld.finalize b in
        let qap = Qap.create cs in
        let pk, vk = Groth16.setup st qap in
        let instances =
          List.init 8 (fun _ -> ([ out ], Groth16.prove st pk qap assignment))
        in
        (* Montgomery multiplications, not seconds: the count is the same
           on every run, where a single CPU-time sample under a loaded
           host is not. Eight members, because each one costs the batch
           three G1 scalar multiplications: at four the batch counts ~2%
           more than the four verifies, at eight ~12% fewer. Batch timing
           is gated by tools/ci.sh (medians at N=16). *)
        let muls f =
          let c = Zkvc_obs.Metrics.counter "field.mont_mul" in
          let was_enabled = Zkvc_obs.Sink.is_enabled () in
          Zkvc_obs.Sink.enable ();
          Fun.protect
            ~finally:(fun () -> if not was_enabled then Zkvc_obs.Sink.disable ())
            (fun () ->
              let c0 = Zkvc_obs.Metrics.counter_value c in
              let r = f () in
              (r, Zkvc_obs.Metrics.counter_value c - c0))
        in
        let ok_b, m_batch =
          muls (fun () -> Groth16.verify_batch vk instances = Groth16.Batch_accepted)
        in
        let ok_s, m_seq =
          muls (fun () ->
              List.for_all (fun (io, p) -> Groth16.verify vk ~public_inputs:io p) instances)
        in
        check_bool "both accept" true (ok_b && ok_s);
        check_bool
          (Printf.sprintf "batch %d < sequential %d field.mont_mul" m_batch m_seq)
          true (m_batch < m_seq)) ]

let () =
  Alcotest.run "zkvc_snark"
    [ ("qap", qap_tests);
      ("groth16", groth16_tests);
      ("batch", batch_tests) ]
