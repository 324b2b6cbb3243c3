module Fr = Zkvc_field.Fr
module Spartan = Zkvc_spartan.Spartan
module Sm = Zkvc_spartan.Sparse_matrix.Make (Fr)
module Sc = Zkvc_spartan.Sumcheck.Make (Fr)
module Ml = Zkvc_poly.Multilinear.Make (Fr)
module T = Zkvc_transcript.Transcript
module Ch = T.Challenge (Fr)
module L = Zkvc_r1cs.Lc.Make (Fr)
module Bld = Zkvc_r1cs.Builder.Make (Fr)
module G = Zkvc_r1cs.Gadgets.Make (Fr)
module Pedersen = Zkvc_spartan.Pedersen
module G1 = Zkvc_curve.G1
module Api = Zkvc.Api
module Mc = Zkvc.Matmul_circuit
module Mspec = Zkvc.Matmul_spec
module Spec = Mspec.Make (Fr)

let st = Random.State.make [| 99; 100 |]
let check_bool = Alcotest.(check bool)

(* ---------------- sumcheck in isolation ---------------- *)

module Oracle = Sumcheck_oracle.Make (Fr)

let random_point rng n = List.init n (fun _ -> Fr.random rng)

let qtest ?(count = 200) name prop gen =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name prop gen)

let inner t1 t2 =
  let acc = ref Fr.zero in
  Array.iteri (fun i v -> acc := Fr.add !acc (Fr.mul v t2.(i))) t1;
  !acc

let with_jobs n f =
  let saved = Zkvc_parallel.jobs () in
  Zkvc_parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Zkvc_parallel.set_jobs saved) f

let same_field_lists a b = List.length a = List.length b && List.for_all2 Fr.equal a b
let same_field_arrays a b = same_field_lists (Array.to_list a) (Array.to_list b)

let same_run (rounds, rs, finals) (rounds', rs', finals') =
  List.length rounds = List.length rounds'
  && List.for_all2 same_field_arrays rounds rounds'
  && same_field_lists rs rs'
  && same_field_arrays finals finals'

(* each kernel against the generic oracle on the same statement, on a
   fresh transcript; the oracle folds the eq̃ table it is handed, the
   kernel builds eq̃(τ_{>j}, ·) itself *)
let eq_r1cs_vs_oracle ~tau a b c =
  let kernel = Sc.prove_eq_r1cs (T.create ~label:"sc-test") ~label:"s" ~tau a b c in
  let oracle =
    Oracle.prove (T.create ~label:"sc-test") ~label:"s" ~degree:3
      [| Ml.evals (Ml.eq_table tau); a; b; c |]
      ~combine:(fun v -> Fr.mul v.(0) (Fr.sub (Fr.mul v.(1) v.(2)) v.(3)))
  in
  (kernel, oracle)

let product_vs_oracle a b =
  ( Sc.prove_product (T.create ~label:"sc-test") ~label:"s" a b,
    Oracle.prove (T.create ~label:"sc-test") ~label:"s" ~degree:2 [| a; b |]
      ~combine:(fun v -> Fr.mul v.(0) v.(1)) )

let random_table rng mu = Array.init (1 lsl mu) (fun _ -> Fr.random rng)

(* (µ, jobs, seed) *)
let gen_kernel_case =
  QCheck.(triple (int_range 0 7) (int_range 1 2) (int_bound 1_000_000))

let sumcheck_tests =
  [ Alcotest.test_case "honest prover accepted" `Quick (fun () ->
        let mu = 5 in
        let t1 = Array.init (1 lsl mu) (fun _ -> Fr.random st) in
        let t2 = Array.init (1 lsl mu) (fun _ -> Fr.random st) in
        let claim = inner t1 t2 in
        let tr_p = T.create ~label:"sc-test" in
        let rounds, r_p, finals = Sc.prove_product tr_p ~label:"s" t1 t2 in
        let tr_v = T.create ~label:"sc-test" in
        (match Sc.verify tr_v ~label:"s" ~degree:2 ~claim rounds with
         | None -> Alcotest.fail "sumcheck rejected honest prover"
         | Some (final_claim, r_v) ->
           check_bool "same challenges" true (List.for_all2 Fr.equal r_p r_v);
           (* final claim must equal product of the tables' MLEs at r *)
           let m1 = Ml.of_evals t1 and m2 = Ml.of_evals t2 in
           check_bool "final claim correct" true
             (Fr.equal final_claim (Fr.mul (Ml.eval m1 r_v) (Ml.eval m2 r_v)));
           check_bool "finals match MLE" true
             (Fr.equal finals.(0) (Ml.eval m1 r_v) && Fr.equal finals.(1) (Ml.eval m2 r_v))));
    Alcotest.test_case "wrong claim rejected" `Quick (fun () ->
        let t1 = Array.init 16 (fun _ -> Fr.random st) in
        let t2 = Array.init 16 (fun _ -> Fr.random st) in
        let tr_p = T.create ~label:"sc-test" in
        let rounds, _, _ = Sc.prove_product tr_p ~label:"s" t1 t2 in
        let tr_v = T.create ~label:"sc-test" in
        check_bool "reject" true
          (Sc.verify tr_v ~label:"s" ~degree:2 ~claim:(Fr.add (inner t1 t2) Fr.one) rounds
           = None));
    Alcotest.test_case "eq r1cs: honest prover accepted, finals at r" `Quick (fun () ->
        let mu = 6 in
        let tau = random_point st mu in
        let a = random_table st mu and b = random_table st mu in
        (* a satisfied row set: c = a∘b, so the claim is zero *)
        let c = Array.mapi (fun i v -> Fr.mul v b.(i)) a in
        let rounds, r_p, finals =
          Sc.prove_eq_r1cs (T.create ~label:"sc-test") ~label:"s" ~tau a b c
        in
        match Sc.verify (T.create ~label:"sc-test") ~label:"s" ~degree:3 ~claim:Fr.zero rounds with
        | None -> Alcotest.fail "sumcheck rejected honest prover"
        | Some (final_claim, r_v) ->
          check_bool "same challenges" true (same_field_lists r_p r_v);
          let at t = Ml.eval (Ml.of_evals t) r_v in
          check_bool "finals match MLE" true
            (same_field_arrays finals [| Ml.eq_eval tau r_v; at a; at b; at c |]);
          check_bool "final claim correct" true
            (Fr.equal final_claim (Fr.mul finals.(0) (Fr.sub (Fr.mul finals.(1) finals.(2)) finals.(3)))));
    Alcotest.test_case "kernels reject bad shapes" `Quick (fun () ->
        let t n = Array.make n Fr.one in
        let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
        let tr () = T.create ~label:"sc-test" in
        check_bool "product ragged" true
          (raises (fun () -> Sc.prove_product (tr ()) ~label:"s" (t 4) (t 8)));
        check_bool "product not a power of two" true
          (raises (fun () -> Sc.prove_product (tr ()) ~label:"s" (t 6) (t 6)));
        check_bool "eq r1cs ragged" true
          (raises (fun () ->
               Sc.prove_eq_r1cs (tr ()) ~label:"s" ~tau:[ Fr.one; Fr.one ] (t 4) (t 4) (t 2)));
        check_bool "eq r1cs tau arity" true
          (raises (fun () -> Sc.prove_eq_r1cs (tr ()) ~label:"s" ~tau:[ Fr.one ] (t 4) (t 4) (t 4))));
    qtest ~count:60 "eq r1cs kernel matches the generic oracle" gen_kernel_case
      (fun (mu, jobs, seed) ->
        let rng = Random.State.make [| seed |] in
        (* τ_j = 0 takes the kernel's direct-sum round, τ_j = 1 zeroes
           l_j(0) *)
        let tau =
          List.init mu (fun _ ->
              match Random.State.int rng 4 with 0 -> Fr.zero | 1 -> Fr.one | _ -> Fr.random rng)
        in
        let a = random_table rng mu and b = random_table rng mu and c = random_table rng mu in
        let kernel, oracle = with_jobs jobs (fun () -> eq_r1cs_vs_oracle ~tau a b c) in
        let _, r, finals = kernel in
        same_run kernel oracle && Fr.equal finals.(0) (Ml.eq_eval tau r));
    qtest ~count:60 "product kernel matches the generic oracle" gen_kernel_case
      (fun (mu, jobs, seed) ->
        let rng = Random.State.make [| seed |] in
        let a = random_table rng mu and b = random_table rng mu in
        let kernel, oracle = with_jobs jobs (fun () -> product_vs_oracle a b) in
        same_run kernel oracle);
    Alcotest.test_case "kernels match the oracle on the parallel path" `Quick (fun () ->
        (* 2^11 entries: the first round's half reaches parallel_min_half *)
        let mu = 11 in
        let rng = Random.State.make [| 11 |] in
        let tau = random_point rng mu in
        let a = random_table rng mu and b = random_table rng mu and c = random_table rng mu in
        let sequential = with_jobs 1 (fun () -> eq_r1cs_vs_oracle ~tau a b c) in
        let parallel = with_jobs 2 (fun () -> eq_r1cs_vs_oracle ~tau a b c) in
        check_bool "eq r1cs = oracle" true (same_run (fst parallel) (snd parallel));
        check_bool "eq r1cs jobs 2 = jobs 1" true (same_run (fst parallel) (fst sequential));
        let kernel, oracle = with_jobs 2 (fun () -> product_vs_oracle a b) in
        check_bool "product = oracle" true (same_run kernel oracle));
    qtest ~count:50 "barycentric interpolation matches the Lagrange oracle"
      QCheck.(pair (int_range 0 6) (int_bound 1_000_000))
      (fun (d, seed) ->
        let rng = Random.State.make [| seed |] in
        let evals = Array.init (d + 1) (fun _ -> Fr.random rng) in
        (* a random point, and the nodes themselves, where the Lagrange
           basis is an indicator *)
        List.for_all
          (fun r -> Fr.equal (Sc.interpolate_at evals r) (Oracle.interpolate_at evals r))
          (Fr.random rng :: List.init (d + 1) Fr.of_int)) ]

(* ---------------- sparse matrices ---------------- *)

(* Oracle for the verifier's table-based evaluation: the per-entry
   Lagrange evaluator, recomputing χ_row(rx)·χ_col(ry) for every nonzero
   in O(nnz·(µ+ν)). Variable 0 is the most significant index bit,
   matching Multilinear. *)
let chi point nbits idx =
  List.fold_left
    (fun (acc, i) r ->
      let bit = (idx lsr (nbits - 1 - i)) land 1 in
      (Fr.mul acc (if bit = 1 then r else Fr.sub Fr.one r), i + 1))
    (Fr.one, 0) point
  |> fst

let oracle_eval ~mu ~nu entries ~rx ~ry =
  List.fold_left
    (fun acc { Sm.row; col; value } ->
      Fr.add acc (Fr.mul value (Fr.mul (chi rx mu row) (chi ry nu col))))
    Fr.zero entries

let table_eval m ~rx ~ry =
  Sm.eval_tables m ~row_w:(Ml.evals (Ml.eq_table rx)) ~col_w:(Ml.evals (Ml.eq_table ry))

(* (µ, ν, seed): the entry list, its size and the point all come from the
   seed; the size may be zero and, with µ, ν small, (row, col) repeats *)
let gen_shape =
  QCheck.(triple (int_range 1 5) (int_range 1 5) (int_bound 1_000_000))

let sparse_tests =
  [ Alcotest.test_case "mul_vec and eval agree" `Quick (fun () ->
        let mu = 3 and nu = 4 in
        let entries =
          List.init 20 (fun _ ->
              { Sm.row = Random.State.int st (1 lsl mu);
                col = Random.State.int st (1 lsl nu);
                value = Fr.random st })
        in
        let m = Sm.create ~mu ~nu entries in
        let z = Array.init (1 lsl nu) (fun _ -> Fr.random st) in
        let mz = Sm.mul_vec m z in
        (* MLE of (Mz) at random rx must equal Σ_y M̃(rx,y) z̃(y);
           check by evaluating both sides on booleans *)
        let rx = List.init mu (fun _ -> Fr.random st) in
        let lhs = Ml.eval (Ml.of_evals mz) rx in
        let weights = Ml.evals (Ml.eq_table rx) in
        let folded = Array.make (1 lsl nu) Fr.zero in
        Sm.fold_rows m ~scale:Fr.one weights folded;
        let rhs = ref Fr.zero in
        Array.iteri (fun j v -> rhs := Fr.add !rhs (Fr.mul v z.(j))) folded;
        check_bool "fold_rows consistent" true (Fr.equal lhs !rhs);
        (* M̃(rx, ry) = Σ_y (rxᵀ·M)(y)·eq̃(ry, y) *)
        let ry = List.init nu (fun _ -> Fr.random st) in
        let direct = table_eval m ~rx ~ry in
        let eq_ry = Ml.evals (Ml.eq_table ry) in
        let via_fold = ref Fr.zero in
        Array.iteri (fun j v -> via_fold := Fr.add !via_fold (Fr.mul v eq_ry.(j))) folded;
        check_bool "eval consistent" true (Fr.equal direct !via_fold));
    qtest "scaled folds into one vector match the combined folds" gen_shape
      (fun (mu, nu, seed) ->
        (* Spartan's phase-two table: three folds scaled by ra, rb, rc into
           one vector equal ra·fold(A) + rb·fold(B) + rc·fold(C); entries
           in random row order, so same-row runs break up *)
        let rng = Random.State.make [| seed |] in
        let matrix () =
          Sm.create ~mu ~nu
            (List.init (Random.State.int rng 12) (fun _ ->
                 { Sm.row = Random.State.int rng (1 lsl mu);
                   col = Random.State.int rng (1 lsl nu);
                   value = Fr.random rng }))
        in
        let mats = [ matrix (); matrix (); matrix () ] in
        let rs = List.init 3 (fun _ -> Fr.random rng) in
        let eq = Ml.evals (Ml.eq_table (List.init mu (fun _ -> Fr.random rng))) in
        let fold m =
          let acc = Array.make (1 lsl nu) Fr.zero in
          Sm.fold_rows m ~scale:Fr.one eq acc;
          acc
        in
        let one_vector = Array.make (1 lsl nu) Fr.zero in
        List.iter2 (fun m scale -> Sm.fold_rows m ~scale eq one_vector) mats rs;
        let combined =
          List.fold_left2
            (fun acc m r -> Array.map2 Fr.add acc (Array.map (Fr.mul r) (fold m)))
            (Array.make (1 lsl nu) Fr.zero) mats rs
        in
        Array.for_all2 Fr.equal one_vector combined);
    qtest "eval_tables matches the per-entry oracle" gen_shape (fun (mu, nu, seed) ->
        let rng = Random.State.make [| seed |] in
        let entry () =
          { Sm.row = Random.State.int rng (1 lsl mu);
            col = Random.State.int rng (1 lsl nu);
            value = Fr.random rng }
        in
        let random_entries = List.init (Random.State.int rng 12) (fun _ -> entry ()) in
        let last_row = (1 lsl mu) - 1 and last_col = (1 lsl nu) - 1 in
        let dup = entry () in
        let edges =
          [ { (entry ()) with Sm.row = last_row };
            { (entry ()) with Sm.col = last_col };
            { Sm.row = last_row; col = last_col; value = Fr.random rng };
            dup;
            { dup with Sm.value = Fr.random rng } ]
        in
        let rx = random_point rng mu and ry = random_point rng nu in
        List.for_all
          (fun entries ->
            Fr.equal
              (table_eval (Sm.create ~mu ~nu entries) ~rx ~ry)
              (oracle_eval ~mu ~nu entries ~rx ~ry))
          [ []; random_entries; edges; random_entries @ edges ]);
    Alcotest.test_case "eval_tables rejects a table of the wrong length" `Quick (fun () ->
        let m = Sm.create ~mu:2 ~nu:3 [] in
        let tbl n = Array.make n Fr.one in
        List.iter
          (fun (rows, cols) ->
            check_bool "raises" true
              (match Sm.eval_tables m ~row_w:(tbl rows) ~col_w:(tbl cols) with
               | exception Invalid_argument _ -> true
               | _ -> false))
          [ (8, 8); (4, 4); (2, 8) ]);
    (* the verifier's public term of z̃ = [1; io; 0… | w]: Σ_c col_w.(c)·z_c
       over the public half equals (1 − ry0)·Σ_c z_c·χ_c(ry_w) *)
    qtest "public term from the column table matches the chi formula"
      QCheck.(pair (int_range 1 6) (int_bound 1_000_000))
      (fun (nu, seed) ->
        let rng = Random.State.make [| seed |] in
        let half = 1 lsl (nu - 1) in
        let io = List.init (Random.State.int rng half) (fun _ -> Fr.random rng) in
        let ry = random_point rng nu in
        let col_w = Ml.evals (Ml.eq_table ry) in
        let via_table =
          List.fold_left
            (fun (acc, c) x -> (Fr.add acc (Fr.mul x col_w.(c)), c + 1))
            (col_w.(0), 1) io
          |> fst
        in
        let ry0, ry_w = (List.hd ry, List.tl ry) in
        let k = nu - 1 in
        let chi_sum =
          List.fold_left
            (fun (acc, c) x -> (Fr.add acc (Fr.mul x (chi ry_w k c)), c + 1))
            (chi ry_w k 0, 1) io
          |> fst
        in
        Fr.equal via_table (Fr.mul (Fr.sub Fr.one ry0) chi_sum)) ]

(* ---------------- pedersen ---------------- *)

let pedersen_tests =
  [ Alcotest.test_case "commitments binding-ish and homomorphic" `Quick (fun () ->
        let key = Pedersen.create_key 8 in
        let v1 = Array.init 8 (fun _ -> Fr.random st) in
        let v2 = Array.init 8 (fun _ -> Fr.random st) in
        let b1 = Fr.random st and b2 = Fr.random st in
        let c1 = Pedersen.commit key v1 ~blind:b1 in
        let c2 = Pedersen.commit key v2 ~blind:b2 in
        check_bool "distinct" false (G1.equal c1 c2);
        (* homomorphism: C1 + C2 = commit(v1+v2; b1+b2) *)
        let sum = Array.init 8 (fun i -> Fr.add v1.(i) v2.(i)) in
        check_bool "homomorphic" true
          (G1.equal (G1.add c1 c2) (Pedersen.commit key sum ~blind:(Fr.add b1 b2)));
        (* check_fold accepts the honest fold and rejects a corrupted one *)
        let weights = [| Fr.of_int 2; Fr.of_int 3 |] in
        let folded = Array.init 8 (fun i -> Fr.add (Fr.mul weights.(0) v1.(i)) (Fr.mul weights.(1) v2.(i))) in
        let blind = Fr.add (Fr.mul weights.(0) b1) (Fr.mul weights.(1) b2) in
        check_bool "fold ok" true
          (Pedersen.check_fold key ~commitments:[| c1; c2 |] ~weights ~folded ~blind);
        folded.(0) <- Fr.add folded.(0) Fr.one;
        check_bool "bad fold rejected" false
          (Pedersen.check_fold key ~commitments:[| c1; c2 |] ~weights ~folded ~blind));
    Alcotest.test_case "hash_to_point on curve and deterministic" `Quick (fun () ->
        let p1 = Pedersen.hash_to_point "x" in
        let p2 = Pedersen.hash_to_point "x" in
        let p3 = Pedersen.hash_to_point "y" in
        check_bool "on curve" true (G1.is_on_curve p1);
        check_bool "deterministic" true (G1.equal p1 p2);
        check_bool "seed-dependent" false (G1.equal p1 p3)) ]

(* ---------------- inner-product argument ---------------- *)

module Ipa = Zkvc_spartan.Ipa

let ipa_tests =
  [ Alcotest.test_case "complete" `Quick (fun () ->
        List.iter
          (fun n ->
            let key = Pedersen.create_key n in
            let a = Array.init n (fun _ -> Fr.random st) in
            let b = Array.init n (fun _ -> Fr.random st) in
            let c =
              Array.to_list a |> List.mapi (fun i v -> Fr.mul v b.(i))
              |> List.fold_left Fr.add Fr.zero
            in
            (* P = <a,G> + c·Q *)
            let commitment =
              G1.add
                (Pedersen.commit key a ~blind:Fr.zero)
                (G1.mul_fr Ipa.q_generator c)
            in
            let tr_p = T.create ~label:"ipa-test" in
            let proof = Ipa.prove key tr_p ~a ~b in
            let tr_v = T.create ~label:"ipa-test" in
            check_bool
              (Printf.sprintf "n=%d verifies" n)
              true
              (Ipa.verify key tr_v ~b ~commitment proof);
            Alcotest.(check int)
              (Printf.sprintf "n=%d proof points" n)
              (2 * (proof.Ipa.ls |> Array.length))
              (Array.length proof.Ipa.ls + Array.length proof.Ipa.rs))
          [ 1; 2; 4; 8; 32 ]);
    Alcotest.test_case "wrong inner product rejected" `Quick (fun () ->
        let n = 8 in
        let key = Pedersen.create_key n in
        let a = Array.init n (fun _ -> Fr.random st) in
        let b = Array.init n (fun _ -> Fr.random st) in
        let c_bad = Fr.random st in
        let commitment =
          G1.add (Pedersen.commit key a ~blind:Fr.zero) (G1.mul_fr Ipa.q_generator c_bad)
        in
        let tr_p = T.create ~label:"ipa-test" in
        let proof = Ipa.prove key tr_p ~a ~b in
        let tr_v = T.create ~label:"ipa-test" in
        check_bool "rejected" false (Ipa.verify key tr_v ~b ~commitment proof));
    Alcotest.test_case "tampered round rejected" `Quick (fun () ->
        let n = 8 in
        let key = Pedersen.create_key n in
        let a = Array.init n (fun _ -> Fr.random st) in
        let b = Array.init n (fun _ -> Fr.random st) in
        let c =
          Array.to_list a |> List.mapi (fun i v -> Fr.mul v b.(i))
          |> List.fold_left Fr.add Fr.zero
        in
        let commitment =
          G1.add (Pedersen.commit key a ~blind:Fr.zero) (G1.mul_fr Ipa.q_generator c)
        in
        let tr_p = T.create ~label:"ipa-test" in
        let proof = Ipa.prove key tr_p ~a ~b in
        let bad = { proof with Ipa.ls = Array.copy proof.Ipa.ls } in
        bad.Ipa.ls.(1) <- G1.double bad.Ipa.ls.(1);
        let tr_v = T.create ~label:"ipa-test" in
        check_bool "rejected" false (Ipa.verify key tr_v ~b ~commitment bad));
    Alcotest.test_case "proof is logarithmic" `Quick (fun () ->
        let prove_size n =
          let key = Pedersen.create_key n in
          let a = Array.init n (fun _ -> Fr.random st) in
          let b = Array.init n (fun _ -> Fr.random st) in
          let tr = T.create ~label:"ipa-test" in
          Ipa.proof_size_bytes (Ipa.prove key tr ~a ~b)
        in
        (* doubling n adds exactly one round = 128 bytes *)
        Alcotest.(check int) "log growth" (prove_size 16 + 128) (prove_size 32)) ]

(* ---------------- end-to-end ---------------- *)

let circuit n_muls =
  let b = Bld.create () in
  let x = Bld.alloc b (Fr.of_int 3) in
  let acc = ref (L.of_var x) in
  for _ = 1 to n_muls do
    acc := L.of_var (G.mul b !acc (L.add (L.of_var x) (L.constant Fr.one)))
  done;
  let out = Bld.alloc_input b (Bld.eval b !acc) in
  G.assert_equal b (L.of_var out) !acc;
  Bld.finalize b

(* The proof with round 0 of its second sumcheck appended once more, made
   through the wire encoding (the proof type is abstract): a u32 count of
   row commitments and the points, then each sumcheck as a u32 round count
   of u32-counted scalar arrays, with va, vb, vc between the two. *)
let with_extra_sc2_round p =
  let b = Spartan.proof_to_bytes p in
  let u32 at = Bytes.get_int32_be b at |> Int32.to_int in
  let fr_bytes = Bytes.length (Fr.to_bytes Fr.zero) in
  let pos = ref (4 + (u32 0 * G1.size_in_bytes)) in
  let skip_round () = pos := !pos + 4 + (fr_bytes * u32 !pos) in
  let skip_sumcheck () =
    let rounds = u32 !pos in
    pos := !pos + 4;
    for _ = 1 to rounds do
      skip_round ()
    done
  in
  skip_sumcheck ();
  pos := !pos + (3 * fr_bytes);
  let sc2_at = !pos in
  skip_sumcheck ();
  let round0 = Bytes.sub b (sc2_at + 4) (4 + (fr_bytes * u32 (sc2_at + 4))) in
  let count = Bytes.create 4 in
  Bytes.set_int32_be count 0 (Int32.of_int (u32 sc2_at + 1));
  Spartan.proof_of_bytes_exn
    (Bytes.concat Bytes.empty
       [ Bytes.sub b 0 sc2_at;
         count;
         Bytes.sub b (sc2_at + 4) (!pos - sc2_at - 4);
         round0;
         Bytes.sub b !pos (Bytes.length b - !pos) ])

let e2e_tests =
  [ Alcotest.test_case "complete" `Quick (fun () ->
        let cs, assignment = circuit 10 in
        let inst = Spartan.preprocess cs in
        let key = Spartan.setup inst in
        let proof = Spartan.prove st key inst assignment in
        let io = [ assignment.(1) ] in
        check_bool "verifies" true (Spartan.verify key inst ~public_inputs:io proof);
        check_bool "proof has positive size" true (Spartan.proof_size_bytes proof > 0));
    Alcotest.test_case "wrong public input rejected" `Quick (fun () ->
        let cs, assignment = circuit 10 in
        let inst = Spartan.preprocess cs in
        let key = Spartan.setup inst in
        let proof = Spartan.prove st key inst assignment in
        check_bool "reject" false
          (Spartan.verify key inst ~public_inputs:[ Fr.of_int 1 ] proof));
    Alcotest.test_case "unsatisfying witness rejected" `Quick (fun () ->
        let cs, assignment = circuit 6 in
        let inst = Spartan.preprocess cs in
        let key = Spartan.setup inst in
        let bad = Array.copy assignment in
        bad.(2) <- Fr.add bad.(2) Fr.one;
        let proof = Spartan.prove st key inst bad in
        check_bool "reject" false
          (Spartan.verify key inst ~public_inputs:[ assignment.(1) ] proof));
    Alcotest.test_case "ipa opening mode" `Quick (fun () ->
        let cs, assignment = circuit 12 in
        let inst = Spartan.preprocess cs in
        let key = Spartan.setup inst in
        let io = [ assignment.(1) ] in
        let p_fold = Spartan.prove st key inst assignment in
        let p_ipa = Spartan.prove ~opening_mode:`Ipa st key inst assignment in
        check_bool "fold verifies" true (Spartan.verify key inst ~public_inputs:io p_fold);
        check_bool "ipa verifies" true (Spartan.verify key inst ~public_inputs:io p_ipa);
        check_bool "ipa rejected on wrong io" false
          (Spartan.verify key inst ~public_inputs:[ Fr.of_int 1 ] p_ipa);
        Printf.printf "proof sizes: fold=%dB ipa=%dB\n"
          (Spartan.proof_size_bytes p_fold) (Spartan.proof_size_bytes p_ipa));
    Alcotest.test_case "ipa opening with bad witness rejected" `Quick (fun () ->
        let cs, assignment = circuit 6 in
        let inst = Spartan.preprocess cs in
        let key = Spartan.setup inst in
        let bad = Array.copy assignment in
        bad.(2) <- Fr.add bad.(2) Fr.one;
        let proof = Spartan.prove ~opening_mode:`Ipa st key inst bad in
        check_bool "reject" false
          (Spartan.verify key inst ~public_inputs:[ assignment.(1) ] proof));
    Alcotest.test_case "batch verification" `Quick (fun () ->
        let cs, assignment = circuit 10 in
        let inst = Spartan.preprocess cs in
        let key = Spartan.setup inst in
        let io = [ assignment.(1) ] in
        (* mixed opening modes share the one batched MSM *)
        let instances =
          [ (io, Spartan.prove st key inst assignment);
            (io, Spartan.prove ~opening_mode:`Ipa st key inst assignment);
            (io, Spartan.prove st key inst assignment) ]
        in
        check_bool "honest batch accepted" true
          (Spartan.verify_batch key inst instances = Spartan.Batch_accepted);
        check_bool "empty batch raises" true
          (match Spartan.verify_batch key inst [] with
          | exception Invalid_argument _ -> true
          | _ -> false);
        (* one corrupted statement poisons the whole batch *)
        let bad =
          match instances with
          | (io, p) :: rest -> ([ Fr.add (List.hd io) Fr.one ], p) :: rest
          | [] -> assert false
        in
        check_bool "bad statement rejects batch" true
          (Spartan.verify_batch key inst bad = Spartan.Batch_rejected);
        (* wrong arity is attributable, not a mere rejection *)
        let bad =
          match instances with
          | first :: (io, p) :: rest -> first :: ((Fr.one :: io, p)) :: rest
          | _ -> assert false
        in
        check_bool "arity mismatch flagged malformed" true
          (Spartan.verify_batch key inst bad = Spartan.Batch_malformed [ 1 ]);
        (* so is a sumcheck with a round too many, in a 2-member batch *)
        let bad =
          match instances with
          | (io, p) :: second :: _ -> [ (io, with_extra_sc2_round p); second ]
          | _ -> assert false
        in
        check_bool "extra sc2 round flagged malformed" true
          (Spartan.verify_batch key inst bad = Spartan.Batch_malformed [ 0 ]);
        (* every mutation site of member 0 (fold opening) and member 1
           (IPA opening) rejects the batch — group-element sites must be
           caught by the weighted combined MSM *)
        List.iteri
          (fun pos (io, p) ->
            List.iter
              (fun site ->
                let bad =
                  List.mapi
                    (fun i m -> if i = pos then (io, Spartan.Mutate.apply site p) else m)
                    instances
                in
                check_bool
                  (Printf.sprintf "member %d %s rejects batch" pos
                     (Spartan.Mutate.site_name site))
                  true
                  (Spartan.verify_batch key inst bad = Spartan.Batch_rejected))
              (Spartan.Mutate.sites p))
          (List.filteri (fun i _ -> i < 2) instances));
    Alcotest.test_case "changed first or last public input rejected" `Quick (fun () ->
        (* CRPC+PSQ binds Y as the public inputs; flipping the first or the
           last one must fail the verifier's public term of z̃ *)
        let dims = Mspec.dims ~a:2 ~n:2 ~b:3 in
        let rng = Random.State.make [| 17 |] in
        let x = Spec.random_matrix rng ~rows:2 ~cols:2 ~bound:64 in
        let w = Spec.random_matrix rng ~rows:2 ~cols:3 ~bound:64 in
        let prep = Api.prepare Mc.Crpc_psq ~x ~w dims in
        let inst, key =
          match Api.keygen Api.Backend_spartan prep.Api.cs with
          | Api.Spartan_keys { inst; key } -> (inst, key)
          | Api.Groth16_keys _ -> Alcotest.fail "expected spartan keys"
        in
        let n = Api.Cs.num_inputs prep.Api.cs in
        check_bool "several public inputs" true (n >= 2);
        let io = Array.to_list (Array.sub prep.Api.assignment 1 n) in
        let bump k = List.mapi (fun i v -> if i = k then Fr.add v Fr.one else v) io in
        List.iter
          (fun (mode, name) ->
            let proof = Spartan.prove ~opening_mode:mode st key inst prep.Api.assignment in
            check_bool (name ^ " honest") true (Spartan.verify key inst ~public_inputs:io proof);
            check_bool (name ^ " first input changed") false
              (Spartan.verify key inst ~public_inputs:(bump 0) proof);
            check_bool (name ^ " last input changed") false
              (Spartan.verify key inst ~public_inputs:(bump (n - 1)) proof))
          [ (`Hyrax_fold, "fold"); (`Ipa, "ipa") ]);
    Alcotest.test_case "sumcheck with a round too many or too few rejected" `Quick
      (fun () ->
        let cs, assignment = circuit 10 in
        let inst = Spartan.preprocess cs in
        let key = Spartan.setup inst in
        let io = [ assignment.(1) ] in
        let bytes = Spartan.proof_to_bytes (Spartan.prove st key inst assignment) in
        (* wire layout: comm_rows, sc1 (4 evals per round), va vb vc,
           sc2 (3 evals per round), opening; counts are big-endian u32 *)
        let u32 off = Int32.to_int (Bytes.get_int32_be bytes off) in
        let sc1_at = 4 + (u32 0 * G1.size_in_bytes) in
        let sc2_at = sc1_at + 4 + (u32 sc1_at * (4 + (4 * 32))) + (3 * 32) in
        (* rewrite the round count at [at] and repeat (+1) or drop (-1)
           the last round *)
        let resize at round_bytes delta =
          let n = u32 at in
          let last_at = at + 4 + ((n - 1) * round_bytes) in
          let head = Bytes.sub bytes 0 last_at in
          Bytes.set_int32_be head at (Int32.of_int (n + delta));
          let last = Bytes.sub bytes last_at round_bytes in
          let tail_at = last_at + round_bytes in
          let tail = Bytes.sub bytes tail_at (Bytes.length bytes - tail_at) in
          let rounds = if delta > 0 then [ last; last ] else [] in
          Spartan.proof_of_bytes_exn (Bytes.concat Bytes.empty ((head :: rounds) @ [ tail ]))
        in
        check_bool "layout" true (u32 sc2_at = Spartan.num_rounds_y inst);
        List.iter
          (fun (name, p) ->
            check_bool name false (Spartan.verify key inst ~public_inputs:io p))
          [ ("sc1 one round short", resize sc1_at (4 + (4 * 32)) (-1));
            ("sc1 one round long", resize sc1_at (4 + (4 * 32)) 1);
            ("sc2 one round short", resize sc2_at (4 + (3 * 32)) (-1));
            ("sc2 one round long", resize sc2_at (4 + (3 * 32)) 1) ]);
    Alcotest.test_case "batch agrees with individual verification" `Quick (fun () ->
        let cs, assignment = circuit 8 in
        let inst = Spartan.preprocess cs in
        let key = Spartan.setup inst in
        let io = [ assignment.(1) ] in
        let ps = List.init 3 (fun _ -> Spartan.prove st key inst assignment) in
        let instances = List.map (fun p -> (io, p)) ps in
        let individually =
          List.for_all (fun p -> Spartan.verify key inst ~public_inputs:io p) ps
        in
        check_bool "both accept" true
          (individually
           && Spartan.verify_batch key inst instances = Spartan.Batch_accepted));
    Alcotest.test_case "proofs differ run to run (blinding)" `Quick (fun () ->
        let cs, assignment = circuit 4 in
        let inst = Spartan.preprocess cs in
        let key = Spartan.setup inst in
        let p1 = Spartan.prove st key inst assignment in
        let p2 = Spartan.prove st key inst assignment in
        check_bool "both verify" true
          (Spartan.verify key inst ~public_inputs:[ assignment.(1) ] p1
           && Spartan.verify key inst ~public_inputs:[ assignment.(1) ] p2);
        check_bool "proof bytes differ" true (p1 <> p2)) ]

(* ---------------- golden proof bytes ---------------- *)

module Lc = Zkvc_zkml.Layer_circuit.Make (Fr)

let sha b = Zkvc_hash.Sha256.(to_hex (digest b))

(* Seeded statements whose proof bytes must not drift: CRPC+PSQ at
   3×4×8, and a softmax row of 2 plus one GELU from the zkml gadgets. *)
let golden_crpc () =
  let rng = Random.State.make [| 2024; 3 |] in
  let x = Spec.random_matrix rng ~rows:3 ~cols:4 ~bound:64 in
  let w = Spec.random_matrix rng ~rows:4 ~cols:8 ~bound:64 in
  let prep = Api.prepare Mc.Crpc_psq ~x ~w (Mspec.dims ~a:3 ~n:4 ~b:8) in
  (prep.Api.cs, prep.Api.assignment)

let golden_nonlinear () =
  let cfg = Zkvc.Nonlinear.default_config in
  let b = Lc.B.create () in
  let alloc v = Lc.B.alloc b (Fr.of_int v) in
  ignore (Lc.softmax_row b cfg [ alloc 37; alloc (-120) ]);
  ignore (Lc.gelu b cfg (alloc 91));
  Lc.B.finalize b

let golden_digest ?opening_mode (cs, assignment) =
  let inst = Spartan.preprocess cs in
  let key = Spartan.setup inst in
  let proof = Spartan.prove ?opening_mode (Random.State.make [| 4242 |]) key inst assignment in
  let io = Array.to_list (Array.sub assignment 1 (Api.Cs.num_inputs cs)) in
  check_bool "verifies" true (Spartan.verify key inst ~public_inputs:io proof);
  sha (Spartan.proof_to_bytes proof)

let golden_tests =
  [ Alcotest.test_case "golden proof bytes" `Quick (fun () ->
        (* taken from the generic closure-driven sumcheck prover, before
           the specialised kernels *)
        Alcotest.(check string) "crpc 3x4x8 hyrax fold"
          "81e278dc5516521b7dcb014e2ed5a62dd87e55c15a9df5ed2e66a1a2f2010d73" (golden_digest (golden_crpc ()));
        Alcotest.(check string) "crpc 3x4x8 ipa"
          "78ec86652be9da58cf4f744cf9b19f409da33ae4b0e22aba3fd9bd1962414071" (golden_digest ~opening_mode:`Ipa (golden_crpc ()));
        Alcotest.(check string) "softmax 1x2 + gelu 1"
          "13d4d654d863058568e836b9d18efac36e0eb7fa5ebbcfc4d2032a1075d6f362" (golden_digest (golden_nonlinear ()))) ]

let () =
  Alcotest.run "zkvc_spartan"
    [ ("sumcheck", sumcheck_tests);
      ("sparse", sparse_tests);
      ("pedersen", pedersen_tests);
      ("ipa", ipa_tests);
      ("e2e", e2e_tests);
      ("golden", golden_tests) ]
