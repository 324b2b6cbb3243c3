(* Domain-pool unit tests plus the cross-jobs determinism suite: every
   parallelised kernel, and both backends end-to-end, must produce
   byte-identical results for every job count. *)

module Parallel = Zkvc_parallel
module Fr = Zkvc_field.Fr
module G1 = Zkvc_curve.G1
module Msm = Zkvc_curve.Msm.Make (G1)
module D = Zkvc_poly.Domain.Make (Fr)
module Groth16 = Zkvc_groth16.Groth16
module Spartan = Zkvc_spartan.Spartan
module Pedersen = Zkvc_spartan.Pedersen
module Bld = Zkvc_r1cs.Builder.Make (Fr)
module Gg = Zkvc_r1cs.Gadgets.Make (Fr)
module L = Zkvc_r1cs.Lc.Make (Fr)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* run [f] at a given job count, restoring the previous setting *)
let with_jobs n f =
  let saved = Parallel.jobs () in
  Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs saved) f

(* ---------------- pool mechanics ---------------- *)

let pool_tests =
  [ Alcotest.test_case "every index processed exactly once" `Quick (fun () ->
        with_jobs 4 (fun () ->
            let n = 10_000 in
            let hits = Array.init n (fun _ -> Atomic.make 0) in
            Parallel.parallel_for n (fun i -> Atomic.incr hits.(i));
            Array.iteri
              (fun i h ->
                if Atomic.get h <> 1 then
                  Alcotest.failf "index %d processed %d times" i (Atomic.get h))
              hits));
    Alcotest.test_case "parallel_init matches Array.init" `Quick (fun () ->
        with_jobs 4 (fun () ->
            let f i = (i * i) - (3 * i) in
            check_bool "equal" true
              (Parallel.parallel_init 777 f = Array.init 777 f)));
    Alcotest.test_case "parallel_map matches Array.map" `Quick (fun () ->
        with_jobs 3 (fun () ->
            let a = Array.init 500 string_of_int in
            check_bool "equal" true
              (Parallel.parallel_map String.length a = Array.map String.length a)));
    Alcotest.test_case "parallel_reduce combines chunks in order" `Quick (fun () ->
        with_jobs 4 (fun () ->
            (* string concatenation is not commutative: any out-of-order
               combine would be visible *)
            let n = 100 in
            let expect = String.concat "" (List.init n string_of_int) in
            let got =
              Parallel.parallel_reduce ~chunk:7 n ~init:""
                ~range:(fun lo hi ->
                  String.concat "" (List.init (hi - lo) (fun k -> string_of_int (lo + k))))
                ~combine:( ^ )
            in
            Alcotest.(check string) "ordered" expect got));
    Alcotest.test_case "exceptions propagate to the caller" `Quick (fun () ->
        with_jobs 4 (fun () ->
            Alcotest.check_raises "raises" Exit (fun () ->
                Parallel.parallel_for 1000 (fun i -> if i = 777 then raise Exit))));
    Alcotest.test_case "pool survives a failed call" `Quick (fun () ->
        with_jobs 4 (fun () ->
            (try Parallel.parallel_for 100 (fun _ -> raise Not_found)
             with Not_found -> ());
            let total = Atomic.make 0 in
            Parallel.parallel_for 100 (fun i -> ignore (Atomic.fetch_and_add total i));
            check_int "sum 0..99" 4950 (Atomic.get total)));
    Alcotest.test_case "nested calls degrade to sequential" `Quick (fun () ->
        with_jobs 4 (fun () ->
            let hits = Array.init 64 (fun _ -> Atomic.make 0) in
            Parallel.parallel_for 8 (fun i ->
                Parallel.parallel_for 8 (fun j -> Atomic.incr hits.((i * 8) + j)));
            Array.iter (fun h -> check_int "once" 1 (Atomic.get h)) hits));
    Alcotest.test_case "concurrent submitters: every index exactly once" `Quick
      (fun () ->
        (* several systhreads hammer the pool at once: one wins the
           submission slot per round, the rest degrade to sequential —
           either way each thread's range is processed exactly once,
           and nothing deadlocks *)
        with_jobs 4 (fun () ->
            let nthreads = 4 and n = 2_000 and rounds = 5 in
            let hits =
              Array.init nthreads (fun _ -> Array.init n (fun _ -> Atomic.make 0))
            in
            let failed = Atomic.make false in
            let body t () =
              try
                for _ = 1 to rounds do
                  Parallel.parallel_for n (fun i -> Atomic.incr hits.(t).(i))
                done
              with _ -> Atomic.set failed true
            in
            let ths = List.init nthreads (fun t -> Thread.create (body t) ()) in
            List.iter Thread.join ths;
            check_bool "no submitter raised" false (Atomic.get failed);
            Array.iteri
              (fun t per ->
                Array.iteri
                  (fun i h ->
                    if Atomic.get h <> rounds then
                      Alcotest.failf "thread %d index %d processed %d/%d times" t i
                        (Atomic.get h) rounds)
                  per)
              hits));
    Alcotest.test_case "set_jobs clamps" `Quick (fun () ->
        with_jobs 1 (fun () ->
            Parallel.set_jobs 0;
            check_bool "auto >= 1" true (Parallel.jobs () >= 1);
            Parallel.set_jobs (-5);
            check_bool "negative -> auto >= 1" true (Parallel.jobs () >= 1);
            Parallel.set_jobs 1_000_000;
            check_bool "huge clamped" true (Parallel.jobs () <= 64))) ]

(* ---------------- kernel determinism ---------------- *)

let fr_array_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if not (Fr.equal x b.(i)) then ok := false) a;
      !ok)

let kernel_tests =
  let st = Random.State.make [| 2024; 7 |] in
  [ Alcotest.test_case "NTT identical for jobs 1/2/4 (size 4096)" `Quick (fun () ->
        let coeffs = Array.init 4096 (fun _ -> Fr.random st) in
        let dom = D.create 4096 in
        let run j =
          with_jobs j (fun () ->
              let a = Array.copy coeffs in
              D.ntt dom a;
              D.intt dom a;
              let b = Array.copy coeffs in
              D.eval_on_coset dom (Fr.of_int 5) b;
              D.interp_from_coset dom (Fr.of_int 5) b;
              (a, b))
        in
        let a1, b1 = run 1 and a2, b2 = run 2 and a4, b4 = run 4 in
        check_bool "ntt j2" true (fr_array_equal a1 a2);
        check_bool "ntt j4" true (fr_array_equal a1 a4);
        check_bool "coset j2" true (fr_array_equal b1 b2);
        check_bool "coset j4" true (fr_array_equal b1 b4);
        (* and the round-trips really are the identity *)
        check_bool "intt . ntt = id" true (fr_array_equal coeffs a1);
        check_bool "coset round-trip = id" true (fr_array_equal coeffs b1));
    Alcotest.test_case "MSM identical for jobs 1/2/4 (n=2048)" `Quick (fun () ->
        let points = Array.init 2048 (fun _ -> G1.random st) in
        let scalars = Array.init 2048 (fun _ -> Fr.random st) in
        let run j = with_jobs j (fun () -> G1.to_bytes (Msm.msm points scalars)) in
        let r1 = run 1 in
        check_bool "j2" true (Bytes.equal r1 (run 2));
        check_bool "j4" true (Bytes.equal r1 (run 4)));
    Alcotest.test_case "skewed MSM identical for jobs 1/2/4 (n=719)" `Quick (fun () ->
        (* the Groth16 msm_l shape: 12 full-width scalars among ~11-bit
           ones, so the planned windows differ in width and live prefix *)
        let scalars =
          Array.init 719 (fun i ->
              if i mod 60 = 7 then Fr.random st else Fr.of_int (Random.State.int st 2048))
        in
        let points = Array.map (fun _ -> G1.random st) scalars in
        let run j = with_jobs j (fun () -> G1.to_bytes (Msm.msm points scalars)) in
        let r1 = run 1 in
        check_bool "j2" true (Bytes.equal r1 (run 2));
        check_bool "j4" true (Bytes.equal r1 (run 4));
        check_bool "= naive" true
          (Bytes.equal r1 (G1.to_bytes (Msm.msm_naive ~mul:G1.mul_fr points scalars))));
    Alcotest.test_case "signed-digit MSM identical for jobs 1/2/4, affine and Jacobian bases"
      `Quick (fun () ->
        let scalars = Array.init 300 (fun _ -> Fr.random st) in
        (* every window below the top one (whose top bit is the zero bit
           above the longest scalar) holds a negative digit *)
        let bs = Array.map Fr.to_bigint scalars in
        let windows = Zkvc_curve.Msm.windows bs in
        Array.iteri
          (fun w (lo, c) ->
            if w < Array.length windows - 1 then
              check_bool (Printf.sprintf "negative digit in window %d" w) true
                (Array.exists (fun s -> Zkvc_curve.Msm.digit s ~lo ~c < 0) bs))
          windows;
        let jacobian = Array.map (fun _ -> G1.random st) scalars in
        let affine = Array.copy jacobian in
        G1.normalize affine;
        let run points j = with_jobs j (fun () -> G1.to_bytes (Msm.msm points scalars)) in
        let r1 = run jacobian 1 in
        List.iter
          (fun (name, points) ->
            check_bool (name ^ " j1") true (Bytes.equal r1 (run points 1));
            check_bool (name ^ " j2") true (Bytes.equal r1 (run points 2));
            check_bool (name ^ " j4") true (Bytes.equal r1 (run points 4)))
          [ ("Jacobian", jacobian); ("affine", affine) ]);
    Alcotest.test_case "Pedersen blinder term = mul_fr, first use on 4 domains" `Quick
      (fun () ->
        (* the shared blinder table is built on first use; several domains
           race to build it here and must all agree with the oracle *)
        let key = Pedersen.create_key 16 in
        let v = Array.init 16 (fun _ -> Fr.random st) in
        let blinds = Array.init 8 (fun _ -> Fr.random st) in
        let commits =
          with_jobs 4 (fun () ->
              Parallel.parallel_init 8 (fun i -> Pedersen.commit key v ~blind:blinds.(i)))
        in
        let base = Msm.msm (Pedersen.generators key) v in
        Array.iteri
          (fun i c ->
            let oracle = G1.add base (G1.mul_fr (Pedersen.blinder key) blinds.(i)) in
            check_bool (Printf.sprintf "blind %d" i) true
              (Bytes.equal (G1.to_bytes c) (G1.to_bytes oracle)))
          commits;
        (* a key with another blinder takes the direct multiplication *)
        let other = Pedersen.of_raw ~generators:(Pedersen.generators key) ~blinder:G1.generator in
        check_bool "foreign blinder" true
          (G1.equal (Pedersen.commit other v ~blind:blinds.(0))
             (G1.add base (G1.mul_fr G1.generator blinds.(0))))) ]

let qcheck_kernel_tests =
  let st = Random.State.make [| 51; 52 |] in
  let fr_arr n = QCheck.make (fun _ -> Array.init n (fun _ -> Fr.random st)) in
  [ QCheck.Test.make ~name:"qcheck: parallel NTT = sequential NTT" ~count:8
      (fr_arr 2048) (fun coeffs ->
        let dom = D.create 2048 in
        let seq = with_jobs 1 (fun () -> let a = Array.copy coeffs in D.ntt dom a; a) in
        let par = with_jobs 4 (fun () -> let a = Array.copy coeffs in D.ntt dom a; a) in
        fr_array_equal seq par);
    QCheck.Test.make ~name:"qcheck: parallel MSM = sequential MSM" ~count:5
      (fr_arr 300) (fun scalars ->
        let points = Array.map (fun s -> G1.mul_fr G1.generator s) scalars in
        let seq = with_jobs 1 (fun () -> Msm.msm points scalars) in
        let par = with_jobs 4 (fun () -> Msm.msm points scalars) in
        Bytes.equal (G1.to_bytes seq) (G1.to_bytes par)) ]

(* ---------------- end-to-end proof determinism ---------------- *)

(* squaring chain: enough constraints to cross every parallel threshold
   (NTT >= 1024, QAP rows >= 256, MSM windows, sumcheck half >= 1024) *)
let chain_circuit n =
  let b = Bld.create () in
  let x0 = Bld.alloc b (Fr.of_int 3) in
  let acc = ref (L.of_var x0) in
  for _ = 1 to n do
    acc := L.of_var (Gg.mul b !acc !acc)
  done;
  Bld.finalize b

let proof_tests =
  [ Alcotest.test_case "Groth16 proof bytes identical for jobs 1/2/4" `Slow (fun () ->
        let cs, assignment = chain_circuit 1200 in
        let qap = Groth16.Qap.create cs in
        let pk, vk = Groth16.setup (Random.State.make [| 42 |]) qap in
        let run j =
          with_jobs j (fun () ->
              let rng = Random.State.make [| 1337 |] in
              Groth16.proof_to_bytes (Groth16.prove rng pk qap assignment))
        in
        let p1 = run 1 in
        check_bool "j2" true (Bytes.equal p1 (run 2));
        check_bool "j4" true (Bytes.equal p1 (run 4));
        let proof = Groth16.proof_of_bytes_exn p1 in
        check_bool "verifies" true (Groth16.verify vk ~public_inputs:[] proof));
    Alcotest.test_case "Spartan proof identical for jobs 1/2/4" `Slow (fun () ->
        let cs, assignment = chain_circuit 2048 in
        let inst = Spartan.preprocess cs in
        let key = Spartan.setup inst in
        let run j =
          with_jobs j (fun () ->
              let rng = Random.State.make [| 1337 |] in
              (* the proof is plain data (canonical field / point reprs),
                 so structural bytes compare across job counts *)
              Marshal.to_string (Spartan.prove rng key inst assignment) [])
        in
        let p1 = run 1 in
        check_bool "j2" true (String.equal p1 (run 2));
        check_bool "j4" true (String.equal p1 (run 4));
        let proof : Spartan.proof = Marshal.from_string p1 0 in
        check_bool "verifies" true (Spartan.verify key inst ~public_inputs:[] proof)) ]

let () =
  Alcotest.run "zkvc_parallel"
    [ ("pool", pool_tests);
      ("kernel-determinism",
       kernel_tests @ List.map QCheck_alcotest.to_alcotest qcheck_kernel_tests);
      ("proof-determinism", proof_tests) ]
