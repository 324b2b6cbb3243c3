(* Adversarial soundness tests: the rejection-side complement of the
   honest-path suites. Drives the Zkvc_adversary fault-injection harness
   over both backends at two dimension scales, qcheck-randomises the
   mutation seeds, exercises wire attacks end-to-end through a live
   proof service, and pins the two bugfixes that shipped with the
   harness (transcript challenge-label ambiguity, serve deadlines on a
   non-monotonic clock). *)

module Fr = Zkvc_field.Fr
module Bigint = Zkvc_num.Bigint
module T = Zkvc_transcript.Transcript
module Ch = T.Challenge (Fr)
module Api = Zkvc.Api
module Mc = Zkvc.Matmul_circuit
module Mspec = Zkvc.Matmul_spec
module Spec = Mspec.Make (Fr)
module Adv = Zkvc_adversary.Adversary
module Spartan = Zkvc_spartan.Spartan
module Wire = Zkvc_serve.Wire
module Server = Zkvc_serve.Server
module Client = Zkvc_serve.Client
module Span = Zkvc_obs.Span

let check_bool = Alcotest.(check bool)

let qtest ?(count = 5) name prop gen =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name prop gen)

let tiny = Mspec.dims ~a:2 ~n:2 ~b:2

(* ------------------------------------------------------------------ *)
(* Regression: challenge-label ambiguity in the transcript            *)
(* ------------------------------------------------------------------ *)

(* The old scheme concatenated label and index ("r" ^ "11" = "r1" ^ "1")
   and tagged the wide challenge's hi half by appending to the label, so
   distinct derivations could absorb identical byte strings. The fix
   absorbs each component length-prefixed; these four spellings of the
   same concatenated bytes must now all land on distinct challenges. *)
let transcript_tests =
  let fresh () = T.create ~label:"collide" in
  [ Alcotest.test_case "(r,11) / (r1,1) / r11 are distinct" `Quick (fun () ->
        let c_r_11 = List.nth (Ch.challenges (fresh ()) ~label:"r" 12) 11 in
        let c_r1_1 = List.nth (Ch.challenges (fresh ()) ~label:"r1" 2) 1 in
        let c_r11 = Ch.challenge (fresh ()) ~label:"r11" in
        check_bool "(r,11) <> (r1,1)" false (Fr.equal c_r_11 c_r1_1);
        check_bool "(r,11) <> r11" false (Fr.equal c_r_11 c_r11);
        check_bool "(r1,1) <> r11" false (Fr.equal c_r1_1 c_r11));
    Alcotest.test_case "user '/hi' label cannot replay the wide challenge" `Quick
      (fun () ->
        (* a wide challenge draws two 32-byte blocks; a user spelling the
           hi half's old internal label must not reproduce it *)
        let c_wide = Ch.challenge (fresh ()) ~label:"x" in
        let forge hi_label =
          let t = fresh () in
          let b1 = T.challenge_bytes t ~label:"x" in
          let b2 = T.challenge_bytes t ~label:hi_label in
          Fr.of_bigint (Bigint.of_bytes_be (Bytes.cat b1 b2))
        in
        check_bool "label x/hi" false (Fr.equal c_wide (forge "x/hi"));
        check_bool "label xhi" false (Fr.equal c_wide (forge "xhi")));
    Alcotest.test_case "prover/verifier replay still agrees" `Quick (fun () ->
        let t1 = fresh () in
        Ch.absorb t1 ~label:"v" (Fr.of_int 7);
        let t2 = T.clone t1 in
        let c1 = Ch.challenges t1 ~label:"r" 3 in
        let c2 = Ch.challenges t2 ~label:"r" 3 in
        check_bool "replay equal" true (List.for_all2 Fr.equal c1 c2)) ]

(* ------------------------------------------------------------------ *)
(* Regression: serve deadlines/uptime on an injectable clock          *)
(* ------------------------------------------------------------------ *)

let temp_socket name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "zkvc-adv-%s-%d.sock" name (Unix.getpid ()))

let with_server cfg f =
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown t;
      Server.wait t;
      (* Server.start installed cfg.clock globally; restore the default *)
      Span.set_clock Sys.time)
    (fun () -> f t)

let clock_tests =
  [ Alcotest.test_case "uptime follows the injected clock" `Quick (fun () ->
        let now = ref 1000. in
        let cfg =
          { (Server.default_config ~socket_path:(temp_socket "uptime")) with
            Server.clock = Some (fun () -> !now) }
        in
        with_server cfg (fun srv ->
            now := 1042.;
            let st = Server.status srv in
            check_bool "uptime tracks simulated clock" true
              (st.Wire.uptime_s > 41.9 && st.Wire.uptime_s < 42.1)));
    Alcotest.test_case "deadline fires on a simulated clock step" `Slow (fun () ->
        (* an NTP-style forward step used to expire every queued job when
           deadlines read Unix.gettimeofday; with the span clock routed
           through config this is now an explicit, testable behaviour *)
        let now = ref 5000. in
        let socket = temp_socket "deadline" in
        let cfg =
          { (Server.default_config ~socket_path:socket) with
            Server.clock = Some (fun () -> !now);
            job_delay_s = 1.0 }
        in
        with_server cfg (fun _ ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket);
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                Wire.write_frame fd
                  (Wire.Request
                     ( None,
                       Wire.Prove
                         { backend = Api.Backend_spartan;
                           strategy = Mc.Vanilla;
                           dims = tiny;
                           input = Wire.Seeded { seed = 1; bound = 16 };
                           deadline_ms = 1000 } ));
                (* Give the reader thread real time to stamp the job's
                   arrival at [!now] (stepping first would push the
                   deadline past the step too), then jump the clock 10
                   simulated seconds past the 1 s deadline while the
                   worker is still inside job_delay_s. *)
                Thread.delay 0.25;
                now := !now +. 10.;
                match Wire.read_frame fd with
                | Ok (Wire.Response (_, Wire.Error { code = Wire.Deadline_exceeded; _ }))
                  ->
                  ()
                | Ok f ->
                  Alcotest.failf "expected Deadline_exceeded, got %s"
                    (match f with
                     | Wire.Response (_, Wire.Prove_ok _) -> "Prove_ok"
                     | _ -> "another frame")
                | Error e -> Alcotest.failf "transport: %s" (Wire.error_to_string e))));
    Alcotest.test_case "steady simulated clock does not expire deadlines" `Slow
      (fun () ->
        let now = ref 9000. in
        let socket = temp_socket "steady" in
        let cfg =
          { (Server.default_config ~socket_path:socket) with
            Server.clock = Some (fun () -> !now) }
        in
        with_server cfg (fun _ ->
            Client.with_connection socket (fun c ->
                match
                  Client.request_exn c
                    (Wire.Prove
                       { backend = Api.Backend_spartan;
                         strategy = Mc.Vanilla;
                         dims = tiny;
                         input = Wire.Seeded { seed = 1; bound = 16 };
                         deadline_ms = 60_000 })
                with
                | Wire.Prove_ok _ -> ()
                | _ -> Alcotest.fail "expected Prove_ok"))) ]

(* ------------------------------------------------------------------ *)
(* Api.run reports rejection as data                                  *)
(* ------------------------------------------------------------------ *)

let api_tests =
  [ Alcotest.test_case "honest run has verified = true" `Quick (fun () ->
        let rng = Random.State.make [| 11 |] in
        let x = Spec.random_matrix rng ~rows:2 ~cols:2 ~bound:64 in
        let w = Spec.random_matrix rng ~rows:2 ~cols:2 ~bound:64 in
        let _proof, m = Api.run ~rng Api.Backend_spartan Mc.Crpc_psq ~x ~w tiny in
        check_bool "verified" true m.Api.verified);
    Alcotest.test_case "corrupt witness yields verified = false, no raise" `Quick
      (fun () ->
        let rng = Random.State.make [| 12 |] in
        let x = Spec.random_matrix rng ~rows:2 ~cols:2 ~bound:64 in
        let w = Spec.random_matrix rng ~rows:2 ~cols:2 ~bound:64 in
        let prep = Api.prepare Mc.Vanilla ~x ~w tiny in
        let keys = Api.keygen ~rng Api.Backend_spartan prep.Api.cs in
        let bad = Array.copy prep.Api.assignment in
        bad.(1) <- Fr.add bad.(1) Fr.one;
        let proof = Api.prove_with ~rng keys bad in
        let publics =
          Array.to_list (Array.sub prep.Api.assignment 1 (Api.Cs.num_inputs prep.Api.cs))
        in
        check_bool "rejected" false (Api.verify_with keys ~public_inputs:publics proof)) ]

(* ------------------------------------------------------------------ *)
(* Harness sweeps: every mutation class rejected, both backends, two  *)
(* dimension scales                                                   *)
(* ------------------------------------------------------------------ *)

let clean_or_fail t =
  let r = Adv.run_target t in
  check_bool "honest proof verified" true r.Adv.honest_verified;
  List.iter
    (fun c -> Alcotest.failf "forgery: %s — %s" (Adv.case_name c) (Adv.repro_hint t c))
    (Adv.failures r)

let adversary_tests =
  [ Alcotest.test_case "spartan: all strategies x both scales reject everything"
      `Slow (fun () ->
        List.iter
          (fun strategy ->
            List.iter
              (fun dims ->
                clean_or_fail
                  { Adv.backend = Api.Backend_spartan; strategy; dims; seed = 42 })
              Adv.default_dims)
          Mc.all_strategies);
    Alcotest.test_case "groth16: full mutation set rejected (crpc+psq)" `Slow
      (fun () ->
        clean_or_fail
          { Adv.backend = Api.Backend_groth16;
            strategy = Mc.Crpc_psq;
            dims = tiny;
            seed = 42 });
    Alcotest.test_case "groth16: full mutation set at the second scale" `Slow
      (fun () ->
        (* vanilla runs every family incl. the cross-statement splices
           (challenge-bearing strategies skip those); the crpc challenge
           family at this scale is covered by a filtered crpc+psq run *)
        clean_or_fail
          { Adv.backend = Api.Backend_groth16;
            strategy = Mc.Vanilla;
            dims = Mspec.dims ~a:3 ~n:3 ~b:2;
            seed = 43 };
        let r =
          Adv.run_target ~only:"crpc."
            { Adv.backend = Api.Backend_groth16;
              strategy = Mc.Crpc_psq;
              dims = Mspec.dims ~a:3 ~n:3 ~b:2;
              seed = 43 }
        in
        check_bool "honest proof verified" true r.Adv.honest_verified;
        check_bool "has both crpc challenge cases" true (List.length r.Adv.cases >= 2);
        List.iter
          (fun c -> Alcotest.failf "forgery: %s" (Adv.case_name c))
          (Adv.failures r));
    Alcotest.test_case "same seed reproduces the same verdicts" `Quick (fun () ->
        let t =
          { Adv.backend = Api.Backend_spartan;
            strategy = Mc.Crpc;
            dims = tiny;
            seed = 7 }
        in
        let names r = List.map Adv.case_name r.Adv.cases in
        let r1 = Adv.run_target t and r2 = Adv.run_target t in
        check_bool "same case list" true (names r1 = names r2);
        check_bool "same verdicts" true
          (List.for_all2
             (fun a b -> Adv.outcome_is_sound a.Adv.outcome = Adv.outcome_is_sound b.Adv.outcome)
             r1.Adv.cases r2.Adv.cases));
    Alcotest.test_case "repro hint carries the full target" `Quick (fun () ->
        let t =
          { Adv.backend = Api.Backend_spartan;
            strategy = Mc.Crpc_psq;
            dims = Mspec.dims ~a:3 ~n:2 ~b:2;
            seed = 99 }
        in
        let c =
          { Adv.family = "witness"; mutation = "y[0,0]+1"; outcome = Adv.Accepted;
            detail = "" }
        in
        let hint = Adv.repro_hint t c in
        let contains needle =
          let n = String.length needle and m = String.length hint in
          let rec go i = i + n <= m && (String.sub hint i n = needle || go (i + 1)) in
          go 0
        in
        List.iter
          (fun needle ->
            check_bool (Printf.sprintf "hint has %S" needle) true (contains needle))
          [ "--seed 99"; "spartan"; "crpc+psq"; "3,2,2"; "witness.y[0,0]+1" ]) ]

(* ------------------------------------------------------------------ *)
(* qcheck: random mutation seeds                                      *)
(* ------------------------------------------------------------------ *)

let gen_small_dims =
  QCheck.Gen.oneofl
    [ Mspec.dims ~a:2 ~n:2 ~b:2;
      Mspec.dims ~a:3 ~n:2 ~b:2;
      Mspec.dims ~a:2 ~n:3 ~b:2;
      Mspec.dims ~a:2 ~n:2 ~b:3 ]

let gen_strategy3 = QCheck.Gen.oneofl [ Mc.Vanilla; Mc.Crpc; Mc.Crpc_psq ]

let gen_seed = QCheck.Gen.int_bound 100_000

let qcheck_tests =
  [ qtest ~count:6 "spartan: random seeds, all mutations rejected"
      QCheck.(make Gen.(triple gen_seed gen_strategy3 gen_small_dims))
      (fun (seed, strategy, dims) ->
        Adv.is_clean
          (Adv.run_target { Adv.backend = Api.Backend_spartan; strategy; dims; seed }));
    qtest ~count:2 "groth16: random seeds, point/splice mutations rejected"
      QCheck.(make Gen.(triple gen_seed gen_strategy3 gen_small_dims))
      (fun (seed, strategy, dims) ->
        let r =
          Adv.run_target ~only:"groth16."
            { Adv.backend = Api.Backend_groth16; strategy; dims; seed }
        in
        r.Adv.honest_verified && Adv.failures r = []) ]

(* ------------------------------------------------------------------ *)
(* Wire attacks end-to-end through a live server                      *)
(* ------------------------------------------------------------------ *)

let e2e_tests =
  [ Alcotest.test_case "mutated proof over the socket answers false, never true"
      `Slow (fun () ->
        let socket = temp_socket "e2e" in
        let cfg = Server.default_config ~socket_path:socket in
        with_server cfg (fun _ ->
            Client.with_connection socket (fun c ->
                match
                  Client.request_exn c
                    (Wire.Prove
                       { backend = Api.Backend_spartan;
                         strategy = Mc.Crpc_psq;
                         dims = tiny;
                         input = Wire.Seeded { seed = 5; bound = 64 };
                         deadline_ms = 0 })
                with
                | Wire.Prove_ok { key_id; public_inputs; proof; _ } ->
                  let verify proof =
                    match
                      Client.request_exn c
                        (Wire.Verify { key_id; public_inputs; proof; deadline_ms = 0 })
                    with
                    | Wire.Verify_ok ok -> ok
                    | _ -> Alcotest.fail "expected Verify_ok"
                  in
                  check_bool "honest proof accepted" true (verify proof);
                  let sp = match proof with
                    | Api.Spartan_proof p -> p
                    | Api.Groth16_proof _ -> Alcotest.fail "expected spartan proof"
                  in
                  List.iteri
                    (fun i site ->
                      if i < 4 then
                        check_bool
                          (Printf.sprintf "server rejects %s"
                             (Spartan.Mutate.site_name site))
                          false
                          (verify (Api.Spartan_proof (Spartan.Mutate.apply site sp))))
                    (Spartan.Mutate.sites sp);
                  (* a bit flip inside the proof bytes of the raw frame:
                     the server must answer a typed error or false *)
                  let frame =
                    Wire.encode_frame
                      (Wire.Request
                         (None, Wire.Verify { key_id; public_inputs; proof; deadline_ms = 0 }))
                  in
                  let flipped = Bytes.copy frame in
                  let pos = Bytes.length flipped - 9 in
                  Bytes.set flipped pos
                    (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x10));
                  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                  Unix.connect fd (Unix.ADDR_UNIX socket);
                  Fun.protect
                    ~finally:(fun () -> Unix.close fd)
                    (fun () ->
                      let n = Unix.write fd flipped 0 (Bytes.length flipped) in
                      check_bool "frame written" true (n = Bytes.length flipped);
                      match Wire.read_frame fd with
                      | Ok (Wire.Response (_, Wire.Verify_ok ok)) ->
                        check_bool "flipped frame never verifies true" false ok
                      | Ok (Wire.Response (_, Wire.Error _)) -> ()
                      | Ok _ -> Alcotest.fail "unexpected response frame"
                      | Error e ->
                        Alcotest.failf "transport: %s" (Wire.error_to_string e))
                | _ -> Alcotest.fail "expected Prove_ok"))) ]

let () =
  Alcotest.run "zkvc_adversary"
    [ ("transcript-regression", transcript_tests);
      ("serve-clock-regression", clock_tests);
      ("api-verified", api_tests);
      ("harness", adversary_tests);
      ("qcheck-seeds", qcheck_tests);
      ("serve-e2e", e2e_tests) ]
