(* Proof-service tests: wire-codec round trips over every frame type,
   malformed-input fuzzing (decoding is total: typed errors, never
   exceptions, never over-reads), key-cache LRU + disk spill + per-key
   single-flight, batched verification with corrupted members, the
   two-lane fair scheduler, and end-to-end socket sessions including
   queue-full backpressure, deadlines, lane priority and multi-worker
   byte-identity. *)

module Fr = Zkvc_field.Fr
module Api = Zkvc.Api
module Mc = Zkvc.Matmul_circuit
module Mspec = Zkvc.Matmul_spec
module Spec = Mspec.Make (Fr)
module Spartan = Zkvc_spartan.Spartan
module Wire = Zkvc_serve.Wire
module Key_cache = Zkvc_serve.Key_cache
module Jobs = Zkvc_serve.Jobs
module Batch = Zkvc_serve.Batch
module Server = Zkvc_serve.Server
module Client = Zkvc_serve.Client
module Span = Zkvc_obs.Span
module Sink = Zkvc_obs.Sink
module Expose = Zkvc_obs.Expose
module Metrics = Zkvc_obs.Metrics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let tiny = Mspec.dims ~a:2 ~n:2 ~b:2

(* Observing servers enable the process-wide sink; a case that starts one
   switches it off again so later cases run unobserved. *)
let observed f = Fun.protect ~finally:Sink.disable f

let counter name = Metrics.counter_value (Metrics.counter name)

let instance_of_seed seed = Spec.seeded_statement ~seed ~bound:16 tiny

(* one real statement + keys + proof per backend, shared by the suites *)
let fixture backend strategy seed =
  let rng, x, w = instance_of_seed seed in
  let prep = Api.prepare strategy ~x ~w tiny in
  let keys = Api.keygen ~rng backend prep.Api.cs in
  let proof = Api.prove_with ~rng keys prep.Api.assignment in
  let public_inputs =
    Array.to_list (Array.sub prep.Api.assignment 1 (Api.Cs.num_inputs prep.Api.cs))
  in
  (prep, keys, public_inputs, proof)

let groth16_fix = lazy (fixture Api.Backend_groth16 Mc.Vanilla 3)
let spartan_fix = lazy (fixture Api.Backend_spartan Mc.Vanilla 3)
let crpc_fix = lazy (fixture Api.Backend_spartan Mc.Crpc_psq 3)

(* a Spartan proof with the IPA opening, to cover both opening codecs *)
let spartan_ipa_proof =
  lazy
    (let rng, x, w = instance_of_seed 4 in
     let prep = Api.prepare Mc.Vanilla ~x ~w tiny in
     let inst = Spartan.preprocess prep.Api.cs in
     let key = Spartan.setup inst in
     Api.Spartan_proof (Spartan.prove ~opening_mode:`Ipa rng key inst prep.Api.assignment))

let sample_proofs =
  lazy
    (let _, _, _, g = Lazy.force groth16_fix in
     let _, _, _, s = Lazy.force spartan_fix in
     [| g; s; Lazy.force spartan_ipa_proof |])

(* ---------------- generators ---------------- *)

let gen_fr =
  QCheck.Gen.(
    oneof
      [ map Fr.of_int (int_bound 1_000_000);
        map (fun seed -> Fr.random (Random.State.make [| seed; 99 |])) (int_bound 10_000) ])

let gen_fr_list = QCheck.Gen.(list_size (int_bound 5) gen_fr)

let gen_dims =
  QCheck.Gen.(
    map3 (fun a n b -> Mspec.dims ~a:(a + 1) ~n:(n + 1) ~b:(b + 1)) (int_bound 3)
      (int_bound 3) (int_bound 3))

let gen_matrix rows cols =
  QCheck.Gen.(
    map
      (fun seed ->
        let st = Random.State.make [| seed; 7 |] in
        Array.init rows (fun _ -> Array.init cols (fun _ -> Fr.random st)))
      (int_bound 10_000))

let gen_backend = QCheck.Gen.oneofl [ Api.Backend_groth16; Api.Backend_spartan ]
let gen_strategy = QCheck.Gen.oneofl Mc.all_strategies
let gen_proof = QCheck.Gen.(map (fun i -> (Lazy.force sample_proofs).(i)) (int_bound 2))
let gen_key_id = QCheck.Gen.(map (fun s -> Bytes.to_string (Zkvc_hash.Sha256.digest_string s)) string)
let gen_deadline = QCheck.Gen.int_bound 10_000

let gen_request =
  let open QCheck.Gen in
  let gen_input dims =
    oneof
      [ map2 (fun seed bound -> Wire.Seeded { seed; bound = bound + 1 }) int (int_bound 500);
        (fun st ->
          let x = gen_matrix dims.Mspec.a dims.Mspec.n st in
          let w = gen_matrix dims.Mspec.n dims.Mspec.b st in
          Wire.Explicit { seed = int st; x; w }) ]
  in
  oneof
    [ (fun st ->
        let backend = gen_backend st and strategy = gen_strategy st in
        let dims = gen_dims st in
        Wire.Keygen
          { backend; strategy; dims; seed = int st; bound = 1 + int_bound 500 st;
            deadline_ms = gen_deadline st });
      (fun st ->
        let backend = gen_backend st and strategy = gen_strategy st in
        let dims = gen_dims st in
        Wire.Prove
          { backend; strategy; dims; input = gen_input dims st;
            deadline_ms = gen_deadline st });
      (fun st ->
        Wire.Verify
          { key_id = gen_key_id st; public_inputs = gen_fr_list st; proof = gen_proof st;
            deadline_ms = gen_deadline st });
      (fun st ->
        let items =
          list_size (int_bound 3) (pair gen_fr_list gen_proof) st
        in
        Wire.Batch_verify { key_id = gen_key_id st; items; deadline_ms = gen_deadline st });
      return Wire.Status;
      return Wire.Status_detail;
      return Wire.Shutdown ]

let gen_status =
  QCheck.Gen.(
    map
      (fun seed ->
        let st = Random.State.make [| seed; 13 |] in
        let i () = Random.State.int st 1_000_000 in
        { Wire.uptime_s = Random.State.float st 1.0e6;
          requests = i ();
          queue_depth = i ();
          queue_capacity = i ();
          cache_hits = i ();
          cache_misses = i ();
          cache_entries = i ();
          timeouts = i ();
          rejections = i ();
          batched = i ();
          workers = i ();
          workers_busy = i ();
          queue_depth_verify = i ();
          queue_depth_prove = i () })
      int)

let gen_error_code =
  QCheck.Gen.oneofl
    [ Wire.Queue_full; Wire.Deadline_exceeded; Wire.Bad_request; Wire.Unknown_key;
      Wire.Shutting_down; Wire.Internal ]

let gen_response =
  let open QCheck.Gen in
  oneof
    [ (fun st ->
        Wire.Keygen_ok
          { key_id = gen_key_id st; cache_hit = bool st;
            key_bytes = Bytes.of_string (string_size (int_bound 64) st) });
      (fun st ->
        Wire.Prove_ok
          { key_id = gen_key_id st;
            cache_hit = bool st;
            challenge = (if bool st then Some (gen_fr st) else None);
            public_inputs = gen_fr_list st;
            proof = gen_proof st;
            prove_s = float_bound_inclusive 1.0e9 st });
      map (fun b -> Wire.Verify_ok b) bool;
      map (fun bs -> Wire.Batch_ok bs) (list_size (int_bound 6) bool);
      map (fun s -> Wire.Status_ok s) gen_status;
      (fun st ->
        Wire.Status_detail_ok
          { status = gen_status st;
            metrics_text = string_size (int_bound 120) st;
            flight_jsonl = string_size (int_bound 120) st });
      return Wire.Shutdown_ok;
      (fun st ->
        Wire.Error { code = gen_error_code st; message = string_size (int_bound 80) st }) ]

let gen_request_id =
  QCheck.Gen.(
    map
      (fun seed ->
        String.sub
          (Bytes.to_string (Zkvc_hash.Sha256.digest_string (string_of_int seed)))
          0 Wire.request_id_bytes)
      int)

let gen_trace =
  QCheck.Gen.(
    map2
      (fun id origin -> { Wire.tr_request_id = id; tr_origin = origin })
      gen_request_id
      (string_size (int_bound 40)))

let gen_timing =
  let open QCheck.Gen in
  fun st ->
    let phase _ =
      ( string_size (int_bound 24) st,
        float_bound_inclusive 10.0 st,
        float_bound_inclusive 10.0 st )
    in
    { Wire.tm_request_id = gen_request_id st;
      tm_queue_wait_s = float_bound_inclusive 5.0 st;
      tm_exec_s = float_bound_inclusive 5.0 st;
      tm_phases = List.init (int_bound 4 st) phase }

let gen_opt g = QCheck.Gen.(oneof [ return None; map Option.some g ])

let gen_frame =
  QCheck.Gen.(
    oneof
      [ map2 (fun tr r -> Wire.Request (tr, r)) (gen_opt gen_trace) gen_request;
        map2 (fun tm r -> Wire.Response (tm, r)) (gen_opt gen_timing) gen_response ])

let arb_frame = QCheck.make gen_frame

(* frames are compared through their canonical encoding: the codec is
   deterministic, so byte equality is frame equality *)
let roundtrips f =
  let b = Wire.encode_frame f in
  match Wire.decode_frame b with
  | Error e -> Alcotest.failf "decode failed: %s" (Wire.error_to_string e)
  | Ok g -> Bytes.equal (Wire.encode_frame g) b

(* ---------------- codec suites ---------------- *)

let qtest ?(count = 30) name prop gen = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name prop gen)

let fixed_trace =
  { Wire.tr_request_id = String.make Wire.request_id_bytes 'r'; tr_origin = "pid:42" }

let fixed_timing =
  { Wire.tm_request_id = String.make Wire.request_id_bytes 'r';
    tm_queue_wait_s = 0.25;
    tm_exec_s = 1.5;
    tm_phases = [ ("serve.request.prove", 0.0, 1.4); ("keygen", 0.1, 0.9) ] }

let fixed_status_detail =
  Wire.Status_detail_ok
    { status =
        { Wire.uptime_s = 1.0; requests = 3; queue_depth = 0; queue_capacity = 64;
          cache_hits = 1; cache_misses = 2; cache_entries = 2; timeouts = 0;
          rejections = 0; batched = 0; workers = 2; workers_busy = 1;
          queue_depth_verify = 0; queue_depth_prove = 1 };
      metrics_text = "# TYPE zkvc_serve_requests counter\n";
      flight_jsonl = "{\"kind\":\"prove\"}\n" }

let sha_of_frame f = Zkvc_hash.Sha256.(to_hex (digest (Wire.encode_frame f)))

let codec_tests =
  [ qtest "every frame type round-trips" arb_frame roundtrips;
    Alcotest.test_case "fixed frames round-trip" `Quick (fun () ->
        let _, _, io, proof = Lazy.force groth16_fix in
        let trace = Some fixed_trace and timing = Some fixed_timing in
        let frames =
          [ Wire.Request (None, Wire.Status);
            Wire.Request (trace, Wire.Status);
            Wire.Request (trace, Wire.Status_detail);
            Wire.Request (None, Wire.Shutdown);
            Wire.Request
              ( trace,
                Wire.Verify
                  { key_id = String.make 32 'k'; public_inputs = io; proof;
                    deadline_ms = 0 } );
            Wire.Response (None, Wire.Shutdown_ok);
            Wire.Response (timing, Wire.Verify_ok true);
            Wire.Response (timing, fixed_status_detail);
            Wire.Response
              (None, Wire.Error { code = Wire.Queue_full; message = "job queue is full" }) ]
        in
        List.iter (fun f -> check_bool "roundtrip" true (roundtrips f)) frames);
    (* The frame encoding must not drift: these digests were taken from
       the encoder before the v1/v2 codec paths were removed. *)
    Alcotest.test_case "golden bytes: traced Verify request" `Quick (fun () ->
        let _, _, io, proof = Lazy.force groth16_fix in
        Alcotest.(check string) "traced Verify request"
          "8ccd968cf57f765171b6c036203633751be68a1285cdff1145c28aa607e0a3eb"
          (sha_of_frame
             (Wire.Request
                ( Some fixed_trace,
                  Wire.Verify
                    { key_id = String.make 32 'k'; public_inputs = io; proof;
                      deadline_ms = 0 } ))));
    Alcotest.test_case "golden bytes: timed Status_detail_ok response" `Quick (fun () ->
        Alcotest.(check string) "timed Status_detail_ok response"
          "bbaa6ffe1886e6506f3cb488037f6b17709654cb8ec139b9629e3dd7cf67cca1"
          (sha_of_frame (Wire.Response (Some fixed_timing, fixed_status_detail))));
    Alcotest.test_case "golden bytes: traced Batch_verify request" `Quick (fun () ->
        let _, _, io, proof = Lazy.force groth16_fix in
        Alcotest.(check string) "traced Batch_verify request"
          "28a2cbb6219d0d9963e0e485d32016eb274474d9494e4a3af954d4b55081c121"
          (sha_of_frame
             (Wire.Request
                ( Some fixed_trace,
                  Wire.Batch_verify
                    { key_id = String.make 32 'k';
                      items = [ (io, proof); (io, proof) ];
                      deadline_ms = 0 } ))));
    Alcotest.test_case "status floats keep all 64 bits" `Quick (fun () ->
        (* uptimes above 4.0 have float bit patterns past 2^62: a codec
           that squeezes them through a 63-bit int corrupts the sign *)
        List.iter
          (fun u ->
            let s =
              { Wire.uptime_s = u; requests = 0; queue_depth = 0; queue_capacity = 0;
                cache_hits = 0; cache_misses = 0; cache_entries = 0; timeouts = 0;
                rejections = 0; batched = 0; workers = 0; workers_busy = 0;
                queue_depth_verify = 0; queue_depth_prove = 0 }
            in
            match
              Wire.decode_frame (Wire.encode_frame (Wire.Response (None, Wire.Status_ok s)))
            with
            | Ok (Wire.Response (None, Wire.Status_ok s')) ->
              if s'.Wire.uptime_s <> u then
                Alcotest.failf "uptime %.17g decoded as %.17g" u s'.Wire.uptime_s
            | _ -> Alcotest.fail "decode failed")
          [ 0.; 0.5; 3.9999; 4.3; 1.0e9; Float.max_float ]) ]

(* ---------------- malformed input ---------------- *)

let decode_never_raises b =
  match Wire.decode_frame b with
  | Ok _ | Error _ -> true
  | exception e -> Alcotest.failf "decode raised %s" (Printexc.to_string e)

let sample_frame () =
  let _, _, io, proof = Lazy.force groth16_fix in
  Wire.encode_frame
    (Wire.Request
       ( None,
         Wire.Verify
           { key_id = String.make 32 'i'; public_inputs = io; proof; deadline_ms = 9 } ))

let malformed_tests =
  [ Alcotest.test_case "every truncation is a typed error" `Quick (fun () ->
        let b = sample_frame () in
        for i = 0 to Bytes.length b - 1 do
          match Wire.decode_frame (Bytes.sub b 0 i) with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "prefix of %d bytes decoded" i
          | exception e ->
            Alcotest.failf "prefix of %d bytes raised %s" i (Printexc.to_string e)
        done);
    Alcotest.test_case "bad magic" `Quick (fun () ->
        let b = sample_frame () in
        Bytes.set b 0 'X';
        match Wire.decode_frame b with
        | Error Wire.Bad_magic -> ()
        | _ -> Alcotest.fail "expected Bad_magic");
    Alcotest.test_case "unknown version" `Quick (fun () ->
        (* frames, proof files and key files all carry their version at
           byte 4; only version 3 decodes *)
        let _, keys, io, proof = Lazy.force groth16_fix in
        let proof_file =
          Wire.encode_proof_file
            { Wire.pf_backend = Api.Backend_groth16; pf_strategy = Mc.Vanilla;
              pf_dims = tiny; pf_challenge = None; pf_key_id = String.make 32 'v';
              pf_public_inputs = io; pf_proof = proof }
        in
        let key_file =
          Wire.encode_key_file
            { Wire.kf_backend = Api.Backend_groth16; kf_strategy = Mc.Vanilla;
              kf_dims = tiny; kf_challenge = None; kf_opt = None;
              kf_key_id = String.make 32 'v'; kf_keys = keys }
        in
        let with_version b v =
          let b = Bytes.copy b in
          Bytes.set b 4 (Char.chr v);
          b
        in
        let expect what v = function
          | Error (Wire.Unsupported_version v') when v' = v -> ()
          | _ -> Alcotest.failf "%s: expected Unsupported_version %d" what v
        in
        List.iter
          (fun v ->
            expect "frame" v (Wire.decode_frame (with_version (sample_frame ()) v));
            expect "proof file" v (Wire.decode_proof_file (with_version proof_file v));
            expect "key file" v (Wire.decode_key_file (with_version key_file v)))
          [ 1; 2; 42 ]);
    Alcotest.test_case "unknown kind" `Quick (fun () ->
        let b = sample_frame () in
        Bytes.set b 5 '\055';
        match Wire.decode_frame b with
        | Error (Wire.Bad_tag { what = "frame kind"; tag = 55 }) -> ()
        | _ -> Alcotest.fail "expected Bad_tag");
    Alcotest.test_case "oversized length never allocates or over-reads" `Quick (fun () ->
        (* header declares a payload far past the buffer and the bound *)
        let b = Bytes.of_string "ZKVC\003\005\255\255\255\255" in
        match Wire.decode_frame b with
        | Error (Wire.Oversized _) -> ()
        | _ -> Alcotest.fail "expected Oversized");
    Alcotest.test_case "trailing bytes rejected" `Quick (fun () ->
        let b = sample_frame () in
        let b' = Bytes.cat b (Bytes.of_string "x") in
        match Wire.decode_frame b' with
        | Error (Wire.Malformed _) -> ()
        | _ -> Alcotest.fail "expected Malformed trailing");
    qtest ~count:200 "single-byte mutations never raise"
      QCheck.(pair (make gen_frame) (pair small_nat small_nat))
      (fun (f, (pos, v)) ->
        let b = Wire.encode_frame f in
        let pos = pos mod Bytes.length b in
        Bytes.set b pos (Char.chr (v land 0xff));
        decode_never_raises b);
    qtest ~count:100 "random garbage never raises"
      QCheck.(string_of_size (QCheck.Gen.int_bound 300))
      (fun s -> decode_never_raises (Bytes.of_string s));
    Alcotest.test_case "read_frame: clean close is Eof, mid-frame is Truncated" `Quick
      (fun () ->
        let check_stream bytes expect =
          let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          let n = Bytes.length bytes in
          if n > 0 then assert (Unix.write a bytes 0 n = n);
          Unix.close a;
          let r = Wire.read_frame b in
          Unix.close b;
          match (r, expect) with
          | Error e, `Err e' when e = e' -> ()
          | Ok _, `Ok -> ()
          | _ -> Alcotest.fail "unexpected read_frame result"
        in
        check_stream Bytes.empty (`Err Wire.Eof);
        let f = sample_frame () in
        check_stream (Bytes.sub f 0 3) (`Err Wire.Truncated);
        check_stream (Bytes.sub f 0 (Bytes.length f - 1)) (`Err Wire.Truncated);
        check_stream f `Ok) ]

(* ---------------- codec files ---------------- *)

let file_tests =
  [ Alcotest.test_case "proof file round-trips (incl. CRPC challenge)" `Quick (fun () ->
        List.iter
          (fun (backend, strategy, (lazy (prep, _, io, proof))) ->
            let pf =
              { Wire.pf_backend = backend;
                pf_strategy = strategy;
                pf_dims = tiny;
                pf_challenge = prep.Api.challenge;
                pf_key_id = String.make 32 'p';
                pf_public_inputs = io;
                pf_proof = proof }
            in
            let b = Wire.encode_proof_file pf in
            match Wire.decode_proof_file b with
            | Error e -> Alcotest.failf "decode: %s" (Wire.error_to_string e)
            | Ok pf' -> check_bool "bytes" true (Bytes.equal (Wire.encode_proof_file pf') b))
          [ (Api.Backend_groth16, Mc.Vanilla, groth16_fix);
            (Api.Backend_spartan, Mc.Vanilla, spartan_fix);
            (Api.Backend_spartan, Mc.Crpc_psq, crpc_fix) ]);
    Alcotest.test_case "key file verifies a proof after reload" `Quick (fun () ->
        List.iter
          (fun (backend, strategy, (lazy (prep, keys, io, proof))) ->
            let id = Key_cache.id_of backend strategy tiny ~challenge:prep.Api.challenge prep.Api.cs in
            let b =
              Wire.encode_key_file
                { Wire.kf_backend = backend;
                  kf_strategy = strategy;
                  kf_dims = tiny;
                  kf_challenge = prep.Api.challenge;
                  kf_opt = None;
                  kf_key_id = id;
                  kf_keys = keys }
            in
            match Wire.decode_key_file b with
            | Error e -> Alcotest.failf "decode: %s" (Wire.error_to_string e)
            | Ok kf ->
              check_bool "verifies with rebuilt keys" true
                (Api.verify_with kf.Wire.kf_keys ~public_inputs:io proof))
          [ (Api.Backend_groth16, Mc.Vanilla, groth16_fix);
            (Api.Backend_spartan, Mc.Vanilla, spartan_fix);
            (Api.Backend_spartan, Mc.Crpc_psq, crpc_fix) ]);
    Alcotest.test_case "truncated files are typed errors" `Quick (fun () ->
        let lazy (prep, keys, io, proof) = Lazy.force spartan_fix |> Lazy.from_val in
        ignore io;
        let kb =
          Wire.encode_key_file
            { Wire.kf_backend = Api.Backend_spartan;
              kf_strategy = Mc.Vanilla;
              kf_dims = tiny;
              kf_challenge = prep.Api.challenge;
              kf_opt = None;
              kf_key_id = String.make 32 'z';
              kf_keys = keys }
        in
        let pb =
          Wire.encode_proof_file
            { Wire.pf_backend = Api.Backend_spartan;
              pf_strategy = Mc.Vanilla;
              pf_dims = tiny;
              pf_challenge = None;
              pf_key_id = String.make 32 'z';
              pf_public_inputs = [];
              pf_proof = proof }
        in
        let step = 7 in
        let rec chop b i =
          if i < Bytes.length b then begin
            (match Wire.decode_key_file (Bytes.sub b 0 i) with
             | Error _ -> ()
             | Ok _ -> Alcotest.failf "key prefix %d decoded" i);
            chop b (i + step)
          end
        in
        chop kb 0;
        let rec chop_p i =
          if i < Bytes.length pb then begin
            (match Wire.decode_proof_file (Bytes.sub pb 0 i) with
             | Error _ -> ()
             | Ok _ -> Alcotest.failf "proof prefix %d decoded" i);
            chop_p (i + step)
          end
        in
        chop_p 0) ]

(* ---------------- key cache ---------------- *)

let cache_temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "zkvc-cache-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir d 0o700;
  d

let cs_of_dims d =
  let rng = Random.State.make [| 11 |] in
  let x = Spec.random_matrix rng ~rows:d.Mspec.a ~cols:d.Mspec.n ~bound:8 in
  let w = Spec.random_matrix rng ~rows:d.Mspec.n ~cols:d.Mspec.b ~bound:8 in
  Api.prepare Mc.Vanilla ~x ~w d

let cache_tests =
  [ Alcotest.test_case "id is stable and challenge-sensitive" `Quick (fun () ->
        let lazy (prep, _, _, _) = crpc_fix in
        let id c = Key_cache.id_of Api.Backend_spartan Mc.Crpc_psq tiny ~challenge:c prep.Api.cs in
        check_bool "stable" true (id prep.Api.challenge = id prep.Api.challenge);
        check_bool "challenge changes the id" false
          (id prep.Api.challenge = id (Some (Fr.of_int 123456)));
        check_int "id is 32 bytes" 32 (String.length (id prep.Api.challenge)));
    Alcotest.test_case "LRU: hit, miss, eviction order" `Quick (fun () ->
        let t = Key_cache.create ~capacity:2 () in
        let dims_list =
          [ Mspec.dims ~a:2 ~n:2 ~b:2; Mspec.dims ~a:2 ~n:2 ~b:3; Mspec.dims ~a:2 ~n:3 ~b:2 ]
        in
        let made = ref 0 in
        let insert d =
          let prep = cs_of_dims d in
          Key_cache.find_or_add t Api.Backend_spartan Mc.Vanilla d
            ~challenge:prep.Api.challenge ~cs:prep.Api.cs
            ~make:(fun () ->
              incr made;
              Api.keygen Api.Backend_spartan prep.Api.cs)
        in
        let e1, h1 = insert (List.nth dims_list 0) in
        let _e2, h2 = insert (List.nth dims_list 1) in
        check_bool "first is a miss" true (h1 = `Miss && h2 = `Miss);
        let _e1', h1' = insert (List.nth dims_list 0) in
        check_bool "second ask is a memory hit" true (h1' = `Hit_mem);
        check_int "no extra keygen on hit" 2 !made;
        (* dims2 is now LRU; inserting dims3 evicts it *)
        let _e3, _ = insert (List.nth dims_list 2) in
        check_int "capacity bound" 2 (Key_cache.length t);
        let _e2', h2' = insert (List.nth dims_list 1) in
        check_bool "evicted entry is a miss without disk" true (h2' = `Miss);
        check_int "rebuilt after eviction" 4 !made;
        check_bool "most recent first" true
          (List.hd (Key_cache.ids t) = (fst (insert (List.nth dims_list 1))).Key_cache.id);
        ignore e1);
    Alcotest.test_case "disk spill: evicted keys reload without keygen" `Quick (fun () ->
        let dir = cache_temp_dir () in
        let t = Key_cache.create ~capacity:1 ~dir () in
        let made = ref 0 in
        let insert d =
          let prep = cs_of_dims d in
          Key_cache.find_or_add t Api.Backend_spartan Mc.Vanilla d
            ~challenge:prep.Api.challenge ~cs:prep.Api.cs
            ~make:(fun () ->
              incr made;
              Api.keygen Api.Backend_spartan prep.Api.cs)
        in
        let d1 = Mspec.dims ~a:2 ~n:2 ~b:2 and d2 = Mspec.dims ~a:2 ~n:2 ~b:3 in
        let e1, _ = insert d1 in
        let _ = insert d2 in
        (* d1 was evicted (capacity 1) but spilled to disk *)
        let e1', h = insert d1 in
        check_bool "disk hit" true (h = `Hit_disk);
        check_int "no keygen on disk hit" 2 !made;
        check_bool "same id" true (e1.Key_cache.id = e1'.Key_cache.id);
        (* find_by_id also reaches the disk *)
        let _ = insert d2 in
        check_bool "find_by_id reloads from disk" true
          (Key_cache.find_by_id t e1.Key_cache.id <> None));
    Alcotest.test_case "find_by_id misses unknown ids" `Quick (fun () ->
        let t = Key_cache.create ~capacity:2 () in
        check_bool "unknown" true (Key_cache.find_by_id t (String.make 32 'q') = None));
    Alcotest.test_case "concurrent misses run keygen once (single-flight)" `Quick
      (fun () ->
        let t = Key_cache.create ~capacity:2 () in
        let prep = cs_of_dims tiny in
        let made = Atomic.make 0 in
        let results = Array.make 2 None in
        let go i () =
          let e, outcome =
            Key_cache.find_or_add t Api.Backend_spartan Mc.Vanilla tiny
              ~challenge:prep.Api.challenge ~cs:prep.Api.cs
              ~make:(fun () ->
                Atomic.incr made;
                (* keep the slot occupied long enough for the second
                   thread to land on the same id mid-flight *)
                Thread.delay 0.15;
                Api.keygen Api.Backend_spartan prep.Api.cs)
          in
          results.(i) <- Some (e.Key_cache.id, outcome)
        in
        let t1 = Thread.create (go 0) () in
        Thread.delay 0.05;
        let t2 = Thread.create (go 1) () in
        Thread.join t1;
        Thread.join t2;
        check_int "keygen ran exactly once" 1 (Atomic.get made);
        match (results.(0), results.(1)) with
        | Some (id0, o0), Some (id1, o1) ->
          check_bool "both got the same entry" true (id0 = id1);
          check_bool "one miss, one memory hit" true
            ((o0 = `Miss && o1 = `Hit_mem) || (o0 = `Hit_mem && o1 = `Miss))
        | _ -> Alcotest.fail "a thread never settled") ]

(* ---------------- batch verification ---------------- *)

let batch_fixture =
  lazy
    (let lazy (prep1, keys, io1, p1) = groth16_fix in
     (* second honest statement over the same circuit shape (vanilla
        structure only depends on dims), proved with the same keys *)
     let rng2, x2, w2 = instance_of_seed 8 in
     let prep2 = Api.prepare Mc.Vanilla ~x:x2 ~w:w2 tiny in
     let p2 = Api.prove_with ~rng:rng2 keys prep2.Api.assignment in
     let io2 =
       Array.to_list (Array.sub prep2.Api.assignment 1 (Api.Cs.num_inputs prep2.Api.cs))
     in
     ignore prep1;
     (keys, [| (io1, p1); (io2, p2) |]))

let batch_tests =
  [ Alcotest.test_case "honest groth16 batch takes the fast path" `Quick (fun () ->
        let keys, honest = Lazy.force batch_fixture in
        let items = [ honest.(0); honest.(1); honest.(0) ] in
        let o = Batch.verify_each keys items in
        check_bool "fast path" true (o.Batch.path = Batch.Batched);
        check_bool "none malformed" true (o.Batch.malformed = []);
        check_bool "all true" true (List.for_all Fun.id o.Batch.verdicts));
    Alcotest.test_case "empty batch raises" `Quick (fun () ->
        let keys, _ = Lazy.force batch_fixture in
        check_bool "Invalid_argument" true
          (match Batch.verify_each keys [] with
          | exception Invalid_argument _ -> true
          | _ -> false));
    qtest ~count:4 "a corrupted member is rejected, honest members pass"
      QCheck.(pair (int_range 2 4) small_nat)
      (fun (n, pos) ->
        let keys, honest = Lazy.force batch_fixture in
        let pos = pos mod n in
        let items =
          List.init n (fun i ->
              if i = pos then
                (* proof paired with the other statement's inputs *)
                (fst honest.((i + 1) mod 2), snd honest.(i mod 2))
              else honest.(i mod 2))
        in
        let o = Batch.verify_each keys items in
        o.Batch.path = Batch.Fallback
        && o.Batch.malformed = []
        && List.for_all2 (fun i ok -> if i = pos then not ok else ok)
             (List.init n Fun.id) o.Batch.verdicts);
    Alcotest.test_case "arity mismatch flagged malformed, not just rejected" `Quick
      (fun () ->
        let keys, honest = Lazy.force batch_fixture in
        let io0, p0 = honest.(0) in
        let items = [ honest.(1); (Zkvc_field.Fr.one :: io0, p0) ] in
        let o = Batch.verify_each keys items in
        check_bool "fell back" true (o.Batch.path = Batch.Fallback);
        check_bool "culprit attributed" true (o.Batch.malformed = [ 1 ]);
        check_bool "honest member passes, malformed fails" true
          (o.Batch.verdicts = [ true; false ]));
    Alcotest.test_case "honest spartan batch takes the fast path" `Quick (fun () ->
        let lazy (_, keys, io, p) = spartan_fix in
        let o = Batch.verify_each keys [ (io, p); (io, p) ] in
        check_bool "fast path" true (o.Batch.path = Batch.Batched);
        check_bool "all true" true (List.for_all Fun.id o.Batch.verdicts));
    Alcotest.test_case "singleton verifies per item" `Quick (fun () ->
        let lazy (_, keys, io, p) = spartan_fix in
        let o = Batch.verify_each keys [ (io, p) ] in
        check_bool "per-item path" true (o.Batch.path = Batch.Per_item);
        check_bool "true" true (o.Batch.verdicts = [ true ])) ]

(* ---------------- job scheduler ---------------- *)

(* pop + complete in one step: dispatch order for tests where each job
   "finishes" immediately *)
let pop_done q =
  match Jobs.pop q with
  | Some tk ->
    Jobs.complete q ~client:tk.Jobs.t_client;
    tk.Jobs.t_item
  | None -> Alcotest.fail "scheduler ran dry"

let jobs_tests =
  [ Alcotest.test_case "per-client FIFO, backpressure, close" `Quick (fun () ->
        let q = Jobs.create ~capacity:2 () in
        let push x = Jobs.push q ~client:1 ~lane:Jobs.Lane_prove x in
        check_bool "push 1" true (push 1 = `Ok);
        check_bool "push 2" true (push 2 = `Ok);
        check_bool "push 3 rejected" true (push 3 = `Full);
        (match Jobs.pop q with
         | Some { Jobs.t_item = 1; t_client = 1; t_lane = Jobs.Lane_prove } -> ()
         | _ -> Alcotest.fail "expected item 1 from client 1");
        check_bool "push 3 after pop" true (push 3 = `Ok);
        Jobs.close q;
        check_bool "push after close" true (push 4 = `Closed);
        (* client 1 still has a job in flight: nothing else dispatches
           for it until [complete] — that is the per-connection ordering
           guarantee *)
        Jobs.complete q ~client:1;
        check_int "drains in order" 2 (pop_done q);
        check_int "drains in order (2)" 3 (pop_done q);
        check_bool "empty after drain" true (Jobs.pop q = None));
    Alcotest.test_case "verify lane dispatches ahead of earlier proves" `Quick
      (fun () ->
        let q = Jobs.create ~capacity:8 () in
        ignore (Jobs.push q ~client:1 ~lane:Jobs.Lane_prove ~cost:4 "p1");
        ignore (Jobs.push q ~client:2 ~lane:Jobs.Lane_prove ~cost:4 "p2");
        ignore (Jobs.push q ~client:3 ~lane:Jobs.Lane_verify "v");
        check_int "prove lane depth" 2 (Jobs.lane_depth q Jobs.Lane_prove);
        check_int "verify lane depth" 1 (Jobs.lane_depth q Jobs.Lane_verify);
        let order = List.init 3 (fun _ -> pop_done q) in
        check_bool "verify first, then proves in arrival order" true
          (order = [ "v"; "p1"; "p2" ]));
    Alcotest.test_case "a flooding client cannot starve a quiet one" `Quick (fun () ->
        let q = Jobs.create ~capacity:16 () in
        for i = 1 to 8 do
          ignore (Jobs.push q ~client:1 ~lane:Jobs.Lane_prove ~cost:4 (i * 10))
        done;
        ignore (Jobs.push q ~client:2 ~lane:Jobs.Lane_prove ~cost:4 1);
        let order = List.init 9 (fun _ -> pop_done q) in
        (* round robin: the quiet client's single job is served on the
           next rotation, not behind the whole flood *)
        check_int "quiet client served promptly" 1 (List.nth order 1);
        check_int "flood still fully served" 80 (List.nth order 8));
    Alcotest.test_case "an expensive head accumulates credit and dispatches" `Quick
      (fun () ->
        (* cost 9 > quantum 4: the head is starved twice, earns credit
           across rescans, and must dispatch without blocking *)
        let q = Jobs.create ~quantum:4 ~capacity:4 () in
        ignore (Jobs.push q ~client:1 ~lane:Jobs.Lane_prove ~cost:9 "big");
        check_bool "big job dispatched" true (pop_done q = "big"));
    Alcotest.test_case "pop blocks until a push arrives" `Quick (fun () ->
        let q = Jobs.create ~capacity:1 () in
        let got = ref None in
        let th = Thread.create (fun () -> got := Jobs.pop q) () in
        Thread.delay 0.05;
        check_bool "still blocked" true (!got = None);
        ignore (Jobs.push q ~client:7 ~lane:Jobs.Lane_verify 42);
        Thread.join th;
        check_bool "woke with the job" true
          (match !got with Some tk -> tk.Jobs.t_item = 42 | None -> false)) ]

(* ---------------- end-to-end socket sessions ---------------- *)

let temp_socket name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "zkvc-%s-%d.sock" name (Unix.getpid ()))

let with_server cfg f =
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown t;
      Server.wait t)
    (fun () -> f t)

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let e2e_tests =
  [ Alcotest.test_case "prove/verify round trip, cache hit, byte-identity" `Slow (fun () ->
        let socket = temp_socket "e2e" in
        let cfg =
          { (Server.default_config ~socket_path:socket) with Server.observe = true }
        in
        let hits0 = counter "serve.cache.hit" and groups0 = counter "serve.batch.groups" in
        observed @@ fun () ->
        with_server cfg (fun srv ->
            List.iter
              (fun backend ->
                Client.with_connection socket (fun c ->
                    let prove () =
                      Client.request_exn c
                        (Wire.Prove
                           { backend;
                             strategy = Mc.Crpc_psq;
                             dims = tiny;
                             input = Wire.Seeded { seed = 5; bound = 256 };
                             deadline_ms = 0 })
                    in
                    match (prove (), prove ()) with
                    | ( Wire.Prove_ok
                          { cache_hit = h1; proof = p1; key_id = id1;
                            public_inputs = io1; _ },
                        Wire.Prove_ok { cache_hit = h2; key_id; _ } ) ->
                      check_bool "first prove misses" false h1;
                      check_bool "second prove hits the key cache" true h2;
                      check_bool "same key id" true (id1 = key_id);
                      (* the cache-miss proof must equal the in-process one *)
                      let rng, x, w = Spec.seeded_statement ~seed:5 ~bound:256 tiny in
                      let local, _ = Api.run ~rng backend Mc.Crpc_psq ~x ~w tiny in
                      let bytes p =
                        match p with
                        | Api.Groth16_proof g -> Zkvc_groth16.Groth16.proof_to_bytes g
                        | Api.Spartan_proof s -> Spartan.proof_to_bytes s
                      in
                      check_bool "byte-identical to Api.run" true
                        (Bytes.equal (bytes p1) (bytes local));
                      (* server-side verify through the proof's key id *)
                      (match
                         Client.request_exn c
                           (Wire.Verify
                              { key_id; public_inputs = io1; proof = p1; deadline_ms = 0 })
                       with
                       | Wire.Verify_ok ok -> check_bool "server verifies" true ok
                       | _ -> Alcotest.fail "expected Verify_ok");
                      (* and one served Batch_verify group *)
                      (match
                         Client.request_exn c
                           (Wire.Batch_verify
                              { key_id; items = [ (io1, p1); (io1, p1) ]; deadline_ms = 0 })
                       with
                       | Wire.Batch_ok verdicts ->
                         check_bool "server batch verifies" true (verdicts = [ true; true ])
                       | _ -> Alcotest.fail "expected Batch_ok")
                    | _ -> Alcotest.fail "expected Prove_ok"))
              [ Api.Backend_spartan; Api.Backend_groth16 ];
            let s = Server.status srv in
            check_int "two cache hits" 2 s.Wire.cache_hits;
            check_int "two cache misses" 2 s.Wire.cache_misses;
            check_int "serve.cache.hit counts the hits" 2 (counter "serve.cache.hit" - hits0);
            check_int "serve.batch.groups counts the batches" 2
              (counter "serve.batch.groups" - groups0)));
    Alcotest.test_case "full queue answers Queue_full, not a crash" `Slow (fun () ->
        let socket = temp_socket "full" in
        let cfg =
          { (Server.default_config ~socket_path:socket) with
            Server.queue_capacity = 1;
            job_delay_s = 0.4 }
        in
        with_server cfg (fun srv ->
            let prove_req =
              Wire.Request
                ( None,
                  Wire.Prove
                    { backend = Api.Backend_spartan;
                      strategy = Mc.Vanilla;
                      dims = tiny;
                      input = Wire.Seeded { seed = 1; bound = 16 };
                      deadline_ms = 0 } )
            in
            let fd1 = raw_connect socket and fd2 = raw_connect socket in
            let fd3 = raw_connect socket in
            Wire.write_frame fd1 prove_req;
            Thread.delay 0.15;
            (* worker busy with #1 *)
            Wire.write_frame fd2 prove_req;
            Thread.delay 0.1;
            (* queue now holds #2 = capacity *)
            Wire.write_frame fd3 prove_req;
            (match Wire.read_frame fd3 with
             | Ok (Wire.Response (_, Wire.Error { code = Wire.Queue_full; _ })) -> ()
             | _ -> Alcotest.fail "expected Queue_full");
            (match (Wire.read_frame fd1, Wire.read_frame fd2) with
             | ( Ok (Wire.Response (_, Wire.Prove_ok _)),
                 Ok (Wire.Response (_, Wire.Prove_ok _)) ) ->
               ()
             | _ -> Alcotest.fail "queued proves should still succeed");
            List.iter Unix.close [ fd1; fd2; fd3 ];
            check_int "one rejection counted" 1 (Server.status srv).Wire.rejections));
    Alcotest.test_case "deadline exceeded is a typed error" `Slow (fun () ->
        let socket = temp_socket "deadline" in
        let cfg =
          { (Server.default_config ~socket_path:socket) with Server.job_delay_s = 0.3 }
        in
        with_server cfg (fun srv ->
            Client.with_connection socket (fun c ->
                match
                  Client.request c
                    (Wire.Prove
                       { backend = Api.Backend_spartan;
                         strategy = Mc.Vanilla;
                         dims = tiny;
                         input = Wire.Seeded { seed = 1; bound = 16 };
                         deadline_ms = 50 })
                with
                | Ok (Wire.Error { code = Wire.Deadline_exceeded; _ }) -> ()
                | _ -> Alcotest.fail "expected Deadline_exceeded");
            check_int "timeout counted" 1 (Server.status srv).Wire.timeouts));
    Alcotest.test_case "a short Batch_ok is a malformed reply" `Quick (fun () ->
        (* a raw-socket fake server answers a two-member batch with one
           verdict: the client must refuse the reply, not pass it on *)
        let socket = temp_socket "shortbatch" in
        (try Sys.remove socket with Sys_error _ -> ());
        let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind lfd (Unix.ADDR_UNIX socket);
        Unix.listen lfd 1;
        let fake =
          Thread.create
            (fun () ->
              let fd, _ = Unix.accept lfd in
              ignore (Wire.read_frame fd);
              Wire.write_frame fd (Wire.Response (None, Wire.Batch_ok [ true ]));
              Unix.close fd)
            ()
        in
        let _, _, io, proof = Lazy.force groth16_fix in
        let reply =
          Client.with_connection socket (fun c ->
              Client.request c
                (Wire.Batch_verify
                   { key_id = String.make 32 'k';
                     items = [ (io, proof); (io, proof) ];
                     deadline_ms = 0 }))
        in
        Thread.join fake;
        Unix.close lfd;
        Sys.remove socket;
        match reply with
        | Error (Wire.Malformed _) -> ()
        | _ -> Alcotest.fail "expected Error (Malformed _)");
    Alcotest.test_case "shutdown drains in-flight work" `Slow (fun () ->
        let socket = temp_socket "drain" in
        let cfg =
          { (Server.default_config ~socket_path:socket) with Server.job_delay_s = 0.2 }
        in
        let srv = Server.start cfg in
        let fd = raw_connect socket in
        Wire.write_frame fd
          (Wire.Request
             ( None,
               Wire.Prove
                 { backend = Api.Backend_spartan;
                   strategy = Mc.Vanilla;
                   dims = tiny;
                   input = Wire.Seeded { seed = 2; bound = 16 };
                   deadline_ms = 0 } ));
        Thread.delay 0.05;
        (* the job is in flight; shutdown must wait for its response *)
        let sh = raw_connect socket in
        Wire.write_frame sh (Wire.Request (None, Wire.Shutdown));
        (match Wire.read_frame fd with
         | Ok (Wire.Response (_, Wire.Prove_ok _)) -> ()
         | _ -> Alcotest.fail "in-flight prove should complete during drain");
        (match Wire.read_frame sh with
         | Ok (Wire.Response (_, Wire.Shutdown_ok)) -> ()
         | _ -> Alcotest.fail "expected Shutdown_ok");
        Unix.close fd;
        Unix.close sh;
        Server.wait srv;
        check_bool "socket removed" false (Sys.file_exists socket));
    Alcotest.test_case "a queued verify overtakes a queued prove" `Slow (fun () ->
        let socket = temp_socket "lanes" in
        let cfg =
          { (Server.default_config ~socket_path:socket) with Server.job_delay_s = 0.3 }
        in
        with_server cfg (fun srv ->
            (* seed the cache and obtain a proof to verify *)
            let prove_payload =
              Wire.Prove
                { backend = Api.Backend_groth16;
                  strategy = Mc.Vanilla;
                  dims = tiny;
                  input = Wire.Seeded { seed = 3; bound = 16 };
                  deadline_ms = 0 }
            in
            let key_id, io, proof =
              Client.with_connection socket (fun c ->
                  match Client.request_exn c prove_payload with
                  | Wire.Prove_ok { key_id; public_inputs; proof; _ } ->
                    (key_id, public_inputs, proof)
                  | _ -> Alcotest.fail "expected Prove_ok")
            in
            let prove_req = Wire.Request (None, prove_payload) in
            let fd1 = raw_connect socket in
            let fd2 = raw_connect socket in
            let fd3 = raw_connect socket in
            Wire.write_frame fd1 prove_req;
            Thread.delay 0.1;
            (* the worker is inside fd1's prove; both of these queue *)
            Wire.write_frame fd2 prove_req;
            Wire.write_frame fd3
              (Wire.Request
                 ( None,
                   Wire.Verify { key_id; public_inputs = io; proof; deadline_ms = 0 } ));
            (match Wire.read_frame fd3 with
             | Ok (Wire.Response (_, Wire.Verify_ok true)) -> ()
             | _ -> Alcotest.fail "expected Verify_ok");
            (match (Wire.read_frame fd1, Wire.read_frame fd2) with
             | ( Ok (Wire.Response (_, Wire.Prove_ok _)),
                 Ok (Wire.Response (_, Wire.Prove_ok _)) ) ->
               ()
             | _ -> Alcotest.fail "both proves should still complete");
            List.iter Unix.close [ fd1; fd2; fd3 ];
            (* the flight recorder (oldest first) shows the verify lane
               jumping the queued prove *)
            let lines = String.split_on_char '\n' (String.trim (Server.flight_jsonl srv)) in
            check_int "four records" 4 (List.length lines);
            check_bool "third completion is the verify" true
              (contains ~sub:"\"kind\":\"verify\"" (List.nth lines 2));
            check_bool "records carry their lane" true
              (contains ~sub:"\"lane\":\"verify\"" (List.nth lines 2));
            check_bool "records carry their worker" true
              (contains ~sub:"\"worker\":" (List.nth lines 2));
            check_bool "verify records carry no hot region" true
              (contains ~sub:"\"hot_region\":\"-\"" (List.nth lines 2))));
    Alcotest.test_case "workers=4: concurrent proves are byte-identical" `Slow
      (fun () ->
        let socket = temp_socket "workers4" in
        let cfg =
          { (Server.default_config ~socket_path:socket) with
            Server.workers = 4;
            observe = true }
        in
        observed @@ fun () ->
        with_server cfg (fun srv ->
            let cases =
              [| (Mspec.dims ~a:2 ~n:2 ~b:2, 21);
                 (Mspec.dims ~a:2 ~n:2 ~b:3, 22);
                 (Mspec.dims ~a:2 ~n:3 ~b:2, 23) |]
            in
            let results = Array.make (Array.length cases) None in
            let run i =
              let dims, seed = cases.(i) in
              Client.with_connection socket (fun c ->
                  match
                    Client.request_exn c
                      (Wire.Prove
                         { backend = Api.Backend_spartan;
                           strategy = Mc.Vanilla;
                           dims;
                           input = Wire.Seeded { seed; bound = 16 };
                           deadline_ms = 0 })
                  with
                  | Wire.Prove_ok { proof; _ } -> results.(i) <- Some proof
                  | _ -> ())
            in
            let ths =
              List.init (Array.length cases) (fun i -> Thread.create run i)
            in
            List.iter Thread.join ths;
            let bytes p =
              match p with
              | Api.Groth16_proof g -> Zkvc_groth16.Groth16.proof_to_bytes g
              | Api.Spartan_proof s -> Spartan.proof_to_bytes s
            in
            Array.iteri
              (fun i r ->
                let dims, seed = cases.(i) in
                match r with
                | None -> Alcotest.failf "concurrent prove %d failed" i
                | Some p ->
                  let rng, x, w = Spec.seeded_statement ~seed ~bound:16 dims in
                  let local, _ = Api.run ~rng Api.Backend_spartan Mc.Vanilla ~x ~w dims in
                  check_bool "byte-identical to Api.run" true
                    (Bytes.equal (bytes p) (bytes local)))
              results;
            let s = Server.status srv in
            check_int "all three proves missed the cache" 3 s.Wire.cache_misses;
            check_int "worker pool size reported" 4 s.Wire.workers;
            let samples =
              Client.with_connection socket (fun c ->
                  match Client.request_exn c Wire.Status_detail with
                  | Wire.Status_detail_ok { metrics_text; _ } -> (
                    match Expose.parse metrics_text with
                    | Ok samples -> samples
                    | Error msg -> Alcotest.failf "exposition text invalid: %s" msg)
                  | _ -> Alcotest.fail "expected Status_detail_ok")
            in
            let value metric =
              List.find_map
                (fun s -> if s.Expose.metric = metric then Some s.Expose.value else None)
                samples
            in
            check_bool "zkvc_serve_workers 4 exposed" true (value "zkvc_serve_workers" = Some 4.);
            List.iter
              (fun m -> check_bool (m ^ " exposed") true (value m <> None))
              [ "zkvc_serve_queue_depth_verify"; "zkvc_serve_queue_depth_prove" ]));
    Alcotest.test_case "shutdown is prompt despite a long metrics interval" `Slow
      (fun () ->
        let socket = temp_socket "promptstop" in
        let metrics_file = Filename.temp_file "zkvc-prompt" ".prom" in
        let cfg =
          { (Server.default_config ~socket_path:socket) with
            Server.metrics_file = Some metrics_file;
            metrics_interval_s = 300. }
        in
        let srv = Server.start cfg in
        let t0 = Unix.gettimeofday () in
        Server.shutdown srv;
        Server.wait srv;
        let dt = Unix.gettimeofday () -. t0 in
        if dt >= 5. then
          Alcotest.failf "shutdown took %.1fs — snapshot loop slept the interval" dt;
        Sys.remove metrics_file) ]

(* ---------------- telemetry e2e ---------------- *)

let wait_for_socket path =
  let rec go n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "server socket never appeared"
    else begin
      Thread.delay 0.05;
      go (n - 1)
    end
  in
  go 100

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let telemetry_tests =
  [ Alcotest.test_case "trace context propagates and timing stitches" `Slow (fun () ->
        let socket = temp_socket "trace" in
        let cfg =
          { (Server.default_config ~socket_path:socket) with Server.observe = true }
        in
        (* the server must live on its own domain: systhreads share their
           domain's span stack, so an in-domain server would interleave
           its serve.request.* spans with the client's client.request *)
        let srv_domain =
          Domain.spawn (fun () ->
              let srv = Server.start cfg in
              Server.wait srv)
        in
        wait_for_socket socket;
        Span.reset ();
        Sink.enable ();
        Fun.protect
          ~finally:(fun () -> Sink.disable ())
          (fun () ->
            Client.with_connection ~origin:"test-e2e" socket (fun c ->
                match
                  Client.request_exn c
                    (Wire.Prove
                       { backend = Api.Backend_spartan;
                         strategy = Mc.Vanilla;
                         dims = tiny;
                         input = Wire.Seeded { seed = 6; bound = 16 };
                         deadline_ms = 0 })
                with
                | Wire.Prove_ok _ ->
                  let id =
                    match Client.last_request_id c with
                    | Some id -> id
                    | None -> Alcotest.fail "client kept no request id"
                  in
                  let tm =
                    match Client.last_timing c with
                    | Some tm -> tm
                    | None -> Alcotest.fail "response carried no timing block"
                  in
                  check_bool "timing echoes the request id" true
                    (tm.Wire.tm_request_id = id);
                  check_bool "server reported at least one phase" true
                    (tm.Wire.tm_phases <> []);
                  check_bool "phases include the request span" true
                    (List.exists
                       (fun (n, _, _) -> n = "serve.request.prove")
                       tm.Wire.tm_phases);
                  List.iter
                    (fun (_, off_s, dur_s) ->
                      check_bool "phase offsets/durations are sane" true
                        (off_s >= 0. && dur_s >= 0.
                        && off_s +. dur_s <= tm.Wire.tm_exec_s +. 1e-6))
                    tm.Wire.tm_phases;
                  (* the client span tree now holds the whole request *)
                  let root =
                    match Span.find_root "client.request" with
                    | Some r -> r
                    | None -> Alcotest.fail "no client.request span recorded"
                  in
                  check_bool "root carries the request id" true
                    (List.assoc_opt "request_id" (Span.args root)
                    = Some (Wire.hex_of_id id));
                  let stitched n =
                    match Span.find_rec root n with
                    | Some s -> s
                    | None -> Alcotest.failf "span %s not stitched under the root" n
                  in
                  let exec = stitched "server.exec" in
                  ignore (stitched "server.queue.wait");
                  ignore (stitched "serve.request.prove");
                  check_bool "stitched spans carry the request id" true
                    (List.assoc_opt "request_id" (Span.args exec)
                    = Some (Wire.hex_of_id id));
                  check_bool "stitched spans sit on their own track" true
                    (Span.domain_id exec <> Span.domain_id root)
                | _ -> Alcotest.fail "expected Prove_ok"));
        Client.with_connection socket (fun c ->
            ignore (Client.request_exn c Wire.Shutdown));
        Domain.join srv_domain);
    Alcotest.test_case "malformed frames are answered at the peer's version" `Slow
      (fun () ->
        let socket = temp_socket "badframe" in
        let cfg = Server.default_config ~socket_path:socket in
        with_server cfg (fun _ ->
            let fd = raw_connect socket in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                Wire.write_frame fd (Wire.Request (None, Wire.Status));
                (match Wire.read_frame fd with
                 | Ok (Wire.Response (_, Wire.Status_ok _)) -> ()
                 | _ -> Alcotest.fail "expected Status_ok");
                (* an unknown frame kind under valid framing: the peer
                   gets a decodable Bad_request, not a dropped stream *)
                let junk = Bytes.of_string "ZKVC\003\231\000\000\000\000" in
                let n = Bytes.length junk in
                assert (Unix.write fd junk 0 n = n);
                match Wire.read_frame fd with
                | Ok (Wire.Response (_, Wire.Error { code = Wire.Bad_request; _ })) -> ()
                | _ -> Alcotest.fail "expected a Bad_request reply")));
    Alcotest.test_case "flight recorder: detail dump, ring bound, shutdown flush" `Slow
      (fun () ->
        let socket = temp_socket "flight" in
        let flight_file = Filename.temp_file "zkvc-flight" ".jsonl" in
        let metrics_file = Filename.temp_file "zkvc-metrics" ".prom" in
        let cfg =
          { (Server.default_config ~socket_path:socket) with
            Server.flight_capacity = 2;
            flight_file = Some flight_file;
            metrics_file = Some metrics_file;
            metrics_interval_s = 0.1 }
        in
        let dump = ref "" in
        with_server cfg (fun _ ->
            Client.with_connection socket (fun c ->
                (* same statement three times: the first keygen misses,
                   the two reruns hit the key cache *)
                for _ = 1 to 3 do
                  match
                    Client.request_exn c
                      (Wire.Prove
                         { backend = Api.Backend_spartan;
                           strategy = Mc.Vanilla;
                           dims = tiny;
                           input = Wire.Seeded { seed = 1; bound = 16 };
                           deadline_ms = 0 })
                  with
                  | Wire.Prove_ok _ -> ()
                  | _ -> Alcotest.fail "expected Prove_ok"
                done;
                let last_id =
                  match Client.last_request_id c with
                  | Some id -> Wire.hex_of_id id
                  | None -> Alcotest.fail "client kept no request id"
                in
                match Client.request_exn c Wire.Status_detail with
                | Wire.Status_detail_ok { status; metrics_text; flight_jsonl } ->
                  (* three proves plus this status request itself *)
                  check_int "status counts every request" 4 status.Wire.requests;
                  dump := flight_jsonl;
                  let lines = String.split_on_char '\n' (String.trim flight_jsonl) in
                  check_int "ring keeps the last capacity records" 2 (List.length lines);
                  check_bool "newest record carries the client's request id" true
                    (contains ~sub:("\"request_id\":\"" ^ last_id ^ "\"") (List.nth lines 1));
                  List.iter
                    (fun l ->
                      check_bool "record is a prove" true (contains ~sub:"\"kind\":\"prove\"" l);
                      check_bool "record has an outcome" true
                        (contains ~sub:"\"outcome\":\"ok\"" l);
                      check_bool "prove record names its hot region" true
                        (contains ~sub:"\"hot_region\":\"matmul/" l))
                    lines;
                  (* the oldest surviving record is the second prove: a
                     cache miss was overwritten, the hit survived *)
                  List.iter
                    (fun l ->
                      check_bool "survivors hit the key cache" true
                        (contains ~sub:"\"cache\":\"hit\"" l))
                    lines;
                  (match Expose.parse metrics_text with
                   | Error msg -> Alcotest.failf "exposition text invalid: %s" msg
                   | Ok samples ->
                     check_bool "request counter exposed" true
                       (List.exists
                          (fun s ->
                            s.Expose.metric = "zkvc_serve_requests_total"
                            && s.Expose.value >= 3.)
                          samples);
                     check_bool "queue depth gauge exposed" true
                       (List.exists
                          (fun s -> s.Expose.metric = "zkvc_serve_queue_depth")
                          samples);
                     check_bool "queue wait quantiles exposed" true
                       (List.exists
                          (fun s ->
                            s.Expose.metric = "zkvc_serve_queue_wait_s"
                            && List.mem_assoc "quantile" s.Expose.labels)
                          samples))
                | _ -> Alcotest.fail "expected Status_detail_ok"));
        (* shutdown (inside with_server's finally) flushed the ring *)
        check_bool "flight file equals the live dump" true (read_file flight_file = !dump);
        (match Expose.parse (read_file metrics_file) with
         | Ok samples ->
           check_bool "final snapshot counts the requests" true
             (List.exists
                (fun s ->
                  s.Expose.metric = "zkvc_serve_requests_total" && s.Expose.value > 0.)
                samples)
         | Error msg -> Alcotest.failf "metrics snapshot invalid: %s" msg);
        Sys.remove flight_file;
        Sys.remove metrics_file) ]

let () =
  Alcotest.run "serve"
    [ ("codec", codec_tests);
      ("malformed", malformed_tests);
      ("files", file_tests);
      ("cache", cache_tests);
      ("batch", batch_tests);
      ("jobs", jobs_tests);
      ("e2e", e2e_tests);
      ("telemetry", telemetry_tests) ]
