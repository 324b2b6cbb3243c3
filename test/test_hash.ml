module Sha256 = Zkvc_hash.Sha256

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* FIPS 180-4 / NIST CAVP vectors *)
let test_vectors () =
  check_str "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex_of_string "");
  check_str "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex_of_string "abc");
  check_str "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex_of_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_str "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex_of_string (String.make 1_000_000 'a'))

let test_incremental_matches_oneshot () =
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let oneshot = Sha256.to_hex (Sha256.digest_string data) in
  (* feed in pieces of every size from 1 to 130 to cross block boundaries *)
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      while !pos < String.length data do
        let take = Stdlib.min chunk (String.length data - !pos) in
        Sha256.update_string ctx (String.sub data !pos take);
        pos := !pos + take
      done;
      check_str (Printf.sprintf "chunk %d" chunk) oneshot (Sha256.to_hex (Sha256.finalize ctx)))
    [ 1; 7; 31; 63; 64; 65; 127; 128; 130 ]

let prop_incremental =
  QCheck.Test.make ~name:"incremental = oneshot" ~count:100
    (QCheck.pair QCheck.string QCheck.string)
    (fun (a, b) ->
      let ctx = Sha256.init () in
      Sha256.update_string ctx a;
      Sha256.update_string ctx b;
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest_string (a ^ b)))

module T = Zkvc_transcript.Transcript
module Ch = T.Challenge (Zkvc_field.Fr)

let test_transcript_determinism () =
  let run () =
    let t = T.create ~label:"test" in
    T.absorb_string t ~label:"a" "hello";
    Ch.absorb t ~label:"x" (Zkvc_field.Fr.of_int 42);
    Ch.challenge t ~label:"c"
  in
  check_bool "same inputs, same challenge" true (Zkvc_field.Fr.equal (run ()) (run ()))

let test_transcript_sensitivity () =
  let chal absorb_what =
    let t = T.create ~label:"test" in
    T.absorb_string t ~label:"a" absorb_what;
    Ch.challenge t ~label:"c"
  in
  check_bool "different absorptions, different challenges" false
    (Zkvc_field.Fr.equal (chal "hello") (chal "hellp"))

let test_transcript_label_sensitivity () =
  let chal label =
    let t = T.create ~label:"test" in
    T.absorb_string t ~label "payload";
    Ch.challenge t ~label:"c"
  in
  check_bool "labels matter" false (Zkvc_field.Fr.equal (chal "l1") (chal "l2"))

let test_transcript_challenges_differ () =
  let t = T.create ~label:"test" in
  let c1 = Ch.challenge t ~label:"c" in
  let c2 = Ch.challenge t ~label:"c" in
  check_bool "successive challenges differ" false (Zkvc_field.Fr.equal c1 c2)

let test_transcript_clone () =
  let t = T.create ~label:"test" in
  T.absorb_string t ~label:"a" "shared prefix";
  let t' = T.clone t in
  let c = Ch.challenge t ~label:"c" and c' = Ch.challenge t' ~label:"c" in
  check_bool "clone replays identically" true (Zkvc_field.Fr.equal c c')

let () =
  Alcotest.run "zkvc_hash"
    [ ( "sha256",
        [ Alcotest.test_case "NIST vectors" `Quick test_vectors;
          Alcotest.test_case "incremental" `Quick test_incremental_matches_oneshot;
          QCheck_alcotest.to_alcotest prop_incremental ] );
      ( "transcript",
        [ Alcotest.test_case "determinism" `Quick test_transcript_determinism;
          Alcotest.test_case "input sensitivity" `Quick test_transcript_sensitivity;
          Alcotest.test_case "label sensitivity" `Quick test_transcript_label_sensitivity;
          Alcotest.test_case "fresh challenges" `Quick test_transcript_challenges_differ;
          Alcotest.test_case "clone" `Quick test_transcript_clone ] ) ]
