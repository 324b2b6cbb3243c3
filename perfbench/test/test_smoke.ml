(* Runs the benchmark in smoke mode (tiny dimensions, one operation per
   workload) and checks its result line against BENCHMARK.json: every
   end-to-end metric with --trace 0, every per-layer metric with
   --trace 1, each under its declared unit. Then breaks the prover and
   the verifier on purpose and checks that the correctness gate trips. *)

module Json = Zkvc_obs.Json

let spec = Json.of_string_exn (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all)

let field name j =
  match Json.member name j with Some v -> v | None -> Alcotest.failf "missing key %S" name

let str = function Json.String s -> s | _ -> Alcotest.fail "expected a string"
let list j = Option.get (Json.to_list_opt j)

(* (name, unit) of every metric in one BENCHMARK.json list *)
let declared key = List.map (fun m -> (str (field "name" m), str (field "unit" m))) (list (field key spec))

let workloads = List.map (fun w -> str (field "name" w)) (list (field "workloads" spec))

(* Run the benchmark, killed after 120 s; return its exit code and the
   parsed last line. *)
let run ?(fault = "none") workload trace =
  let out = Filename.temp_file ~temp_dir:"." "perfbench" ".out" in
  let cmd =
    Printf.sprintf
      "timeout 120 ../main.exe --workload %s --seed 5 --seconds 1 --trace %d --smoke --cli ../../bin/zkvc_cli.exe \
       --fault %s > %s 2>/dev/null"
      workload trace fault (Filename.quote out)
  in
  let code = Sys.command cmd in
  let lines = In_channel.with_open_text out In_channel.input_lines in
  Sys.remove out;
  let last = List.nth lines (List.length lines - 1) in
  (code, Json.of_string_exn last)

let number j = match Json.to_number_opt j with Some v -> v | None -> Alcotest.fail "expected a number"

let check_result ~trace workload =
  let code, r = run workload trace in
  Alcotest.(check int) "exit code" 0 code;
  (match r with
   | Json.Obj kvs ->
     Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
       (List.map fst kvs)
   | _ -> Alcotest.fail "result is not an object");
  Alcotest.(check bool) "correct" true (field "correct" r = Json.Bool true);
  Alcotest.(check bool) "attempted >= 1" true (number (field "attempted" r) >= 1.);
  Alcotest.(check (float 0.)) "failed" 0. (number (field "failed" r));
  let metrics =
    match field "metrics" r with Json.Obj kvs -> kvs | _ -> Alcotest.fail "metrics is not an object"
  in
  let emitted = List.map (fun (name, m) -> (name, str (field "unit" m))) metrics in
  let want = declared (if trace = 1 then "per_layer" else "end_to_end") in
  Alcotest.(check (list (pair string string))) "metric names and units" want emitted;
  List.map (fun (name, m) -> (name, number (field "value" m))) metrics

let positive values names =
  List.iter
    (fun name ->
      let v = List.assoc name values in
      if not (v > 0.) then Alcotest.failf "%s = %g, expected > 0" name v)
    names

let end_to_end workload () =
  let values = check_result ~trace:0 workload in
  (* every end-to-end metric is measured on every workload, never 0 *)
  positive values (List.map fst (declared "end_to_end"))

let on_path = function
  | "g16-crpc-matmul" ->
    [ "groth16.prove_s"; "groth16.verify_s"; "groth16.verify.pairing_s"; "groth16.prove.msm_h_s"; "qap.create_s" ]
  | "serve-mixed" -> [ "serve.exec_s.prove"; "serve.exec_s.verify"; "spartan.prove_s"; "core.prepare_s" ]
  | _ -> [ "spartan.prove_s"; "spartan.verify_s"; "spartan.prove.commit_witness_s"; "spartan.sumcheck_rounds" ]

let per_layer workload () =
  let values = check_result ~trace:1 workload in
  positive values
    ([ "field.mont_mul"; "field.mul_ns"; "curve.pairing_s"; "curve.msm_g1_s"; "r1cs.constraints" ]
     @ on_path workload)

let gate_trips workload fault () =
  let code, r = run ~fault workload 0 in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "correct" true (field "correct" r = Json.Bool false);
  Alcotest.(check bool) "failures counted" true (number (field "failed" r) >= 1.)

let () =
  Alcotest.run "perfbench"
    [ ("end-to-end", List.map (fun w -> Alcotest.test_case w `Quick (end_to_end w)) workloads);
      ("per-layer", List.map (fun w -> Alcotest.test_case w `Quick (per_layer w)) workloads);
      ( "gate",
        [ Alcotest.test_case "verifier accepting a tampered proof" `Quick
            (gate_trips "g16-crpc-matmul" "accept-all");
          Alcotest.test_case "honest proof rejected" `Quick (gate_trips "spartan-nonlinear" "bad-proof");
          Alcotest.test_case "served verifier accepting a tampered proof" `Quick
            (gate_trips "serve-mixed" "accept-all");
          Alcotest.test_case "served honest proof rejected" `Quick (gate_trips "serve-mixed" "bad-proof") ] ) ]
