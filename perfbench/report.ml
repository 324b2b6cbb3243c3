(* The metrics this benchmark reports, the correctness gate, and the
   output: a human-readable table (name, value, unit, sample count)
   followed by one JSON result line. The two lists below must match
   BENCHMARK.json; the smoke test checks that they do. *)

let end_to_end =
  [ ("setup_s", "s");
    ("prove_s", "s");
    ("verify_s", "s");
    ("throughput_per_s", "1/s");
    ("proof_bytes", "bytes");
    ("peak_rss_mb", "MB") ]

(* Per-layer metrics of a layer a workload does not run read 0 with
   sample count 0 (see LAYERS.md). *)
let per_layer =
  [ (* field *)
    ("field.mont_mul", "count");
    ("field.mul_ns", "ns");
    ("prepare.minor_mwords", "Mwords");
    ("setup.minor_mwords", "Mwords");
    ("prove.minor_mwords", "Mwords");
    ("verify.minor_mwords", "Mwords");
    (* curve *)
    ("curve.pairing_s", "s");
    ("curve.msm_g1_s", "s");
    ("curve.msm_calls", "count");
    ("curve.msm_points", "count");
    (* poly / qap *)
    ("poly.ntt_s", "s");
    ("poly.ntt_calls", "count");
    ("qap.domain_size", "count");
    ("qap.create_s", "s");
    (* core / r1cs / zkml *)
    ("core.prepare_s", "s");
    ("zkml.build_s", "s");
    ("r1cs.constraints", "count");
    ("r1cs.nnz_a", "count");
    ("r1cs.nnz_b", "count");
    ("r1cs.nnz_c", "count");
    ("r1cs.public_inputs", "count");
    (* groth16 *)
    ("groth16.setup_s", "s");
    ("groth16.prove_s", "s");
    ("groth16.verify_s", "s");
    ("groth16.setup.qap_eval_s", "s");
    ("groth16.setup.fixed_base_tables_s", "s");
    ("groth16.setup.pk_queries_s", "s");
    ("groth16.setup.vk_ic_s", "s");
    ("groth16.prove.h_coeffs_s", "s");
    ("groth16.prove.msm_a_s", "s");
    ("groth16.prove.msm_b_g2_s", "s");
    ("groth16.prove.msm_b_g1_s", "s");
    ("groth16.prove.msm_l_s", "s");
    ("groth16.prove.msm_h_s", "s");
    ("groth16.verify.ic_sum_s", "s");
    ("groth16.verify.pairing_s", "s");
    (* spartan *)
    ("spartan.setup_s", "s");
    ("spartan.prove_s", "s");
    ("spartan.verify_s", "s");
    ("spartan.prove.commit_witness_s", "s");
    ("spartan.prove.matrix_vector_s", "s");
    ("spartan.prove.sumcheck1_s", "s");
    ("spartan.prove.matrix_fold_s", "s");
    ("spartan.prove.sumcheck2_s", "s");
    ("spartan.prove.opening_s", "s");
    ("spartan.verify.matrix_eval_s", "s");
    ("spartan.verify.opening_msm_s", "s");
    ("spartan.sumcheck_rounds", "count");
    (* serve *)
    ("serve.queue_wait_s.prove", "s");
    ("serve.queue_wait_s.verify", "s");
    ("serve.exec_s.prove", "s");
    ("serve.exec_s.verify", "s");
    ("serve.overhead_s", "s");
    ("serve.prove_p90_s", "s");
    ("serve.verify_p90_s", "s");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.rejected", "count");
    ("serve.timeouts", "count");
    (* the benchmark itself and the host *)
    ("trace.overhead_pct", "%");
    ("host.steal_ticks", "count");
    ("host.spin_start_ms", "ms");
    ("host.spin_end_ms", "ms") ]

let values : (string, float * int) Hashtbl.t = Hashtbl.create 97

(* [n] is the number of samples behind the value *)
let set ?(n = 1) name v = Hashtbl.replace values name (v, n)

let set_median name xs = if xs <> [] then set ~n:(List.length xs) name (Host.median xs)

let set_trimmed_mean name xs =
  if xs <> [] then set ~n:(List.length xs) name (Host.trimmed_mean xs)

let lock = Mutex.create ()

(* per-sample accumulation, reduced to medians by [flush_samples] *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 97

let add name v =
  Mutex.protect lock (fun () ->
      let xs = Option.value (Hashtbl.find_opt samples name) ~default:[] in
      Hashtbl.replace samples name (v :: xs))

let flush_samples () = Hashtbl.iter set_median samples

(* ---- correctness gate ---- *)

let attempted = ref 0
let failed = ref 0

(* Count one checked operation; a false [ok] is a failure. *)
let check what ok =
  Mutex.protect lock (fun () ->
      incr attempted;
      if not ok then begin
        incr failed;
        Printf.eprintf "perfbench: FAILED %s\n%!" what
      end)

(* ---- output ---- *)

let print ~trace =
  let metrics = if trace then per_layer else end_to_end in
  let rows =
    List.map
      (fun (name, unit) ->
        let v, n = Option.value (Hashtbl.find_opt values name) ~default:(0., 0) in
        if not (Float.is_finite v) then check (name ^ " is finite") false;
        if n = 0 && not trace then check (name ^ " is measured") false;
        (name, unit, v, n))
      metrics
  in
  List.iter
    (fun (name, unit, v, n) ->
      if n = 0 then Printf.printf "  %-36s %16s %-6s (not on this workload's path)\n" name "0" unit
      else Printf.printf "  %-36s %16.6f %-6s n=%d\n" name v unit n)
    rows;
  let share = float !failed /. float (max 1 !attempted) in
  Printf.printf "  gate: attempted=%d failed=%d failed_share=%.4f\n" !attempted !failed share;
  let fields =
    List.map
      (fun (name, unit, v, _) ->
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
      rows
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0) (max 1 !attempted) !failed (String.concat ", " fields)
