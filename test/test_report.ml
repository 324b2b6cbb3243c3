(* The perf-trajectory substrate: Stats invariants (qcheck), exact
   Report JSON round-trips (including the committed baseline when run
   from the repo root), and Diff verdicts on synthetic report pairs. *)

module Stats = Zkvc_obs.Stats
module Report = Zkvc_obs.Report
module Diff = Zkvc_obs.Diff
module Json = Zkvc_obs.Json
module Attrib = Zkvc_obs.Attrib

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Stats (qcheck)                                                      *)

let sample_gen =
  (* non-empty arrays of small positive dyadic rationals (k / 2^20,
     k < 2^24): shaped like timing samples, but every Stats operation —
     including translation by 1024 — stays exact in double precision, so
     the invariants below can use [=] instead of a tolerance *)
  QCheck.(
    array_of_size
      Gen.(int_range 1 40)
      (map (fun k -> float_of_int k /. 1048576.) (int_bound 16_777_215)))

let shuffle rng xs =
  let a = Array.copy xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let qcheck_stats =
  let rng = Random.State.make [| 0x57a7 |] in
  [ QCheck.Test.make ~count:200 ~name:"median and MAD invariant under permutation"
      sample_gen (fun xs ->
        let p = shuffle rng xs in
        Stats.median xs = Stats.median p && Stats.mad xs = Stats.mad p);
    QCheck.Test.make ~count:200 ~name:"median bounded by sample range" sample_gen (fun xs ->
        let m = Stats.median xs in
        Stats.minimum xs <= m && m <= Stats.maximum xs);
    QCheck.Test.make ~count:200 ~name:"duplicating every sample preserves the median"
      sample_gen (fun xs ->
        Stats.median (Array.append xs xs) = Stats.median xs);
    QCheck.Test.make ~count:200 ~name:"MAD non-negative and zero for constant samples"
      sample_gen (fun xs ->
        Stats.mad xs >= 0.
        && Stats.mad (Array.make (Array.length xs) xs.(0)) = 0.);
    QCheck.Test.make ~count:200 ~name:"MAD invariant under translation" sample_gen
      (fun xs ->
        let shifted = Array.map (fun x -> x +. 1024.) xs in
        Stats.mad shifted = Stats.mad xs);
    QCheck.Test.make ~count:200 ~name:"noise band monotone in k and zero at k=0"
      sample_gen (fun xs ->
        Stats.noise_band ~k:0. xs = 0.
        && Stats.noise_band ~k:2. xs <= Stats.noise_band ~k:4. xs
        && Stats.noise_band ~k:4. xs <= Stats.noise_band ~k:8. xs) ]

let test_stats_known_values () =
  check_bool "median of odd sample" true (Stats.median [| 3.; 1.; 2. |] = 2.);
  check_bool "median of even sample averages the middle pair" true
    (Stats.median [| 4.; 1.; 3.; 2. |] = 2.5);
  check_bool "mad of 1..5" true (Stats.mad [| 1.; 2.; 3.; 4.; 5. |] = 1.);
  check_bool "single sample: mad 0" true (Stats.mad [| 7. |] = 0.);
  Alcotest.check_raises "empty sample rejected" (Invalid_argument "Stats.median: empty sample")
    (fun () -> ignore (Stats.median [||]))

(* ------------------------------------------------------------------ *)
(* Report round-trip                                                   *)

let env =
  { Report.git_rev = "deadbeef";
    ocaml_version = Sys.ocaml_version;
    nproc = 1;
    jobs = 1;
    scale = 16;
    full = false;
    clock = "monotonic";
    date = "2026-08-05T00:00:00Z" }

let ledger ?(constraints = 120) ?(nonzero_a = 192) () =
  { Report.constraints;
    variables = 165;
    nonzero_a;
    nonzero_b = 120;
    nonzero_c = 120;
    witness = 140;
    top_heap_words = 2_000_000;
    major_collections = 2 }

let meas ?regions ?(scheme = "zkVC-G") ?(strategy = "crpc+psq") ?(prove = [ 0.061; 0.063; 0.059 ])
    ?(ledger = ledger ()) () =
  Report.summarize ?regions ~section:"tab2" ~scheme ~strategy ~backend:"groth16" ~dims:(3, 4, 8)
    ~reps:
      (List.map (fun p -> { Report.setup_s = 0.44; prove_s = p; verify_s = 0.57 }) prove)
    ~proof_bytes:256 ~ledger ()

let report ms = { Report.env; sections = [ "tab2" ]; measurements = ms }

(* A small two-level region tree; [matmul_c] perturbs one leaf to model
   a structural (per-region) cost change. *)
let region_tree ?(matmul_c = 96) () =
  let c ~constraints ~nnz =
    { Attrib.constraints; variables = constraints; nnz_a = nnz; nnz_b = nnz; nnz_c = nnz }
  in
  Attrib.make ~name:"all" ~self:(c ~constraints:0 ~nnz:0)
    [ Attrib.make ~name:"matmul" ~self:(c ~constraints:0 ~nnz:0)
        [ Attrib.make ~name:"crpc+psq" ~self:(c ~constraints:matmul_c ~nnz:(2 * matmul_c)) [] ];
      Attrib.make ~name:"softmax" ~self:(c ~constraints:24 ~nnz:60) [] ]

let test_report_roundtrip () =
  let r = report [ meas (); meas ~strategy:"vanilla" ~prove:[ 0.139 ] () ] in
  (match Report.of_json (Report.to_json r) with
   | Ok r' -> check_bool "of_json (to_json r) = r" true (r = r')
   | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* through text, both renderings *)
  (match Report.of_string (Json.to_string (Report.to_json r)) with
   | Ok r' -> check_bool "compact text round-trip" true (r = r')
   | Error e -> Alcotest.failf "compact text round-trip failed: %s" e);
  (match Report.of_string (Json.to_string_pretty (Report.to_json r)) with
   | Ok r' -> check_bool "pretty text round-trip" true (r = r')
   | Error e -> Alcotest.failf "pretty text round-trip failed: %s" e);
  check_bool "wrong schema rejected" true
    (Result.is_error (Report.of_string {|{"schema":"zkvc-bench/1"}|}));
  check_bool "missing field rejected" true
    (Result.is_error
       (Report.of_json
          (Json.Obj [ ("schema", Json.String Report.schema); ("sections", Json.List []) ])))

let test_report_regions_roundtrip () =
  (* a profiled measurement (regions attached) round-trips exactly,
     including the full tree *)
  let r = report [ meas ~regions:(region_tree ()) (); meas ~strategy:"vanilla" () ] in
  (match Report.of_string (Json.to_string (Report.to_json r)) with
   | Ok r' -> check_bool "v3 with regions round-trips" true (r = r')
   | Error e -> Alcotest.failf "v3 round-trip failed: %s" e);
  check_bool "writer stamps the v3 schema" true
    (Json.member "schema" (Report.to_json r) = Some (Json.String "zkvc-bench/3"))

let test_summarize () =
  (* binary-exact sample values so the expected median/MAD are exact *)
  let m = meas ~prove:[ 0.25; 1.0; 0.5 ] () in
  check_bool "prove_s is the median" true (m.Report.prove_s = 0.5);
  check_bool "prove MAD" true (m.Report.prove_mad_s = 0.25);
  check_int "reps kept" 3 (List.length m.Report.reps);
  check_bool "key" true
    (Report.key m = "tab2/zkVC-G/crpc+psq/groth16/3x4x8")

(* The committed baseline must stay readable and carry the paper's
   Table II mechanism: CRPC+PSQ strictly below vanilla groth16 in
   constraints and A/B-column nonzeros at the same dims. It is
   region-profiled (zkvc-bench/3): every measurement must carry a
   provenance tree whose attributed constraint total equals the global
   ledger's — the self-consistency the profiler CLI also asserts at run
   time. dune runtest copies the file next to the test directory; a
   run from elsewhere skips the check. *)
let test_committed_baseline_0008 () =
  let path = "../BENCH_0008.json" in
  let path = if Sys.file_exists path then path else "BENCH_0008.json" in
  if not (Sys.file_exists path) then ()
  else begin
    let ic = open_in_bin path in
    let text =
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          really_input_string ic (in_channel_length ic))
    in
    match Report.of_string text with
    | Error e -> Alcotest.failf "BENCH_0008.json unreadable: %s" e
    | Ok r ->
      (match Report.of_json (Report.to_json r) with
       | Ok r' -> check_bool "baseline round-trips exactly" true (r = r')
       | Error e -> Alcotest.failf "baseline re-parse failed: %s" e);
      List.iter
        (fun m ->
          match m.Report.regions with
          | None -> Alcotest.failf "measurement %s carries no region tree" (Report.key m)
          | Some tree ->
            check_int
              (Report.key m ^ ": region constraints sum to the ledger")
              m.Report.ledger.Report.constraints
              (Attrib.total tree).Attrib.constraints;
            check_bool
              (Report.key m ^ ": timing stripped for determinism")
              true
              (Attrib.strip_timing tree = tree))
        r.Report.measurements;
      let find strategy =
        List.find
          (fun m ->
            m.Report.section = "tab2" && m.Report.backend = "groth16"
            && m.Report.strategy = strategy)
          r.Report.measurements
      in
      let vanilla = (find "vanilla").Report.ledger
      and zkvc = (find "crpc+psq").Report.ledger in
      check_bool "CRPC+PSQ has strictly fewer constraints" true
        (zkvc.Report.constraints < vanilla.Report.constraints);
      check_bool "CRPC+PSQ has strictly fewer A-column nonzeros" true
        (zkvc.Report.nonzero_a < vanilla.Report.nonzero_a);
      check_bool "CRPC+PSQ has strictly fewer B-column nonzeros" true
        (zkvc.Report.nonzero_b < vanilla.Report.nonzero_b)
  end

(* ------------------------------------------------------------------ *)
(* Diff verdicts on synthetic report pairs                             *)

let diff ?check_time old_ms new_ms =
  Diff.compare_reports ?check_time ~old_:(report old_ms) ~new_:(report new_ms) ()

let only_verdict r =
  match r.Diff.entries with
  | [ e ] -> e.Diff.verdict
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

let test_diff_within_noise () =
  (* +3% wobble, well inside the 25% threshold band *)
  let r = diff [ meas ~prove:[ 0.100; 0.102; 0.098 ] () ] [ meas ~prove:[ 0.103; 0.104; 0.102 ] () ] in
  check_bool "ok" true r.Diff.ok;
  check_bool "within noise" true (only_verdict r = Diff.Ok_within_noise)

let test_diff_regression_beyond_band () =
  let r = diff [ meas ~prove:[ 0.100; 0.101; 0.099 ] () ] [ meas ~prove:[ 0.200; 0.201; 0.199 ] () ] in
  check_bool "gate fails" false r.Diff.ok;
  check_int "one regression" 1 r.Diff.regressions;
  check_bool "verdict" true (only_verdict r = Diff.Regressed)

let test_diff_improvement () =
  let r = diff [ meas ~prove:[ 0.200 ] () ] [ meas ~prove:[ 0.100 ] () ] in
  check_bool "gate passes" true r.Diff.ok;
  check_bool "verdict" true (only_verdict r = Diff.Improved)

let test_diff_noisy_baseline_widens_band () =
  (* the baseline itself wobbles ±30%: its MAD dominates the threshold,
     so a +40% median move is still attributed to noise *)
  let old_m = meas ~prove:[ 0.070; 0.100; 0.130 ] () in
  let new_m = meas ~prove:[ 0.140; 0.139; 0.141 ] () in
  let r = diff [ old_m ] [ new_m ] in
  check_bool "noisy baseline does not gate" true r.Diff.ok;
  (* the same move against a quiet baseline does *)
  let quiet = meas ~prove:[ 0.099; 0.100; 0.101 ] () in
  let r' = diff [ quiet ] [ new_m ] in
  check_bool "quiet baseline gates" false r'.Diff.ok

let test_diff_ledger_drift () =
  let r =
    diff
      [ meas ~ledger:(ledger ~constraints:120 ()) () ]
      [ meas ~ledger:(ledger ~constraints:121 ()) () ]
  in
  check_bool "drift fails the gate" false r.Diff.ok;
  check_int "one drift" 1 r.Diff.drifts;
  check_bool "verdict" true (only_verdict r = Diff.Ledger_drift);
  (* drift still fails with the wall-time comparison skipped, and a pure
     2x slowdown passes under --skip-time *)
  let r' =
    diff ~check_time:false
      [ meas ~ledger:(ledger ~constraints:120 ()) () ]
      [ meas ~ledger:(ledger ~constraints:121 ()) () ]
  in
  check_bool "drift gates even with check_time=false" false r'.Diff.ok;
  let r'' = diff ~check_time:false [ meas ~prove:[ 0.1 ] () ] [ meas ~prove:[ 0.2 ] () ] in
  check_bool "slowdown ignored with check_time=false" true r''.Diff.ok

let test_diff_region_drift () =
  (* same global ledger, but one region's structural counts moved: the
     region tree localises a drift the global ledger can't see *)
  let r =
    diff
      [ meas ~regions:(region_tree ~matmul_c:96 ()) () ]
      [ meas ~regions:(region_tree ~matmul_c:95 ()) () ]
  in
  check_bool "region drift fails the gate" false r.Diff.ok;
  check_int "counted as a ledger drift" 1 r.Diff.drifts;
  check_bool "verdict" true (only_verdict r = Diff.Ledger_drift);
  let notes = match r.Diff.entries with [ e ] -> e.Diff.notes | _ -> [] in
  check_bool "note names the owning region" true
    (List.exists
       (fun n ->
         (* substring check: the note carries the region path *)
         let sub = "matmul" in
         let rec find i =
           i + String.length sub <= String.length n
           && (String.sub n i (String.length sub) = sub || find (i + 1))
         in
         find 0)
       notes);
  (* identical trees do not gate; a v2 baseline against a profiled run
     skips the region comparison instead of failing *)
  let same =
    diff [ meas ~regions:(region_tree ()) () ] [ meas ~regions:(region_tree ()) () ]
  in
  check_bool "identical trees pass" true same.Diff.ok;
  let skewed = diff [ meas () ] [ meas ~regions:(region_tree ()) () ] in
  check_bool "missing baseline tree does not gate" true skewed.Diff.ok

let test_diff_key_mismatch_reports_but_does_not_gate () =
  let r = diff [ meas () ] [ meas ~strategy:"vanilla" () ] in
  check_bool "missing/new keys do not gate" true r.Diff.ok;
  check_int "two entries" 2 (List.length r.Diff.entries);
  check_bool "old key reported" true
    (List.exists (fun e -> e.Diff.verdict = Diff.Only_old) r.Diff.entries);
  check_bool "new key reported" true
    (List.exists (fun e -> e.Diff.verdict = Diff.Only_new) r.Diff.entries)

let test_diff_json_verdict_parses () =
  let r = diff [ meas () ] [ meas () ] in
  let text = Json.to_string (Diff.result_to_json r) in
  match Json.of_string text with
  | Error e -> Alcotest.failf "verdict JSON invalid: %s" e
  | Ok v ->
    check_bool "ok flag" true (Json.member "ok" v = Some (Json.Bool true));
    check_bool "entries listed" true
      (match Option.bind (Json.member "entries" v) Json.to_list_opt with
       | Some [ _ ] -> true
       | _ -> false)

let () =
  Alcotest.run "report"
    [ ( "stats",
        Alcotest.test_case "known values" `Quick test_stats_known_values
        :: List.map QCheck_alcotest.(to_alcotest) qcheck_stats );
      ( "report",
        [ Alcotest.test_case "json round-trip" `Quick test_report_roundtrip;
          Alcotest.test_case "regions round-trip (zkvc-bench/3)" `Quick
            test_report_regions_roundtrip;
          Alcotest.test_case "summarize medians and MAD" `Quick test_summarize;
          Alcotest.test_case "committed baseline BENCH_0008" `Quick
            test_committed_baseline_0008 ] );
      ( "diff",
        [ Alcotest.test_case "within noise" `Quick test_diff_within_noise;
          Alcotest.test_case "regression beyond band" `Quick test_diff_regression_beyond_band;
          Alcotest.test_case "improvement" `Quick test_diff_improvement;
          Alcotest.test_case "noisy baseline widens band" `Quick
            test_diff_noisy_baseline_widens_band;
          Alcotest.test_case "ledger drift" `Quick test_diff_ledger_drift;
          Alcotest.test_case "region drift" `Quick test_diff_region_drift;
          Alcotest.test_case "key mismatch reports, does not gate" `Quick
            test_diff_key_mismatch_reports_but_does_not_gate;
          Alcotest.test_case "json verdict parses" `Quick test_diff_json_verdict_parses ] ) ]
