(* The bench report substrate: Stats invariants (qcheck), the Report
   summaries and its JSON writer. *)

module Stats = Zkvc_obs.Stats
module Report = Zkvc_obs.Report
module Json = Zkvc_obs.Json

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
        Stats.mad shifted = Stats.mad xs) ]

let test_stats_known_values () =
  check_bool "median of odd sample" true (Stats.median [| 3.; 1.; 2. |] = 2.);
  check_bool "median of even sample averages the middle pair" true
    (Stats.median [| 4.; 1.; 3.; 2. |] = 2.5);
  check_bool "mad of 1..5" true (Stats.mad [| 1.; 2.; 3.; 4.; 5. |] = 1.);
  check_bool "single sample: mad 0" true (Stats.mad [| 7. |] = 0.);
  Alcotest.check_raises "empty sample rejected" (Invalid_argument "Stats.median: empty sample")
    (fun () -> ignore (Stats.median [||]))

(* ------------------------------------------------------------------ *)
(* Report writer                                                       *)

let env =
  { Report.ocaml_version = Sys.ocaml_version;
    nproc = 1;
    jobs = 1;
    scale = 16;
    full = false;
    clock = "monotonic";
    date = "2026-08-05T00:00:00Z" }

let ledger =
  { Report.constraints = 120;
    variables = 165;
    nonzero_a = 192;
    nonzero_b = 120;
    nonzero_c = 120;
    witness = 140;
    top_heap_words = 2_000_000;
    major_collections = 2 }

let meas ?(strategy = "crpc+psq") ?(prove = [ 0.061; 0.063; 0.059 ]) () =
  Report.summarize ~section:"tab2" ~scheme:"zkVC-G" ~strategy ~backend:"groth16" ~dims:(3, 4, 8)
    ~reps:
      (List.map (fun p -> { Report.setup_s = 0.44; prove_s = p; verify_s = 0.57 }) prove)
    ~proof_bytes:256 ~ledger ()

(* The written text parses back to the same JSON value in both
   renderings, stamps the schema, and keeps one "prove_s" line per
   measurement and rep in the pretty form: tools/ci.sh sums those lines
   with awk. *)
let test_report_roundtrip () =
  let r =
    { Report.env;
      sections = [ "tab2" ];
      measurements = [ meas (); meas ~strategy:"vanilla" ~prove:[ 0.139 ] () ] }
  in
  let v = Report.to_json r in
  check_bool "compact text re-parses" true (Json.of_string (Json.to_string v) = Ok v);
  let pretty = Json.to_string_pretty v in
  check_bool "pretty text re-parses" true (Json.of_string pretty = Ok v);
  check_bool "writer stamps the schema" true
    (Json.member "schema" v = Some (Json.String Report.schema));
  let prove_lines =
    List.length
      (List.filter
         (fun l -> String.trim l |> String.starts_with ~prefix:{|"prove_s":|})
         (String.split_on_char '\n' pretty))
  in
  check_int "one prove_s line per measurement and rep" (2 + 3 + 1) prove_lines

let test_summarize () =
  (* binary-exact sample values so the expected median/MAD are exact *)
  let m = meas ~prove:[ 0.25; 1.0; 0.5 ] () in
  check_bool "prove_s is the median" true (m.Report.prove_s = 0.5);
  check_bool "prove MAD" true (m.Report.prove_mad_s = 0.25);
  check_int "reps kept" 3 (List.length m.Report.reps);
  Alcotest.check_raises "empty rep list rejected"
    (Invalid_argument "Report.summarize: empty rep list") (fun () -> ignore (meas ~prove:[] ()))

let () =
  Alcotest.run "report"
    [ ( "stats",
        Alcotest.test_case "known values" `Quick test_stats_known_values
        :: List.map QCheck_alcotest.(to_alcotest) qcheck_stats );
      ( "report",
        [ Alcotest.test_case "json round-trip" `Quick test_report_roundtrip;
          Alcotest.test_case "summarize medians and MAD" `Quick test_summarize ] ) ]
