(* Zkvc_obs: spans, metrics, exporters, the bench's median — and the contract that Api.run's
   measurement record stays consistent with the span data it is rebuilt
   from when the sink is recording. *)

module Obs = Zkvc_obs
module Span = Zkvc_obs.Span
module Metrics = Zkvc_obs.Metrics
module Json = Zkvc_obs.Json
module Export = Zkvc_obs.Export
module Flight = Zkvc_obs.Flight
module Expose = Zkvc_obs.Expose
module Stats = Zkvc_obs.Stats

module Fr = Zkvc_field.Fr
module Api = Zkvc.Api
module Mc = Zkvc.Matmul_circuit
module Mspec = Zkvc.Matmul_spec
module Spec = Mspec.Make (Fr)

(* the duration/ordering assertions below are timing-sensitive: the
   Sys.time default has coarse granularity and counts CPU time, so
   install a wall clock before any span is recorded *)
let () = Span.set_clock Unix.gettimeofday

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* every test starts from a clean, disabled sink *)
let fresh () =
  Obs.Sink.disable ();
  Span.reset ();
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* spans                                                               *)

let test_span_nesting () =
  fresh ();
  Obs.Sink.enable ();
  let r =
    Span.with_span "outer" (fun () ->
        Span.with_span "first" (fun () -> ignore (Sys.opaque_identity 1));
        Span.with_span "second" (fun () ->
            Span.with_span "inner" (fun () -> ignore (Sys.opaque_identity 2)));
        42)
  in
  Obs.Sink.disable ();
  check_int "with_span returns the thunk's value" 42 r;
  let roots = Span.roots () in
  check_int "one root" 1 (List.length roots);
  let outer = List.hd roots in
  check_string "root name" "outer" (Span.name outer);
  let kids = Span.children outer in
  Alcotest.(check (list string))
    "children in execution order" [ "first"; "second" ]
    (List.map Span.name kids);
  let second = List.nth kids 1 in
  Alcotest.(check (list string))
    "grandchild under second" [ "inner" ]
    (List.map Span.name (Span.children second));
  check_bool "find_rec locates the grandchild" true (Span.find_rec outer "inner" <> None);
  check_bool "durations are non-negative" true
    (List.for_all (fun s -> Span.duration_s s >= 0.) (outer :: kids));
  (* children are nested inside the parent's interval, so their total
     duration cannot exceed the parent's *)
  let child_sum = List.fold_left (fun acc s -> acc +. Span.duration_s s) 0. kids in
  check_bool "child durations sum within parent" true
    (child_sum <= Span.duration_s outer +. 1e-9);
  check_int "stack empty after close" 0 (Span.depth ())

let test_span_exception_closes () =
  fresh ();
  Obs.Sink.enable ();
  (try Span.with_span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  Obs.Sink.disable ();
  check_int "span recorded despite exception" 1 (List.length (Span.roots ()));
  check_int "stack unwound" 0 (Span.depth ())

let test_disabled_fast_path () =
  fresh ();
  check_bool "sink starts disabled" false (Obs.Sink.is_enabled ());
  let f () = Sys.opaque_identity 7 in
  (* warm up so any one-time allocation is out of the measured window *)
  ignore (Span.with_span "warm" f);
  let q0 = (Gc.quick_stat ()).Gc.minor_words in
  for _ = 1 to 1000 do
    ignore (Span.with_span "off" f)
  done;
  let allocated = (Gc.quick_stat ()).Gc.minor_words -. q0 in
  check_int "no span records created" 0 (List.length (Span.roots ()));
  check_bool "nothing marked completed" true (Span.last_completed () = None);
  (* a span record alone is >10 words; 1000 disabled calls must stay far
     below one record per call *)
  check_bool
    (Printf.sprintf "disabled calls do not allocate span records (%.0f words/1000 calls)"
       allocated)
    true
    (allocated < 1000.)

let test_metrics_gated_by_sink () =
  fresh ();
  let c = Metrics.counter "test.gated" in
  Metrics.incr c;
  Metrics.add c 10;
  check_int "counter unchanged while disabled" 0 (Metrics.counter_value c);
  Obs.Sink.enable ();
  Metrics.incr c;
  Metrics.add c 10;
  Obs.Sink.disable ();
  check_int "counter counts while enabled" 11 (Metrics.counter_value c);
  check_bool "same name interns to same instrument" true (Metrics.counter "test.gated" == c)

let test_histogram_percentiles () =
  fresh ();
  Obs.Sink.enable ();
  let h = Metrics.histogram "test.hist" in
  (* 1..100 in scrambled order: percentiles must not depend on insertion order *)
  for i = 0 to 99 do
    Metrics.observe_int h (((i * 37) mod 100) + 1)
  done;
  Obs.Sink.disable ();
  let p x = match Metrics.percentile h x with Some v -> v | None -> Float.nan in
  check_int "count" 100 (Metrics.hist_count h);
  check_bool "sum" true (Metrics.hist_sum h = 5050.);
  check_bool "min" true (p 0. = 1.);
  check_bool "p50 (nearest rank)" true (p 50. = 50.);
  check_bool "p90" true (p 90. = 90.);
  check_bool "p99" true (p 99. = 99.);
  check_bool "max" true (p 100. = 100.);
  check_bool "empty histogram has no percentile" true
    (Metrics.percentile (Metrics.histogram "test.empty") 50. = None)

let test_histogram_reservoir_bounds () =
  fresh ();
  Obs.Sink.enable ();
  let h = Metrics.histogram "test.reservoir" in
  let n = 10_000 in
  for i = 1 to n do
    Metrics.observe_int h i
  done;
  Obs.Sink.disable ();
  check_int "count stays exact past the cap" n (Metrics.hist_count h);
  check_bool "sum stays exact past the cap" true
    (Metrics.hist_sum h = float_of_int (n * (n + 1) / 2));
  check_bool "retention bounded" true
    (Metrics.hist_retained h <= Metrics.reservoir_capacity);
  check_int "full reservoir" Metrics.reservoir_capacity (Metrics.hist_retained h);
  (* sampled percentiles stay inside the observed range and ordered *)
  let p x = Option.get (Metrics.percentile h x) in
  check_bool "percentiles within range" true (p 0. >= 1. && p 100. <= float_of_int n);
  check_bool "percentiles monotone" true (p 10. <= p 50. && p 50. <= p 90.)

let test_histogram_cache_interleaving () =
  fresh ();
  Obs.Sink.enable ();
  let h = Metrics.histogram "test.cache" in
  (* percentile reads (which build the sorted cache) interleaved with
     observations must always reflect every observation so far *)
  Metrics.observe h 5.;
  check_bool "p100 after first" true (Metrics.percentile h 100. = Some 5.);
  Metrics.observe h 9.;
  check_bool "p100 sees new max" true (Metrics.percentile h 100. = Some 9.);
  check_bool "p0 unchanged" true (Metrics.percentile h 0. = Some 5.);
  Metrics.observe h 1.;
  Obs.Sink.disable ();
  check_bool "p0 sees new min" true (Metrics.percentile h 0. = Some 1.);
  check_int "count" 3 (Metrics.hist_count h)

let test_counters_atomic_across_domains () =
  fresh ();
  Obs.Sink.enable ();
  let c = Metrics.counter "test.multicore" in
  let h = Metrics.histogram "test.multicore.hist" in
  let per_domain = 20_000 and ndomains = 4 in
  let worker () =
    for i = 1 to per_domain do
      Metrics.incr c;
      (* histogram observes serialise on an internal lock *)
      if i land 1023 = 0 then Metrics.observe_int h i
    done
  in
  let ds = List.init (ndomains - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join ds;
  Obs.Sink.disable ();
  check_int "no lost increments" (ndomains * per_domain) (Metrics.counter_value c);
  check_int "no lost observations"
    (ndomains * (per_domain / 1024))
    (Metrics.hist_count h)

(* ------------------------------------------------------------------ *)
(* json                                                                *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("s", Json.String "a\"b\\c\nd\te\r\x01");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("tiny", Json.Float 0.1);
        ("t", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]) ]
  in
  (match Json.of_string (Json.to_string v) with
   | Ok v' -> check_bool "compact round-trip" true (v = v')
   | Error e -> Alcotest.failf "compact parse failed: %s" e);
  (match Json.of_string (Json.to_string_pretty v) with
   | Ok v' -> check_bool "pretty round-trip" true (v = v')
   | Error e -> Alcotest.failf "pretty parse failed: %s" e);
  check_bool "garbage rejected" true (Result.is_error (Json.of_string "{broken"));
  check_bool "trailing data rejected" true (Result.is_error (Json.of_string "1 2"))

let test_chrome_trace_valid () =
  fresh ();
  Obs.Sink.enable ();
  Span.with_span "root" (fun () ->
      Span.with_span "child-a" (fun () -> ());
      Span.with_span "child-b" (fun () -> ()));
  Obs.Sink.disable ();
  let spans = Span.roots () in
  let text = Json.to_string (Export.to_chrome_trace spans) in
  match Json.of_string text with
  | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
  | Ok parsed ->
    let events =
      match Json.member "traceEvents" parsed with
      | Some l -> (match Json.to_list_opt l with Some l -> l | None -> [])
      | None -> []
    in
    check_int "one event per span" 3 (List.length events);
    List.iter
      (fun ev ->
        check_bool "event has name" true (Json.member "name" ev <> None);
        check_bool "event is a complete event" true
          (Json.member "ph" ev = Some (Json.String "X"));
        check_bool "ts is a number" true
          (Option.bind (Json.member "ts" ev) Json.to_number_opt <> None);
        check_bool "dur is a number" true
          (Option.bind (Json.member "dur" ev) Json.to_number_opt <> None))
      events;
    (* jsonl: every line parses on its own *)
    let lines =
      Export.to_jsonl spans |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    check_int "jsonl line per span" 3 (List.length lines);
    List.iter
      (fun line ->
        match Json.of_string line with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "jsonl line failed to parse: %s" e)
      lines

let test_span_args_and_external () =
  fresh ();
  Obs.Sink.enable ();
  Span.with_span ~args:[ ("request_id", "abcd") ] "client.request" (fun () ->
      (* a completed remote span grafted under the open one *)
      Span.add_external ~name:"server.exec" ~start_s:(Span.now ()) ~dur_s:0.5
        ~args:[ ("request_id", "abcd") ]
        ~domain:1000 ());
  (* with no span open, an external lands as its own root *)
  Span.add_external ~name:"orphan" ~start_s:(Span.now ()) ~dur_s:0.1 ();
  Obs.Sink.disable ();
  let roots = Span.roots () in
  check_int "two roots" 2 (List.length roots);
  let req = Option.get (Span.find_root "client.request") in
  check_bool "args kept" true (List.assoc_opt "request_id" (Span.args req) = Some "abcd");
  (match Span.children req with
   | [ ext ] ->
     check_string "external nested under the open span" "server.exec" (Span.name ext);
     check_int "external keeps its synthetic track" 1000 (Span.domain_id ext);
     check_bool "external duration honoured" true
       (Float.abs (Span.duration_s ext -. 0.5) < 1e-9)
   | l -> Alcotest.failf "expected one child, got %d" (List.length l));
  check_bool "orphan external is a root" true (Span.find_root "orphan" <> None);
  (* disabled sink: add_external is a no-op *)
  Span.reset ();
  Span.add_external ~name:"ghost" ~start_s:0. ~dur_s:1. ();
  check_int "no-op while disabled" 0 (List.length (Span.roots ()))

let test_chrome_trace_tid_and_args () =
  fresh ();
  Obs.Sink.enable ();
  Span.with_span ~args:[ ("request_id", "beef") ] "serve.request.prove" (fun () -> ());
  Span.add_external ~name:"server.exec" ~start_s:(Span.now ()) ~dur_s:0.25 ~domain:1000 ();
  Obs.Sink.disable ();
  let text = Json.to_string (Export.to_chrome_trace (Span.roots ())) in
  match Json.of_string text with
  | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
  | Ok parsed ->
    let events =
      match Option.bind (Json.member "traceEvents" parsed) Json.to_list_opt with
      | Some l -> l
      | None -> []
    in
    let find name =
      match
        List.find_opt (fun ev -> Json.member "name" ev = Some (Json.String name)) events
      with
      | Some ev -> ev
      | None -> Alcotest.failf "no %s event" name
    in
    let prove = find "serve.request.prove" in
    check_bool "tid is the recording domain" true
      (Json.member "tid" prove = Some (Json.Int (Domain.self () :> int)));
    let arg_of ev k =
      Option.bind (Json.member "args" ev) (fun a -> Json.member k a)
    in
    check_bool "request id exported as an arg" true
      (arg_of prove "request_id" = Some (Json.String "beef"));
    let ext = find "server.exec" in
    check_bool "external keeps its synthetic tid" true
      (Json.member "tid" ext = Some (Json.Int 1000))

(* ------------------------------------------------------------------ *)
(* flight ring                                                          *)

let test_flight_ring () =
  (match Flight.create ~capacity:0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "capacity 0 must be rejected");
  let t = Flight.create ~capacity:4 in
  check_int "empty length" 0 (Flight.length t);
  check_bool "empty snapshot" true (Flight.snapshot t = []);
  Flight.record t 1;
  Flight.record t 2;
  check_int "partial fill length" 2 (Flight.length t);
  check_bool "partial snapshot oldest first" true (Flight.snapshot t = [ 1; 2 ]);
  for i = 3 to 10 do
    Flight.record t i
  done;
  check_int "total counts every record" 10 (Flight.total t);
  check_int "length saturates at capacity" 4 (Flight.length t);
  check_bool "ring keeps the last capacity, oldest first" true
    (Flight.snapshot t = [ 7; 8; 9; 10 ]);
  check_int "capacity accessor" 4 (Flight.capacity t)

let test_flight_ring_concurrent () =
  (* records from racing domains never crash the ring and never exceed
     its bounds; every surviving slot is a real record *)
  let t = Flight.create ~capacity:8 in
  let per_domain = 5_000 and ndomains = 4 in
  let worker d = for i = 1 to per_domain do Flight.record t ((d * per_domain) + i) done in
  let ds = List.init (ndomains - 1) (fun d -> Domain.spawn (fun () -> worker (d + 1))) in
  worker 0;
  List.iter Domain.join ds;
  check_int "total exact under contention" (ndomains * per_domain) (Flight.total t);
  let snap = Flight.snapshot t in
  check_bool "snapshot bounded" true (List.length snap <= 8);
  check_bool "all slots hold real records" true
    (List.for_all (fun v -> v >= 1 && v <= ndomains * per_domain) snap)

(* ------------------------------------------------------------------ *)
(* prometheus exposition                                                *)

let test_expose_render_parse () =
  fresh ();
  Obs.Sink.enable ();
  let c = Metrics.counter "serve.requests" in
  Metrics.add c 7;
  Metrics.set (Metrics.gauge "serve.queue.depth") 3.;
  let h = Metrics.histogram "serve.queue.wait_s" in
  List.iter (Metrics.observe h) [ 0.1; 0.2; 0.3; 0.4 ];
  Obs.Sink.disable ();
  let text = Expose.render () in
  match Expose.parse text with
  | Error e -> Alcotest.failf "rendered text does not parse: %s" e
  | Ok samples ->
    let value ?quantile metric =
      List.find_map
        (fun s ->
          if
            s.Expose.metric = metric
            && List.assoc_opt "quantile" s.Expose.labels = quantile
          then Some s.Expose.value
          else None)
        samples
    in
    check_bool "counter exposed with _total" true
      (value "zkvc_serve_requests_total" = Some 7.);
    check_bool "gauge exposed" true (value "zkvc_serve_queue_depth" = Some 3.);
    check_bool "summary count" true (value "zkvc_serve_queue_wait_s_count" = Some 4.);
    check_bool "summary sum" true
      (match value "zkvc_serve_queue_wait_s_sum" with
       | Some v -> Float.abs (v -. 1.0) < 1e-9
       | None -> false);
    check_bool "median quantile exposed" true
      (match value ~quantile:"0.5" "zkvc_serve_queue_wait_s" with
       | Some v -> v >= 0.1 && v <= 0.4
       | None -> false)

let expose_qcheck =
  (* whatever instruments exist, render output always re-parses and
     every float survives the text round trip exactly *)
  QCheck.Test.make ~count:30 ~name:"render/parse round-trips"
    QCheck.(
      small_list
        (pair (pair small_nat bool)
           (small_list (make Gen.(float_bound_inclusive 1000.)))))
    (fun specs ->
      Obs.Sink.disable ();
      Span.reset ();
      Metrics.reset ();
      Obs.Sink.enable ();
      List.iteri
        (fun i ((n, as_gauge), obs) ->
          let name = Printf.sprintf "q.test-%d.%d!" i n in
          if as_gauge then Metrics.set (Metrics.gauge name) (float_of_int n)
          else begin
            let h = Metrics.histogram name in
            List.iter (Metrics.observe h) obs
          end)
        specs;
      Obs.Sink.disable ();
      match Expose.parse (Expose.render ()) with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let test_expose_parse_rejects () =
  List.iter
    (fun bad ->
      match Expose.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ "metric"; (* no value *)
      "metric notanumber\n";
      "{\"oops\"} 1\n"; (* no metric name *)
      "metric{unclosed=\"x\" 1\n" ];
  (* valid corner cases *)
  List.iter
    (fun good ->
      match Expose.parse good with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "rejected %S: %s" good e)
    [ ""; "# just a comment\n"; "m 1\n"; "m{a=\"b\",c=\"d\\\"e\"} 2.5 1699999999\n" ]

(* ------------------------------------------------------------------ *)
(* Stats.median (qcheck)                                               *)

let sample_gen =
  (* non-empty arrays of small positive dyadic rationals (k / 2^20,
     k < 2^24): shaped like timing samples, but exact in double
     precision, so the invariants below can use [=] instead of a
     tolerance *)
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
  [ QCheck.Test.make ~count:200 ~name:"median invariant under permutation" sample_gen
      (fun xs -> Stats.median xs = Stats.median (shuffle rng xs));
    QCheck.Test.make ~count:200 ~name:"median bounded by sample range" sample_gen (fun xs ->
        let m = Stats.median xs in
        Array.fold_left Float.min xs.(0) xs <= m && m <= Array.fold_left Float.max xs.(0) xs);
    QCheck.Test.make ~count:200 ~name:"duplicating every sample preserves the median"
      sample_gen (fun xs ->
        Stats.median (Array.append xs xs) = Stats.median xs) ]

let test_stats_known_values () =
  check_bool "median of odd sample" true (Stats.median [| 3.; 1.; 2. |] = 2.);
  check_bool "median of even sample averages the middle pair" true
    (Stats.median [| 4.; 1.; 3.; 2. |] = 2.5);
  Alcotest.check_raises "empty sample rejected" (Invalid_argument "Stats.median: empty sample")
    (fun () -> ignore (Stats.median [||]))

(* ------------------------------------------------------------------ *)
(* Api.run measurement consistency (both backends)                      *)

let run_backend_consistency backend prove_root =
  fresh ();
  let rng = Random.State.make [| 7 |] in
  let d = Mspec.dims ~a:2 ~n:4 ~b:2 in
  let x = Spec.random_matrix rng ~rows:d.Mspec.a ~cols:d.Mspec.n ~bound:64 in
  let w = Spec.random_matrix rng ~rows:d.Mspec.n ~cols:d.Mspec.b ~bound:64 in
  Obs.Sink.enable ();
  let _proof, m = Api.run ~rng backend Mc.Crpc_psq ~x ~w d in
  Obs.Sink.disable ();
  let span =
    match Span.find_root prove_root with
    | Some s -> s
    | None -> Alcotest.failf "missing %s root span" prove_root
  in
  (* the measurement's prove time is rebuilt from exactly this span *)
  check_bool "prove_s equals the prove span duration" true
    (Float.abs (m.Api.timings.Api.prove_s -. Span.duration_s span) < 1e-9);
  (* and the phase children partition (a subset of) it: no double counting *)
  let children = Span.children span in
  check_bool "prove span has phase children" true (children <> []);
  let child_sum = List.fold_left (fun acc c -> acc +. Span.duration_s c) 0. children in
  check_bool "child phases sum to at most prove_s" true
    (child_sum <= m.Api.timings.Api.prove_s +. 1e-9);
  (* field multiplications were counted while proving *)
  check_bool "field.mont_mul counted" true
    (Metrics.counter_value (Metrics.counter "field.mont_mul") > 0)

let test_api_groth16_consistency () =
  run_backend_consistency Api.Backend_groth16 "groth16.prove";
  (* the acceptance-criteria phases: all five MSMs appear under prove *)
  let span = Option.get (Span.find_root "groth16.prove") in
  let names = List.map Span.name (Span.children span) in
  List.iter
    (fun phase -> check_bool ("phase " ^ phase) true (List.mem phase names))
    [ "prove.h_coeffs"; "prove.msm_a"; "prove.msm_b_g2"; "prove.msm_b_g1";
      "prove.msm_l"; "prove.msm_h" ]

let test_api_spartan_consistency () =
  run_backend_consistency Api.Backend_spartan "spartan.prove";
  let span = Option.get (Span.find_root "spartan.prove") in
  (* per-sumcheck-round spans are nested under the sumcheck phases *)
  check_bool "sc1 round spans" true (Span.find_rec span "sc1.round1" <> None);
  check_bool "sc2 round spans" true (Span.find_rec span "sc2.round1" <> None);
  check_bool "sumcheck rounds counted" true
    (Metrics.counter_value (Metrics.counter "sumcheck.rounds") > 0)

let test_disabled_run_records_nothing () =
  fresh ();
  let rng = Random.State.make [| 8 |] in
  let d = Mspec.dims ~a:2 ~n:2 ~b:2 in
  let x = Spec.random_matrix rng ~rows:2 ~cols:2 ~bound:64 in
  let w = Spec.random_matrix rng ~rows:2 ~cols:2 ~bound:64 in
  let _proof, m = Api.run ~rng Api.Backend_spartan Mc.Vanilla ~x ~w d in
  check_bool "timings still measured" true (m.Api.timings.Api.prove_s >= 0.);
  check_int "no spans recorded" 0 (List.length (Span.roots ()));
  check_int "no field mults counted" 0
    (Metrics.counter_value (Metrics.counter "field.mont_mul"))

let () =
  Alcotest.run "obs"
    [ ( "span",
        [ Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "exception closes span" `Quick test_span_exception_closes;
          Alcotest.test_case "disabled fast path" `Quick test_disabled_fast_path;
          Alcotest.test_case "args and external grafting" `Quick
            test_span_args_and_external ] );
      ( "flight",
        [ Alcotest.test_case "ring overwrite semantics" `Quick test_flight_ring;
          Alcotest.test_case "concurrent records stay bounded" `Quick
            test_flight_ring_concurrent ] );
      ( "expose",
        [ Alcotest.test_case "render and re-parse" `Quick test_expose_render_parse;
          QCheck_alcotest.to_alcotest expose_qcheck;
          Alcotest.test_case "parser rejects malformed lines" `Quick
            test_expose_parse_rejects ] );
      ( "metrics",
        [ Alcotest.test_case "sink gating" `Quick test_metrics_gated_by_sink;
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "reservoir bounds retention" `Quick
            test_histogram_reservoir_bounds;
          Alcotest.test_case "sorted cache tracks observations" `Quick
            test_histogram_cache_interleaving;
          Alcotest.test_case "counters atomic across domains" `Quick
            test_counters_atomic_across_domains ] );
      ( "export",
        [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "chrome trace valid json" `Quick test_chrome_trace_valid;
          Alcotest.test_case "chrome trace tid and args" `Quick
            test_chrome_trace_tid_and_args ] );
      ( "stats",
        Alcotest.test_case "known values" `Quick test_stats_known_values
        :: List.map QCheck_alcotest.to_alcotest qcheck_stats );
      ( "api",
        [ Alcotest.test_case "groth16 timings from spans" `Quick test_api_groth16_consistency;
          Alcotest.test_case "spartan timings from spans" `Quick test_api_spartan_consistency;
          Alcotest.test_case "disabled run records nothing" `Quick
            test_disabled_run_records_nothing ] ) ]
