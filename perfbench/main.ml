(* perfbench: seeded end-to-end and per-layer benchmark of the zkVC
   prover stack (see LAYERS.md).

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--smoke] [--cli PATH] [--fault none|bad-proof|accept-all]

   --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
   prints the per-layer metrics of a run in which part of the operations
   record the library's spans and counters. The last line of standard output is one
   JSON object {correct, attempted, failed, metrics}. --smoke shrinks
   every workload to tiny dimensions and one operation. --fault breaks
   the prover or the verifier on purpose to show the gate trips. *)

module Mspec = Zkvc.Matmul_spec
module Ops = Zkvc_zkml.Ops
module Api = Zkvc.Api

let dims a n b = { Mspec.a; n; b }

let counts constraints nnz_a nnz_b nnz_c inputs =
  { Inproc.constraints; nnz_a; nnz_b; nnz_c; inputs }

let workloads =
  [ "g16-crpc-matmul"; "spartan-crpc-matmul"; "spartan-nonlinear"; "serve-mixed" ]

let inproc name ~smoke ~seed =
  let workload backend prepare_span prepare expect setups =
    { Inproc.backend; prepare_span; prepare; expect; setups }
  in
  let g16 = Api.Backend_groth16 and spartan = Api.Backend_spartan in
  let matmul d = Inproc.matmul ~seed d in
  let nonlinear ~rows ~len ~gelu =
    Inproc.nonlinear ~seed
      [ Ops.Op_softmax { rows; len }; Ops.Op_gelu gelu; Ops.Op_layernorm { rows; cols = len } ]
  in
  (* the r1cs counts are the ones recorded for each statement shape *)
  match (name, smoke) with
  | "g16-crpc-matmul", false ->
    workload g16 "core.prepare" (matmul (dims 12 16 32)) (counts 16 192 512 414 384) 5
  | "spartan-crpc-matmul", false ->
    workload spartan "core.prepare" (matmul (dims 49 64 128)) (counts 64 3136 8192 6398 6272) 5
  | "spartan-nonlinear", false ->
    workload spartan "zkml.build" (nonlinear ~rows:2 ~len:8 ~gelu:16)
      (counts 8342 16758 16078 296 0) 15
  | "g16-crpc-matmul", true ->
    workload g16 "core.prepare" (matmul (dims 2 2 2)) (counts 2 4 4 6 4) 1
  | "spartan-crpc-matmul", true ->
    workload spartan "core.prepare" (matmul (dims 2 2 2)) (counts 2 4 4 6 4) 1
  | "spartan-nonlinear", true ->
    workload spartan "zkml.build" (nonlinear ~rows:1 ~len:2 ~gelu:1) (counts 1082 2171 2082 39 0) 1
  | _ -> invalid_arg name

let served ~smoke ~cli =
  if smoke then { Served.cli; dims = dims 2 2 2; reused = 1; setups = 1; expect = counts 2 4 4 6 4 }
  else
    { Served.cli; dims = dims 6 8 16; reused = 3; setups = 5; expect = counts 8 48 128 110 96 }

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--cli PATH] \
     [--fault none|bad-proof|accept-all]";
  Printf.eprintf "workloads: %s\n" (String.concat ", " workloads);
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref (-1) in
  let smoke = ref false and cli = ref "_build/default/bin/zkvc_cli.exe" and fault = ref "none" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are drawn from");
      ("--seconds", Arg.Set_float seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " tiny dimensions, one operation");
      ("--cli", Arg.Set_string cli, "PATH zkvc_cli executable (serve-mixed)");
      ("--fault", Arg.Set_string fault, "KIND break the prover or verifier on purpose") ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad a)) "perfbench"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  let fault =
    match !fault with
    | "none" -> Inproc.No_fault
    | "bad-proof" -> Inproc.Bad_proof
    | "accept-all" -> Inproc.Accept_all
    | _ -> usage ()
  in
  if (not (List.mem !workload workloads)) || (!trace <> 0 && !trace <> 1) || !seconds <= 0. then
    usage ();
  let trace = !trace = 1 and smoke = !smoke and seed = !seed and seconds = !seconds in
  Zkvc_parallel.set_jobs 1;
  if smoke then Probes.max_reps := 1;
  Zkvc_obs.Span.set_clock Host.now;
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%b smoke=%b jobs=%d\n%!"
    !workload seed seconds trace smoke (Zkvc_parallel.jobs ());
  let noise = Host.noise_start () in
  (try
     if !workload = "serve-mixed" then
       Served.run (served ~smoke ~cli:!cli) ~seed ~seconds ~trace ~smoke ~fault
     else Inproc.run (inproc !workload ~smoke ~seed) ~seed ~seconds ~trace ~smoke ~fault
   with e ->
     Printf.eprintf "perfbench: %s did not complete: %s\n%!" !workload (Printexc.to_string e);
     exit 1);
  Report.flush_samples ();
  let spin_end = Host.spin_ms () and steal = Host.steal_ticks () - noise.Host.steal_start in
  Report.set "host.spin_start_ms" noise.Host.spin_start_ms;
  Report.set "host.spin_end_ms" spin_end;
  Report.set "host.steal_ticks" (float steal);
  Printf.printf
    "host (not gated, never used to rescale): spin_start_ms=%.3f spin_end_ms=%.3f steal_ticks=%d\n"
    noise.Host.spin_start_ms spin_end steal;
  Report.print ~trace
