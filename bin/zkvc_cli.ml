(* zkvc command-line interface.

   $ zkvc_cli count  --dims 49,64,128 --strategy crpc+psq
   $ zkvc_cli prove  --dims 8,8,16 --strategy crpc+psq --backend spartan
   $ zkvc_cli prove  --dims 8,8,16 --backend groth16 --trace t.json --metrics
   $ zkvc_cli model  --arch cifar10 --variant zkvc
*)

module Fr = Zkvc_field.Fr
module Api = Zkvc.Api
module Mc = Zkvc.Matmul_circuit
module Mspec = Zkvc.Matmul_spec
module Spec = Mspec.Make (Fr)
module Models = Zkvc_nn.Models
module Compiler = Zkvc_zkml.Compiler
module Ops = Zkvc_zkml.Ops
module Obs = Zkvc_obs
module Wire = Zkvc_serve.Wire
module Server = Zkvc_serve.Server
module Client = Zkvc_serve.Client
module Key_cache = Zkvc_serve.Key_cache
module Batch = Zkvc_serve.Batch

open Cmdliner

let cfg = Zkvc.Nonlinear.default_config

(* ---- shared converters ---- *)

let dims_conv =
  let parse s =
    match String.split_on_char ',' s with
    | [ a; n; b ] ->
      (try Ok (Mspec.dims ~a:(int_of_string a) ~n:(int_of_string n) ~b:(int_of_string b))
       with _ -> Error (`Msg "dims must be three positive integers a,n,b"))
    | _ -> Error (`Msg "dims must look like 49,64,128")
  in
  let print fmt d = Mspec.pp_dims fmt d in
  Arg.conv (parse, print)

let strategy_conv =
  let assoc =
    List.map (fun s -> (Mc.strategy_name s, s)) Mc.all_strategies
  in
  Arg.enum assoc

let backend_conv =
  Arg.enum [ ("groth16", Api.Backend_groth16); ("spartan", Api.Backend_spartan) ]

let arch_conv =
  Arg.enum
    [ ("cifar10", Models.vit_cifar10);
      ("tiny-imagenet", Models.vit_tiny_imagenet);
      ("imagenet", Models.vit_imagenet);
      ("bert", Models.bert_glue) ]

let variant_conv =
  Arg.enum
    [ ("softapprox", Models.Soft_approx);
      ("softfree-s", Models.Soft_free_s);
      ("softfree-p", Models.Soft_free_p);
      ("softfree-l", Models.Soft_free_l);
      ("zkvc", Models.Zkvc_hybrid) ]

let dims_arg =
  Arg.(value & opt dims_conv (Mspec.dims ~a:8 ~n:8 ~b:16)
       & info [ "dims" ] ~docv:"A,N,B" ~doc:"Matrix dimensions [A,N]x[N,B].")

let strategy_arg =
  Arg.(value & opt strategy_conv Mc.Crpc_psq
       & info [ "strategy" ] ~docv:"STRATEGY"
           ~doc:"Matmul encoding: vanilla, vanilla+psq, crpc or crpc+psq.")

let jobs_arg =
  Arg.(value & opt int Zkvc_parallel.env_jobs
       & info [ "jobs" ] ~docv:"N"
           ~doc:"Prover worker domains (0 = one per core). Proofs are \
                 byte-identical for every value. Defaults to $(b,ZKVC_JOBS) \
                 or 1.")

let backend_arg =
  Arg.(value & opt backend_conv Api.Backend_groth16
       & info [ "backend" ] ~docv:"BACKEND" ~doc:"groth16 or spartan.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* ---- codec file IO ---- *)

(* a [Sys_error] message naming [path]: open errors already name the
   file; read and write errors do not *)
let io_error path msg = if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg

(* Every output file goes through here: an unwritable path prints why and
   exits 2, like an unreadable input. *)
let write_file path bytes =
  try Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes)
  with Sys_error msg ->
    Printf.eprintf "zkvc_cli: cannot write %s\n" (io_error path msg);
    exit 2

(* the recorded spans as one compact Chrome trace_event file *)
let write_trace path =
  write_file path
    (Bytes.of_string (Obs.Json.to_string (Obs.Export.to_chrome_trace (Obs.Span.roots ()))))

let read_file path = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)

(* Read and decode one codec file ([what] names its kind in messages). A
   missing or malformed file prints why and yields [None]; callers exit 2. *)
let load_file decode ~what path =
  match read_file path with
  | exception Sys_error msg ->
    Printf.eprintf "zkvc_cli: cannot read %s\n" (io_error path msg);
    None
  | bytes -> (
    match decode bytes with
    | Ok v -> Some v
    | Error e ->
      Printf.eprintf "zkvc_cli: bad %s file %s: %s\n" what path (Wire.error_to_string e);
      None)

let load_key_file = load_file Wire.decode_key_file ~what:"key"
let load_proof_file = load_file Wire.decode_proof_file ~what:"proof"

let write_proof_file file ~backend ~strategy ~dims ~challenge ~key_id ~public_inputs proof =
  write_file file
    (Wire.encode_proof_file
       { Wire.pf_backend = backend;
         pf_strategy = strategy;
         pf_dims = dims;
         pf_challenge = challenge;
         pf_key_id = key_id;
         pf_public_inputs = public_inputs;
         pf_proof = proof })

(* the seeded statement every local subcommand proves, as the server does
   for [Wire.Seeded] requests *)
let seeded_statement d seed = Spec.seeded_statement ~seed ~bound:256 d

(* ---- count ---- *)

let count_cmd =
  let run d =
    Printf.printf "%-12s %12s %12s %10s\n" "strategy" "constraints" "variables" "nnz(A)";
    List.iter
      (fun strategy ->
        let c = Compiler.Counter.count ~strategy cfg (Ops.Op_matmul d) in
        let x = Spec.random_matrix (Random.State.make [| 1 |]) ~rows:d.Mspec.a ~cols:d.Mspec.n ~bound:16 in
        let w = Spec.random_matrix (Random.State.make [| 2 |]) ~rows:d.Mspec.n ~cols:d.Mspec.b ~bound:16 in
        let cs, _, _ = Api.build_circuit strategy ~x ~w d in
        let s = Api.Cs.stats cs in
        Printf.printf "%-12s %12d %12d %10d\n" (Mc.strategy_name strategy) c.Ops.constraints
          c.Ops.variables s.Api.Cs.nonzero_a)
      Mc.all_strategies;
    0
  in
  let doc = "Report R1CS sizes of the four matmul encodings at given dimensions." in
  Cmd.v (Cmd.info "count" ~doc) Term.(const run $ dims_arg)

(* ---- prove ---- *)

let prove_cmd =
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record hierarchical spans and write a Chrome trace_event \
                   JSON file (open in chrome://tracing or ui.perfetto.dev).")
  in
  let metrics_arg =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Record prover metrics (field mults, MSM sizes, NTT sizes, \
                   sumcheck rounds, R1CS shape) and print them with the span tree.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write a self-contained proof file (codec-encoded proof + \
                   public inputs + statement descriptor) verifiable with \
                   $(b,zkvc_cli verify) on another machine.")
  in
  let key_arg =
    Arg.(value & opt (some string) None
         & info [ "key" ] ~docv:"FILE"
             ~doc:"Prove under the keys in this key file (from $(b,keygen)) \
                   instead of generating fresh ones. The statement's \
                   backend, strategy and dims come from the file; only \
                   $(b,--seed) picks the instance. Proofs from different \
                   seeds then share one key — required for \
                   $(b,verify --batch). CRPC keys are \
                   statement-bound, so this needs a challenge-free \
                   strategy (vanilla / vanilla+psq) or a matching seed.")
  in
  (* prove under an existing key file: same CRS for every seed, which is
     what batch verification needs offline. The generated
     statement must land on the key file's key id (CRPC challenges are
     statement-derived, so a mismatched seed fails loudly here instead of
     yielding an unverifiable proof). *)
  let run_with_key kf seed out =
    let d = kf.Wire.kf_dims and strategy = kf.Wire.kf_strategy in
    let backend = kf.Wire.kf_backend in
    let rng, x, w = seeded_statement d seed in
    let prep = Api.prepare strategy ~x ~w d in
    let key_id = Key_cache.id_of backend strategy d prep in
    if key_id <> kf.Wire.kf_key_id then begin
      Printf.eprintf
        "zkvc_cli: statement key %s does not match the key file's %s\n\
         (CRPC keys are statement-bound: reuse the keygen seed, or keygen \
         a vanilla-strategy key)\n"
        (Wire.hex_of_id key_id)
        (Wire.hex_of_id kf.Wire.kf_key_id);
      2
    end
    else begin
      let proof = Api.prove_with ~rng kf.Wire.kf_keys prep.Api.assignment in
      let public_inputs = Api.Cs.public_inputs prep.Api.cs prep.Api.assignment in
      let ok = Api.verify_with kf.Wire.kf_keys ~public_inputs proof in
      Printf.printf "proved under key %s, verified: %b\n" (Wire.hex_of_id key_id) ok;
      (match out with
       | Some file ->
         write_proof_file file ~backend ~strategy ~dims:d ~challenge:prep.Api.challenge
           ~key_id ~public_inputs proof;
         Printf.printf "proof file: %s (key %s)\n" file (Wire.hex_of_id key_id)
       | None -> ());
      if ok then 0 else 1
    end
  in
  let run d strategy backend seed trace metrics jobs out key_file =
    Zkvc_parallel.set_jobs jobs;
    match key_file with
    | Some file -> (
      match load_key_file file with
      | None -> 2
      | Some kf -> run_with_key kf seed out)
    | None ->
    let rng, x, w = seeded_statement d seed in
    let observing = trace <> None || metrics in
    if observing then begin
      Obs.Span.reset ();
      Obs.Metrics.reset ();
      Obs.Sink.enable ()
    end;
    (* prepared once, under the span [Api.run] gives synthesis: the
       statement also carries the --out descriptor *)
    let prep =
      Obs.Span.with_span "zkvc.build_circuit" (fun () -> Api.prepare strategy ~x ~w d)
    in
    let proof, m = Api.run_prepared ~rng backend strategy d prep in
    if observing then Obs.Sink.disable ();
    Format.printf "%a@." Api.pp_measurement m;
    (match out with
     | Some file ->
       let key_id = Key_cache.id_of backend strategy d prep in
       write_proof_file file ~backend ~strategy ~dims:d ~challenge:prep.Api.challenge
         ~key_id ~public_inputs:(Api.Cs.public_inputs prep.Api.cs prep.Api.assignment) proof;
       Printf.printf "proof file: %s (key %s)\n" file (Wire.hex_of_id key_id)
     | None -> ());
    (match trace with
     | Some file ->
       write_trace file;
       Printf.printf "trace: %d spans written to %s\n"
         (List.length (String.split_on_char '\n' (Obs.Export.to_jsonl (Obs.Span.roots ()))) - 1)
         file
     | None -> ());
    if metrics then begin
      print_newline ();
      print_string (Obs.Export.tree_to_string (Obs.Span.roots ()));
      print_newline ();
      print_string (Obs.Metrics.to_string ())
    end;
    if m.Api.verified then 0 else 1
  in
  let doc = "Prove a random matmul instance and verify it (prints timings)." in
  Cmd.v (Cmd.info "prove" ~doc)
    Term.(const run $ dims_arg $ strategy_arg $ backend_arg $ seed_arg $ trace_arg
          $ metrics_arg $ jobs_arg $ out_arg $ key_arg)

(* ---- model ---- *)

let model_cmd =
  let arch_arg =
    Arg.(value & opt arch_conv Models.vit_cifar10
         & info [ "arch" ] ~docv:"ARCH" ~doc:"cifar10, tiny-imagenet, imagenet or bert.")
  in
  let variant_arg =
    Arg.(value & opt variant_conv Models.Zkvc_hybrid
         & info [ "variant" ] ~docv:"VARIANT"
             ~doc:"softapprox, softfree-s, softfree-p, softfree-l or zkvc.")
  in
  let run arch variant strategy =
    let layers = Compiler.compile arch variant in
    Printf.printf "%s / %s (matmuls: %s)\n" arch.Models.arch_name
      (Models.variant_name variant) (Mc.strategy_name strategy);
    List.iter
      (fun { Compiler.label; ops } ->
        let c =
          List.fold_left
            (fun acc op -> acc + (Compiler.Counter.count ~strategy cfg op).Ops.constraints)
            0 ops
        in
        Printf.printf "  %-24s %14d constraints\n" label c)
      layers;
    let total = Compiler.total_counts ~strategy cfg layers in
    let mm, other = Compiler.matmul_split ~strategy cfg layers in
    Printf.printf "total: %d constraints (%d matmul + %d non-linear/quantization), %d variables\n"
      total.Ops.constraints mm other total.Ops.variables;
    0
  in
  let doc = "Compile a paper model to verifiable ops and print exact budgets." in
  Cmd.v (Cmd.info "model" ~doc) Term.(const run $ arch_arg $ variant_arg $ strategy_arg)

(* ---- profile ---- *)

(* [profile --compare A.json B.json]: per-region delta of two region
   trees written by [profile --json]. Regions are matched by path (self
   counts, so parents and children never double-count) and sorted by
   nonzero saving. *)
let profile_compare ~baseline ~candidate =
  match candidate with
  | None ->
    Printf.eprintf "zkvc_cli: --compare needs a second region-tree file argument\n";
    2
  | Some candidate -> (
    let load path =
      match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | exception Sys_error msg -> Error msg
      | Error e -> Error (path ^ ": " ^ e)
      | Ok v -> Result.map_error (fun e -> path ^ ": " ^ e) (Obs.Attrib.of_json v)
    in
    match (load baseline, load candidate) with
    | Error e, _ | _, Error e ->
      Printf.eprintf "zkvc_cli: %s\n" e;
      2
    | Ok old_, Ok new_ ->
      let rows =
        Obs.Attrib.deltas ~old_ ~new_
        |> List.filter_map (fun (p, (d : Obs.Attrib.counts)) ->
               let dn = d.Obs.Attrib.nnz_a + d.Obs.Attrib.nnz_b + d.Obs.Attrib.nnz_c in
               if d.Obs.Attrib.constraints = 0 && dn = 0 then None
               else Some (p, d.Obs.Attrib.constraints, dn))
        (* largest nonzero saving first; ties by path for stable output *)
        |> List.sort (fun (p1, _, n1) (p2, _, n2) ->
               match compare n1 n2 with 0 -> compare p1 p2 | c -> c)
      in
      Printf.printf "%-40s %14s %14s\n" "region" "d-constraints" "d-nnz";
      if rows = [] then print_string "(no per-region differences)\n";
      List.iter
        (fun (p, dc, dn) -> Printf.printf "%-40s %+14d %+14d\n" p dc dn)
        rows;
      let tc, tn =
        List.fold_left (fun (tc, tn) (_, dc, dn) -> (tc + dc, tn + dn)) (0, 0) rows
      in
      Printf.printf "%-40s %+14d %+14d\n" "total" tc tn;
      0)

let profile_cmd =
  let folded_arg =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write the region tree as collapsed-stack text (one \
                   $(i,path;to;region N) line per region, weight = self \
                   constraint count) — feed straight to flamegraph.pl or \
                   speedscope.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the region tree as JSON (self counts, witness and \
                   prove-share seconds per region), comparable with \
                   $(b,--compare).")
  in
  let arch_arg =
    Arg.(value & opt (some arch_conv) None
         & info [ "arch" ] ~docv:"ARCH"
             ~doc:"Profile a whole compiled model (shrunk by $(b,--shrink)) \
                   instead of one matmul: cifar10, tiny-imagenet, imagenet \
                   or bert. Layer labels become regions.")
  in
  let variant_arg =
    Arg.(value & opt variant_conv Models.Zkvc_hybrid
         & info [ "variant" ] ~docv:"VARIANT" ~doc:"Model variant (with --arch).")
  in
  let shrink_arg =
    Arg.(value & opt int 8
         & info [ "shrink" ] ~docv:"N"
             ~doc:"Divide model widths/depths by N before synthesis (with \
                   --arch); keeps whole-model profiling tractable.")
  in
  let compare_arg =
    Arg.(value & opt (some string) None
         & info [ "compare" ] ~docv:"BASELINE.json"
             ~doc:"Diff two region trees instead of profiling: \
                   $(b,zkvc_cli profile --compare A.json B.json) prints the \
                   per-region constraint and nonzero deltas of B relative to \
                   A, sorted by nonzero saving. Both files are \
                   $(b,--json) output.")
  in
  let compare_to_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"NEW.json" ~doc:"Second region tree for $(b,--compare).")
  in
  let run d strategy backend seed jobs arch variant shrink folded json_file compare
      compare_to =
    match compare with
    | Some baseline -> profile_compare ~baseline ~candidate:compare_to
    | None ->
    Zkvc_parallel.set_jobs jobs;
    let rng, cs, assignment, tree, section =
      match arch with
      | None ->
        let rng, x, w = seeded_statement d seed in
        let prep = Api.prepare strategy ~x ~w d in
        (rng, prep.Api.cs, prep.Api.assignment, prep.Api.regions, "profile")
      | Some arch ->
        (* the model path draws no matrices: keygen gets the fresh rng *)
        let rng = Random.State.make [| seed |] in
        let arch = Models.shrink arch ~factor:shrink in
        let layers = Compiler.compile arch variant in
        let b = Compiler.synthesize ~strategy cfg layers in
        let cs, assignment, tree = Compiler.Counter.B.finalize_attributed b in
        (rng, cs, assignment, tree, "profile-" ^ arch.Models.arch_name)
    in
    let stats = Api.Cs.stats cs in
    let public_inputs = Api.Cs.public_inputs cs assignment in
    let t0 = Obs.Span.now () in
    let keys = Api.keygen ~rng backend cs in
    let t1 = Obs.Span.now () in
    let proof = Api.prove_with ~rng keys assignment in
    let t2 = Obs.Span.now () in
    let ok = Api.verify_with keys ~public_inputs proof in
    let t3 = Obs.Span.now () in
    let prove_s = t2 -. t1 in
    let tree = Obs.Attrib.with_prove_share ~prove_s tree in
    (* Groth16's QAP reduction appends input-consistency rows on the A
       side; surface them as a synthetic zero-constraint region so the
       per-region nnz_a ledger reconciles with Qap.density. *)
    let tree =
      match backend with
      | Api.Backend_groth16 ->
        let pad =
          Zkvc_groth16.Groth16.Qap.input_consistency_nnz
            ~num_inputs:(Api.Cs.num_inputs cs)
        in
        { tree with
          Obs.Attrib.children =
            tree.Obs.Attrib.children
            @ [ Obs.Attrib.make ~name:"(qap-padding)"
                  ~self:{ Obs.Attrib.zero_counts with Obs.Attrib.nnz_a = pad }
                  [] ] }
      | Api.Backend_spartan -> tree
    in
    let total = Obs.Attrib.total tree in
    Printf.printf "%s  %s  %s  prove=%.3fs setup=%.3fs verify=%.4fs%s\n\n" section
      (Mc.strategy_name strategy) (Api.backend_name backend) prove_s (t1 -. t0) (t3 -. t2)
      (if ok then "" else "  VERIFY-FAILED");
    print_string (Obs.Attrib.to_table tree);
    let sum_ok = total.Obs.Attrib.constraints = stats.Api.Cs.constraints in
    Printf.printf "\nregion constraints total: %d; global ledger: %d (%s)\n"
      total.Obs.Attrib.constraints stats.Api.Cs.constraints
      (if sum_ok then "exact match" else "MISMATCH");
    let unattrib = Obs.Attrib.unattributed_pct tree in
    Printf.printf "unattributed constraints: %.2f%% (target < 5%%)%s\n" unattrib
      (if unattrib >= 5. then "  WARNING" else "");
    (match Obs.Attrib.top_regions ~n:3 tree with
     | [] -> ()
     | tops ->
       Printf.printf "hot regions: %s\n"
         (String.concat ", "
            (List.map (fun (p, c) -> Printf.sprintf "%s (%d)" p c) tops)));
    (match folded with
     | Some file ->
       write_file file (Bytes.of_string (Obs.Attrib.to_folded tree));
       Printf.printf "folded stacks: %s\n" file
     | None -> ());
    (match json_file with
     | Some file ->
       write_file file (Bytes.of_string (Obs.Json.to_string_pretty (Obs.Attrib.to_json tree)));
       Printf.printf "region tree: %s\n" file
     | None -> ());
    if not ok then 1 else if not sum_ok then 3 else 0
  in
  let doc =
    "Attribute constraints, nonzeros and prove time to circuit regions \
     (per gadget, per layer with --arch) and export the cost profile."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ dims_arg $ strategy_arg $ backend_arg $ seed_arg $ jobs_arg
          $ arch_arg $ variant_arg $ shrink_arg $ folded_arg $ json_arg
          $ compare_arg $ compare_to_arg)

(* ---- gkr ---- *)

let gkr_cmd =
  let run d seed =
    let _, x, w = seeded_statement d seed in
    let y = Spec.multiply x w in
    let t0 = Unix.gettimeofday () in
    let proof = Zkvc_gkr.Thaler_matmul.prove ~a:x ~b:w in
    let t_prove = Unix.gettimeofday () -. t0 in
    let t0 = Unix.gettimeofday () in
    let ok = Zkvc_gkr.Thaler_matmul.verify ~a:x ~b:w ~c:y proof in
    let t_verify = Unix.gettimeofday () -. t0 in
    Printf.printf
      "thaler-matmul %s: prove=%.4fs verify=%.4fs proof=%dB verified=%b\n"
      (Format.asprintf "%a" Mspec.pp_dims d)
      t_prove t_verify
      (Zkvc_gkr.Thaler_matmul.proof_size_bytes proof)
      ok;
    if ok then 0 else 1
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let doc = "Prove a matmul with the interactive-family Thaler'13 sumcheck (GKR baseline)." in
  Cmd.v (Cmd.info "gkr" ~doc) Term.(const run $ dims_arg $ seed_arg)

(* ---- keygen ---- *)

let keygen_cmd =
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the key file here.")
  in
  let run d strategy backend seed jobs out =
    Zkvc_parallel.set_jobs jobs;
    let rng, x, w = seeded_statement d seed in
    let prep = Api.prepare strategy ~x ~w d in
    let kf =
      Key_cache.key_file backend strategy d prep
        (Api.keygen ~rng backend prep.Api.cs)
    in
    write_file out (Wire.encode_key_file kf);
    Printf.printf "key file: %s (key %s)\n" out (Wire.hex_of_id kf.Wire.kf_key_id);
    0
  in
  let doc =
    "Generate backend keys for a circuit and write them as a key file \
     (CRPC challenges are seed-dependent, so use the same seed as prove)."
  in
  Cmd.v (Cmd.info "keygen" ~doc)
    Term.(const run $ dims_arg $ strategy_arg $ backend_arg $ seed_arg $ jobs_arg
          $ out_arg)

(* ---- verify ---- *)

(* Load a proof file and require it to target [kf]'s key. *)
let load_proof_for kf proof_file =
  match load_proof_file proof_file with
  | None -> None
  | Some pf ->
    if pf.Wire.pf_key_id <> kf.Wire.kf_key_id then begin
      Printf.eprintf
        "zkvc_cli: proof %s was made for key %s but the key file holds %s\n"
        proof_file
        (Wire.hex_of_id pf.Wire.pf_key_id)
        (Wire.hex_of_id kf.Wire.kf_key_id);
      None
    end
    else Some pf

let verify_cmd =
  let key_arg =
    Arg.(required & opt (some string) None
         & info [ "key" ] ~docv:"FILE" ~doc:"Key file from $(b,keygen).")
  in
  let proof_arg =
    Arg.(value & opt (some string) None
         & info [ "proof" ] ~docv:"FILE" ~doc:"Proof file from $(b,prove --out).")
  in
  let batch_arg =
    Arg.(value & opt_all string []
         & info [ "batch" ] ~docv:"FILE"
             ~doc:"Proof file to verify as part of one batch (repeat for each \
                   member; all must target the key file's key). The batch is \
                   checked with the backend's combined verifier; on rejection \
                   each member is re-verified alone and reported.")
  in
  let verify_single kf proof_file =
    match load_proof_for kf proof_file with
    | None -> 2
    | Some pf ->
      let ok =
        try
          Api.verify_with kf.Wire.kf_keys ~public_inputs:pf.Wire.pf_public_inputs
            pf.Wire.pf_proof
        with Invalid_argument _ -> false
      in
      Printf.printf "verified: %b\n" ok;
      if ok then 0 else 1
  in
  let verify_batch kf files =
    let pfs = List.map (load_proof_for kf) files in
    if List.exists (( = ) None) pfs then 2
    else begin
      let items =
        List.filter_map
          (Option.map (fun pf -> (pf.Wire.pf_public_inputs, pf.Wire.pf_proof)))
          pfs
      in
      let o = Batch.verify_each kf.Wire.kf_keys items in
      let path =
        match o.Batch.path with
        | Batch.Batched -> "batched"
        | Batch.Fallback -> "fallback"
        | Batch.Per_item -> "per-item"
      in
      List.iter2
        (fun file ok -> Printf.printf "%s: verified: %b\n" file ok)
        files o.Batch.verdicts;
      Printf.printf "batch of %d: %s%s\n" (List.length files) path
        (match o.Batch.malformed with
         | [] -> ""
         | bad ->
           Printf.sprintf " (malformed: %s)"
             (String.concat "," (List.map string_of_int bad)));
      if List.for_all Fun.id o.Batch.verdicts then 0 else 1
    end
  in
  let run key_file proof_file batch_files =
    match load_key_file key_file with
    | None -> 2
    | Some kf -> (
      match (proof_file, batch_files) with
      | Some pf, [] -> verify_single kf pf
      | None, (_ :: _ as files) -> verify_batch kf files
      | None, [] ->
        Printf.eprintf "zkvc_cli: give one of --proof or --batch\n";
        2
      | Some _, _ :: _ ->
        Printf.eprintf "zkvc_cli: --proof and --batch are mutually exclusive\n";
        2)
  in
  let doc =
    "Verify proof files against a key file (no witness needed): one proof \
     ($(b,--proof)) or a batch sharing one combined check ($(b,--batch), \
     repeated)."
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ key_arg $ proof_arg $ batch_arg)

(* ---- serve ---- *)

let socket_arg =
  Arg.(value & opt string "/tmp/zkvc.sock"
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let queue_arg =
    Arg.(value & opt int 16
         & info [ "queue" ] ~docv:"N" ~doc:"Job queue capacity (backpressure bound).")
  in
  let cache_arg =
    Arg.(value & opt int Key_cache.default_capacity
         & info [ "cache" ] ~docv:"N" ~doc:"In-memory key cache capacity (LRU).")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Spill generated keys to key files in DIR and reload evicted \
                   ones from there.")
  in
  let workers_arg =
    Arg.(value & opt int 1
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker threads serving jobs. Each connection's jobs queue \
                   in its own FIFO; workers take the connections' heads in \
                   plain round robin, with at most one job in flight per \
                   connection. The default 1 keeps the single-worker \
                   behaviour.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record a span per request and write a Chrome trace on shutdown.")
  in
  let metrics_arg =
    Arg.(value & flag
         & info [ "metrics" ] ~doc:"Print serve.* and prover metrics on shutdown.")
  in
  let metrics_file_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-file" ] ~docv:"PATH"
             ~doc:"Write a Prometheus text-exposition snapshot of all metrics \
                   here periodically (atomic rename; scrape with any file \
                   collector or $(b,zkvc_cli top --file)). Implies metric \
                   recording.")
  in
  let metrics_interval_arg =
    Arg.(value & opt float 1.
         & info [ "metrics-interval" ] ~docv:"SECONDS"
             ~doc:"Seconds between $(b,--metrics-file) snapshots.")
  in
  let flight_arg =
    Arg.(value & opt int 128
         & info [ "flight" ] ~docv:"N"
             ~doc:"Flight-recorder capacity: the last N completed or failed \
                   requests, dumped by $(b,zkvc_cli client status --detail).")
  in
  let flight_file_arg =
    Arg.(value & opt (some string) None
         & info [ "flight-file" ] ~docv:"PATH"
             ~doc:"Dump the flight recorder (JSON lines) here when the worker \
                   drains or crashes.")
  in
  let run socket queue cache cache_dir workers jobs trace metrics metrics_file
      metrics_interval flight flight_file =
    let cfg =
      { (Server.default_config ~socket_path:socket) with
        Server.queue_capacity = queue;
        cache_capacity = cache;
        cache_dir;
        workers;
        jobs;
        observe = trace <> None || metrics || metrics_file <> None;
        metrics_file;
        metrics_interval_s = metrics_interval;
        flight_capacity = flight;
        flight_file }
    in
    if cfg.Server.observe then begin
      Obs.Span.reset ();
      Obs.Metrics.reset ()
    end;
    let t = Server.start cfg in
    Printf.printf
      "zkvc serve: listening on %s (queue=%d cache=%d workers=%d jobs=%d)\n%!"
      socket queue cache (Stdlib.max 1 workers) (Zkvc_parallel.jobs ());
    Server.wait t;
    let s = Server.status t in
    Printf.printf
      "zkvc serve: stopped after %d requests (cache %d hits / %d misses, %d \
       timeouts, %d rejected, %d batched)\n"
      s.Wire.requests s.Wire.cache_hits s.Wire.cache_misses s.Wire.timeouts
      s.Wire.rejections s.Wire.batched;
    Option.iter write_trace trace;
    if metrics then print_string (Obs.Metrics.to_string ());
    0
  in
  let doc =
    "Run the persistent proof service on a Unix-domain socket (keys stay \
     cached across requests; talk to it with $(b,zkvc_cli client))."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ queue_arg $ cache_arg $ cache_dir_arg
          $ workers_arg $ jobs_arg $ trace_arg $ metrics_arg $ metrics_file_arg
          $ metrics_interval_arg $ flight_arg $ flight_file_arg)

(* ---- client ---- *)

let deadline_arg =
  Arg.(value & opt int 0
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Abort the request server-side after MS milliseconds (0 = none).")

let client_fail code message =
  Printf.eprintf "zkvc_cli: server error (%s): %s\n"
    (Wire.error_code_to_string code) message;
  3

let client_transport_fail e =
  Printf.eprintf "zkvc_cli: transport error: %s\n" (Wire.error_to_string e);
  3

let unexpected_response () =
  Printf.eprintf "zkvc_cli: unexpected response type\n";
  3

(* Run [f] over a fresh connection; a server that cannot be reached (no
   socket, nothing listening) is a transport failure like any other. *)
let with_server socket f =
  try Client.with_connection socket f
  with Unix.Unix_error (err, _, _) ->
    Printf.eprintf "zkvc_cli: cannot reach server at %s: %s\n" socket
      (Unix.error_message err);
    3

(* One request, one reply: [handle] maps the expected reply to an exit
   code and returns [None] for any other reply type. *)
let client_call socket request handle =
  with_server socket (fun c ->
      match Client.request c request with
      | Error e -> client_transport_fail e
      | Ok (Wire.Error { code; message }) -> client_fail code message
      | Ok reply -> (
        match handle c reply with Some rc -> rc | None -> unexpected_response ()))

let client_prove_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the returned proof as a proof file.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record the request as a span tree — with the server's own \
                   phase timings stitched in from the response — and write a \
                   Chrome trace_event file: one trace shows the whole \
                   cross-process request, joined by request id.")
  in
  let run socket d strategy backend seed deadline_ms out trace =
    if trace <> None then begin
      Obs.Span.reset ();
      Obs.Sink.enable ()
    end;
    let status =
      client_call socket
        (Wire.Prove
           { backend;
             strategy;
             dims = d;
             input = Wire.Seeded { seed; bound = 256 };
             deadline_ms })
        (fun c -> function
          | Wire.Prove_ok { key_id; cache_hit; challenge; public_inputs; proof; prove_s } ->
            Printf.printf "proved in %.4fs (key %s, cache %s, proof %dB)\n" prove_s
              (Wire.hex_of_id key_id)
              (if cache_hit then "hit" else "miss")
              (Api.proof_size proof);
            (match Client.last_request_id c with
             | Some id -> Printf.printf "request %s\n" (Wire.hex_of_id id)
             | None -> ());
            (match out with
             | Some file ->
               write_proof_file file ~backend ~strategy ~dims:d ~challenge ~key_id
                 ~public_inputs proof;
               Printf.printf "proof file: %s\n" file
             | None -> ());
            Some 0
          | _ -> None)
    in
    (match trace with
     | Some file ->
       Obs.Sink.disable ();
       write_trace file;
       Printf.printf "trace: %s\n" file
     | None -> ());
    status
  in
  let doc = "Prove a seeded matmul instance on the server." in
  Cmd.v (Cmd.info "prove" ~doc)
    Term.(const run $ socket_arg $ dims_arg $ strategy_arg $ backend_arg $ seed_arg
          $ deadline_arg $ out_arg $ trace_arg)

let client_keygen_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Save the returned key file here.")
  in
  let run socket d strategy backend seed deadline_ms out =
    client_call socket
      (Wire.Keygen { backend; strategy; dims = d; seed; bound = 256; deadline_ms })
      (fun _ -> function
        | Wire.Keygen_ok { key_id; cache_hit; key_bytes } ->
          Printf.printf "key %s (cache %s, %dB)\n" (Wire.hex_of_id key_id)
            (if cache_hit then "hit" else "miss")
            (Bytes.length key_bytes);
          (match out with
           | Some file ->
             write_file file key_bytes;
             Printf.printf "key file: %s\n" file
           | None -> ());
          Some 0
        | _ -> None)
  in
  let doc = "Generate (or fetch cached) keys on the server." in
  Cmd.v (Cmd.info "keygen" ~doc)
    Term.(const run $ socket_arg $ dims_arg $ strategy_arg $ backend_arg $ seed_arg
          $ deadline_arg $ out_arg)

let client_verify_cmd =
  let proof_arg =
    Arg.(value & opt (some string) None
         & info [ "proof" ] ~docv:"FILE" ~doc:"Proof file to verify on the server.")
  in
  let batch_arg =
    Arg.(value & opt_all string []
         & info [ "batch" ] ~docv:"FILE"
             ~doc:"Proof file to include in one server-side $(b,Batch_verify) \
                   request (repeat for each member; all must target the same \
                   key).")
  in
  let verify_one socket proof_file deadline_ms =
    match load_proof_file proof_file with
    | None -> 2
    | Some pf ->
      client_call socket
        (Wire.Verify
           { key_id = pf.Wire.pf_key_id;
             public_inputs = pf.Wire.pf_public_inputs;
             proof = pf.Wire.pf_proof;
             deadline_ms })
        (fun _ -> function
          | Wire.Verify_ok ok ->
            Printf.printf "verified: %b\n" ok;
            Some (if ok then 0 else 1)
          | _ -> None)
  in
  let verify_batch socket files deadline_ms =
    let pfs = List.map load_proof_file files in
    if List.exists (( = ) None) pfs then 2
    else begin
      let pfs = List.filter_map Fun.id pfs in
      let key_id = (List.hd pfs).Wire.pf_key_id in
      if List.exists (fun pf -> pf.Wire.pf_key_id <> key_id) pfs then begin
        Printf.eprintf "zkvc_cli: batch members target different keys\n";
        2
      end
      else
        with_server socket (fun c ->
            match
              Client.request c
                (Wire.Batch_verify
                   { key_id;
                     items =
                       List.map
                         (fun pf -> (pf.Wire.pf_public_inputs, pf.Wire.pf_proof))
                         pfs;
                     deadline_ms })
            with
            | Error (Wire.Malformed _ as e) ->
              (* e.g. a Batch_ok whose length differs from the batch sent *)
              Printf.eprintf "zkvc_cli: bad reply: %s\n" (Wire.error_to_string e);
              2
            | Error e -> client_transport_fail e
            | Ok (Wire.Error { code; message }) -> client_fail code message
            | Ok (Wire.Batch_ok verdicts) ->
              List.iter2
                (fun file ok -> Printf.printf "%s: verified: %b\n" file ok)
                files verdicts;
              if List.for_all Fun.id verdicts then 0 else 1
            | Ok _ -> unexpected_response ())
    end
  in
  let run socket proof_file batch_files deadline_ms =
    match (proof_file, batch_files) with
    | Some pf, [] -> verify_one socket pf deadline_ms
    | None, (_ :: _ as files) -> verify_batch socket files deadline_ms
    | None, [] ->
      Printf.eprintf "zkvc_cli: give --proof or --batch\n";
      2
    | Some _, _ :: _ ->
      Printf.eprintf "zkvc_cli: --proof and --batch are mutually exclusive\n";
      2
  in
  let doc =
    "Verify proof files against the server's key cache: one proof \
     ($(b,--proof)) or a batch in one $(b,Batch_verify) request \
     ($(b,--batch), repeated)."
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const run $ socket_arg $ proof_arg $ batch_arg $ deadline_arg)

let print_status out (s : Wire.status) =
  Printf.fprintf out
    "uptime_s=%.1f requests=%d queue=%d/%d (verify=%d prove=%d) \
     workers=%d/%d cache_hits=%d cache_misses=%d cache_entries=%d timeouts=%d \
     rejections=%d batched=%d\n"
    s.Wire.uptime_s s.Wire.requests s.Wire.queue_depth s.Wire.queue_capacity
    s.Wire.queue_depth_verify s.Wire.queue_depth_prove s.Wire.workers_busy
    s.Wire.workers s.Wire.cache_hits s.Wire.cache_misses s.Wire.cache_entries
    s.Wire.timeouts s.Wire.rejections s.Wire.batched

let client_status_cmd =
  let detail_arg =
    Arg.(value & flag
         & info [ "detail" ]
             ~doc:"Dump the server's flight recorder — one JSON object per \
                   completed request, oldest first — to stdout (counters go \
                   to stderr).")
  in
  let run socket detail =
    if detail then
      client_call socket Wire.Status_detail (fun _ -> function
        | Wire.Status_detail_ok { status; flight_jsonl; _ } ->
          print_status stderr status;
          print_string flight_jsonl;
          Some 0
        | _ -> None)
    else
      client_call socket Wire.Status (fun _ -> function
        | Wire.Status_ok s ->
          print_status stdout s;
          Some 0
        | _ -> None)
  in
  Cmd.v (Cmd.info "status" ~doc:"Print the server's status counters.")
    Term.(const run $ socket_arg $ detail_arg)

let client_shutdown_cmd =
  let run socket =
    client_call socket Wire.Shutdown (fun _ -> function
      | Wire.Shutdown_ok ->
        Printf.printf "server stopped\n";
        Some 0
      | _ -> None)
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Drain in-flight jobs and stop the server gracefully.")
    Term.(const run $ socket_arg)

let client_cmd =
  let doc = "Talk to a running $(b,zkvc_cli serve) instance." in
  Cmd.group (Cmd.info "client" ~doc)
    [ client_prove_cmd; client_keygen_cmd; client_verify_cmd; client_status_cmd;
      client_shutdown_cmd ]

(* ---- top ---- *)

let top_cmd =
  let watch_arg =
    Arg.(value & opt (some float) None
         & info [ "watch" ] ~docv:"SECS"
             ~doc:"Refresh every $(docv) seconds until interrupted instead of \
                   printing once.")
  in
  let file_arg =
    Arg.(value & opt (some string) None
         & info [ "file" ] ~docv:"PATH"
             ~doc:"Read a metrics snapshot file (written by $(b,serve \
                   --metrics-file)) instead of querying a live server; the \
                   text is validated against the exposition grammar.")
  in
  let render_file path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg ->
      Printf.eprintf "zkvc_cli: %s\n" msg;
      1
    | text -> (
      match Obs.Expose.parse text with
      | Error msg ->
        Printf.eprintf "zkvc_cli: invalid exposition text: %s\n" msg;
        1
      | Ok samples ->
        List.iter
          (fun { Obs.Expose.metric; labels; value } ->
            let labels =
              match labels with
              | [] -> ""
              | l ->
                "{"
                ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)
                ^ "}"
            in
            Printf.printf "%s%s %s\n" metric labels (Obs.Expose.float_str value))
          samples;
        0)
  in
  let render_live socket =
    client_call socket Wire.Status_detail (fun _ -> function
      | Wire.Status_detail_ok { status; metrics_text; _ } ->
        print_status stdout status;
        print_string metrics_text;
        Some 0
      | _ -> None)
  in
  let run socket watch file =
    match file with
    | Some path -> render_file path
    | None -> (
      match watch with
      | None -> render_live socket
      | Some period ->
        let period = Float.max 0.05 period in
        let rec loop () =
          (* clear screen + home, like top(1) *)
          print_string "\027[2J\027[H";
          let rc = render_live socket in
          flush stdout;
          if rc <> 0 then rc
          else begin
            Thread.delay period;
            loop ()
          end
        in
        loop ())
  in
  let doc =
    "Render a server's metrics in Prometheus exposition format — from a live \
     server ($(b,--watch) to refresh) or from a $(b,--metrics-file) snapshot."
  in
  Cmd.v (Cmd.info "top" ~doc) Term.(const run $ socket_arg $ watch_arg $ file_arg)

(* ---- adversary ---- *)

let adversary_cmd =
  let module Adv = Zkvc_adversary.Adversary in
  let backend_opt_arg =
    Arg.(value & opt (some backend_conv) None
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"Restrict to one backend (default: both).")
  in
  let strategy_opt_arg =
    Arg.(value & opt (some strategy_conv) None
         & info [ "strategy" ] ~docv:"STRATEGY"
             ~doc:"Restrict to one encoding strategy (default: all four).")
  in
  let dims_opt_arg =
    Arg.(value & opt (some dims_conv) None
         & info [ "dims" ] ~docv:"A,N,B"
             ~doc:"Restrict to one dimension scale (default: the harness's \
                   two built-in scales).")
  in
  let only_arg =
    Arg.(value & opt (some string) None
         & info [ "only" ] ~docv:"SUBSTR"
             ~doc:"Run only mutations whose name (family.mutation) contains \
                   this substring — as printed in a failure's repro line.")
  in
  let run seed backend strategy dims only =
    let opt_list v defaults = match v with Some v -> [ v ] | None -> defaults in
    let backends = opt_list backend [ Api.Backend_groth16; Api.Backend_spartan ] in
    let strategies = opt_list strategy Adv.default_strategies in
    let dims = opt_list dims Adv.default_dims in
    Printf.printf "adversary sweep: seed=%d\n%!" seed;
    let reports, clean = Adv.sweep ?only ~backends ~strategies ~dims ~seed () in
    let mutations =
      List.fold_left (fun acc r -> acc + List.length r.Adv.cases) 0 reports
    in
    if clean then begin
      Printf.printf "all clean: %d mutations across %d targets rejected (seed=%d)\n"
        mutations (List.length reports) seed;
      0
    end
    else begin
      let failed =
        List.fold_left (fun acc r -> acc + List.length (Adv.failures r)) 0 reports
      in
      Printf.eprintf "FORGERY: %d of %d mutations accepted or crashed (seed=%d)\n"
        failed mutations seed;
      1
    end
  in
  let doc =
    "Fault-injection sweep: mutate proofs, witnesses, challenges and wire \
     bytes, and fail unless the verifier rejects every one."
  in
  Cmd.v (Cmd.info "adversary" ~doc)
    Term.(const run $ seed_arg $ backend_opt_arg $ strategy_opt_arg $ dims_opt_arg
          $ only_arg)

let () =
  (* span timestamps must be wall time everywhere (Sys.time is per-process
     CPU time and sums across prover domains) *)
  Obs.Span.set_clock Unix.gettimeofday;
  let doc = "zkVC: fast zero-knowledge proofs for verifiable matrix multiplication" in
  let info = Cmd.info "zkvc_cli" ~doc ~version:"1.0.0" in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ count_cmd; prove_cmd; model_cmd; profile_cmd; gkr_cmd; keygen_cmd;
            verify_cmd; serve_cmd; client_cmd; top_cmd;
            adversary_cmd ]))
