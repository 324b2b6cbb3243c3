(** High-level zkVC API over the BN254 scalar field: build a matmul
    statement with any strategy, prove it with either backend (zkVC-G =
    Groth16, zkVC-S = Spartan), verify, and collect the timing /
    size measurements the paper's tables report. *)

module Fr = Zkvc_field.Fr
module Groth16 = Zkvc_groth16.Groth16
module Spartan = Zkvc_spartan.Spartan
module Qap = Groth16.Qap
module Cs = Zkvc_r1cs.Constraint_system.Make (Fr)
module Bld = Zkvc_r1cs.Builder.Make (Fr)
module Opt = Zkvc_opt.Opt.Make (Fr)
module Mc = Matmul_circuit.Make (Fr)
module Spec = Matmul_spec.Make (Fr)

type backend = Backend_groth16 | Backend_spartan

let backend_name = function
  | Backend_groth16 -> "groth16"
  | Backend_spartan -> "spartan"

type timings =
  { setup_s : float;
    prove_s : float;
    verify_s : float }

(* One proved statement's shape, size, verdict and timings. See api.mli. *)
type measurement =
  { strategy : Matmul_circuit.strategy;
    backend : backend;
    dims : Matmul_spec.dims;
    constraints : int;
    variables : int;
    nonzero_a : int;
    nonzero_b : int;
    nonzero_c : int;
    witness : int;
    proof_bytes : int;
    verified : bool;
    timings : timings }

type proof =
  | Groth16_proof of Groth16.proof
  | Spartan_proof of Spartan.proof

module Obs = Zkvc_obs

(* Uses whatever clock is installed via [Obs.Span.set_clock] — a
   monotonic wall clock in the bench harness. The default [Sys.time] is
   process CPU time, which sums across domains and would misreport a
   parallel prover as no faster. *)
let time f =
  let t0 = Obs.Span.now () in
  let r = f () in
  (r, Obs.Span.now () -. t0)

(* When the observability sink is recording, phase durations are read back
   from the span just closed, so the measurement record and any exported
   trace agree exactly; otherwise fall back to a plain clock delta. *)
let timed name f =
  if Obs.Span.recording () then begin
    let r = Obs.Span.with_span name f in
    match Obs.Span.last_completed () with
    | Some s -> (r, Obs.Span.duration_s s)
    | None -> (r, 0.)
  end
  else time f

(* Optimiser traces attached to a prepared statement: the pass report and
   the witness map relating original and optimised layouts. *)
type opt_info = { opt_report : Opt.report; opt_map : Opt.witness_map }

type prepared =
  { cs : Cs.t;
    assignment : Fr.t array;
    y : Fr.t array array;
    challenge : Fr.t option;
    regions : Obs.Attrib.t;
    opt : opt_info option }

(** Build the matmul circuit for the given strategy. For CRPC strategies
    the challenge is derived by Fiat–Shamir from X, W and Y (commit-then-
    prove flow) — {e before} synthesis, so an optimiser config cannot
    perturb it; the same derivation runs on the verifier side. With
    [?optimize] the compiled system, assignment and region tree are the
    optimised ones, ready for any key/prove/verify path. *)
let prepare ?optimize strategy ~x ~w d =
  let y = Spec.multiply x w in
  let challenge =
    if Matmul_circuit.uses_challenge strategy then Some (Mc.derive_challenge ~x ~w ~y)
    else None
  in
  let b = Bld.create () in
  ignore (Mc.build b strategy ?challenge ~x ~w ~y d);
  match optimize with
  | None ->
    let cs, assignment, regions = Bld.finalize_attributed b in
    { cs; assignment; y; challenge; regions; opt = None }
  | Some config ->
    let cs, assignment, regions, prov = Bld.finalize_with_provenance b in
    let res =
      Obs.Span.with_span "zkvc.optimize" (fun () ->
          Opt.optimize ~config
            ~provenance:
              { Opt.constraint_region = prov.Bld.constraint_region;
                wire_region = prov.Bld.wire_region;
                tree = regions }
            cs)
    in
    { cs = res.Opt.cs;
      assignment = Opt.expand_witness res.Opt.map assignment;
      y;
      challenge;
      regions = (match res.Opt.regions with Some t -> t | None -> regions);
      opt = Some { opt_report = res.Opt.report; opt_map = res.Opt.map } }

let build_circuit strategy ~x ~w d =
  let p = prepare strategy ~x ~w d in
  (p.cs, p.assignment, p.y)

(* The circuit shape produced by every gadget in this repository depends
   only on structural parameters plus — for CRPC — the challenge, never on
   witness values (see Builder), so synthesising with all-zero matrices
   reproduces the exact constraint system. This is what a verifier that
   never saw X and W (a key-file consumer, the serve disk cache) uses. *)
let circuit_shape ?optimize strategy ?challenge d =
  (match (Matmul_circuit.uses_challenge strategy, challenge) with
   | true, None ->
     invalid_arg "Api.circuit_shape: CRPC strategies need the proof's challenge"
   | _ -> ());
  let challenge = if Matmul_circuit.uses_challenge strategy then challenge else None in
  let x = Array.make_matrix d.Matmul_spec.a d.Matmul_spec.n Fr.zero in
  let w = Array.make_matrix d.Matmul_spec.n d.Matmul_spec.b Fr.zero in
  let y = Array.make_matrix d.Matmul_spec.a d.Matmul_spec.b Fr.zero in
  let b = Bld.create () in
  ignore (Mc.build b strategy ?challenge ~x ~w ~y d);
  let cs = fst (Bld.finalize b) in
  match optimize with
  | None -> cs
  | Some config -> (Opt.optimize ~config cs).Opt.cs

type keys =
  | Groth16_keys of
      { qap : Qap.t; pk : Groth16.proving_key; vk : Groth16.verifying_key }
  | Spartan_keys of { inst : Spartan.instance; key : Spartan.key }

let default_rng () = Random.State.make [| 0x5eed |]

(* [keygen] consumes [rng] exactly as [run] historically did (Groth16
   setup draws; Spartan setup is deterministic), so [keygen] followed by
   [prove_with] on the same [rng] is byte-identical to [run]. *)
let keygen ?(rng = default_rng ()) backend cs =
  match backend with
  | Backend_groth16 ->
    let qap = Obs.Span.with_span "groth16.qap" (fun () -> Qap.create cs) in
    (* publishes the qap.* density gauges next to the r1cs.* ones *)
    let (_ : Qap.density) = Qap.density qap in
    let pk, vk = Obs.Span.with_span "groth16.setup" (fun () -> Groth16.setup rng qap) in
    Groth16_keys { qap; pk; vk }
  | Backend_spartan ->
    let inst = Obs.Span.with_span "spartan.preprocess" (fun () -> Spartan.preprocess cs) in
    let key = Obs.Span.with_span "spartan.setup" (fun () -> Spartan.setup inst) in
    Spartan_keys { inst; key }

let prove_with ?(rng = default_rng ()) keys assignment =
  match keys with
  | Groth16_keys { qap; pk; _ } -> Groth16_proof (Groth16.prove rng pk qap assignment)
  | Spartan_keys { inst; key } -> Spartan_proof (Spartan.prove rng key inst assignment)

let verify_with keys ~public_inputs proof =
  match (keys, proof) with
  | Groth16_keys { vk; _ }, Groth16_proof p -> Groth16.verify vk ~public_inputs p
  | Spartan_keys { inst; key }, Spartan_proof p ->
    Spartan.verify key inst ~public_inputs p
  | Groth16_keys _, Spartan_proof _ | Spartan_keys _, Groth16_proof _ ->
    invalid_arg "Api.verify_with: proof/key backend mismatch"

let proof_size = function
  | Groth16_proof p -> Groth16.proof_size_bytes p
  | Spartan_proof p -> Spartan.proof_size_bytes p

(** Keygen, prove and verify a prepared statement once, returning the
    proof and a full measurement row.
    The Groth16 setup time is reported separately and — like the paper —
    excluded from proving time. Verification failure is data
    ([measurement.verified]), not an exception: the adversary harness
    and the bench observe rejection without catching anything. *)
let run_prepared ?(rng = default_rng ()) backend strategy d prep =
  let cs = prep.cs in
  let stats = Cs.stats cs in
  let public_inputs = Cs.public_inputs cs prep.assignment in
  let name = backend_name backend in
  let keys, t_setup = timed (name ^ ".keygen") (fun () -> keygen ~rng backend cs) in
  let proof, t_prove =
    timed (name ^ ".prove") (fun () -> prove_with ~rng keys prep.assignment)
  in
  let ok, t_verify =
    timed (name ^ ".verify") (fun () -> verify_with keys ~public_inputs proof)
  in
  let proof_bytes = proof_size proof in
  let timings = { setup_s = t_setup; prove_s = t_prove; verify_s = t_verify } in
  ( proof,
    { strategy;
      backend;
      dims = d;
      constraints = stats.Cs.constraints;
      variables = stats.Cs.variables;
      nonzero_a = stats.Cs.nonzero_a;
      nonzero_b = stats.Cs.nonzero_b;
      nonzero_c = stats.Cs.nonzero_c;
      witness = Cs.num_aux cs;
      proof_bytes;
      verified = ok;
      timings } )

let run ?rng ?optimize backend strategy ~x ~w d =
  let prep =
    Obs.Span.with_span "zkvc.build_circuit" (fun () -> prepare ?optimize strategy ~x ~w d)
  in
  run_prepared ?rng backend strategy d prep

let pp_measurement fmt m =
  Format.fprintf fmt
    "%-12s %-8s %a  constraints=%-8d vars=%-8d nnz=%d/%d/%d witness=%-8d proof=%dB  setup=%.3fs prove=%.3fs verify=%.4fs%s"
    (Matmul_circuit.strategy_name m.strategy)
    (backend_name m.backend) Matmul_spec.pp_dims m.dims m.constraints m.variables
    m.nonzero_a m.nonzero_b m.nonzero_c m.witness m.proof_bytes m.timings.setup_s
    m.timings.prove_s m.timings.verify_s
    (if m.verified then "" else "  VERIFY-FAILED")
