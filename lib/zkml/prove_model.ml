(** End-to-end verifiable-inference measurements: real per-layer proofs at
    tractable sizes, and calibrated extrapolation to the paper's model
    scales through exact constraint counts (DESIGN.md, "Reproduction
    scaling"). *)

module Fr = Zkvc_field.Fr
module Nl = Zkvc.Nonlinear
module Q = Zkvc_nn.Quantize
module Lc = Layer_circuit.Make (Fr)
module Lin = Zkvc_r1cs.Lc.Make (Fr)
module Bld = Zkvc_r1cs.Builder.Make (Fr)
module Cs = Zkvc_r1cs.Constraint_system.Make (Fr)
module Api = Zkvc.Api
module Models = Zkvc_nn.Models

(* [Span.now] follows the installed span clock, so these measurements are
   wall time whenever the binary installed one (CPU time misreports
   multi-domain proving; see Zkvc_obs.Span.set_clock). *)
let time f =
  let t0 = Zkvc_obs.Span.now () in
  let r = f () in
  (r, Zkvc_obs.Span.now () -. t0)

(** Prove one op-circuit for real on the given backend; returns
    (constraints, prove seconds, verify seconds, proof bytes). *)
let prove_op ?strategy backend cfg op =
  let rng = Random.State.make [| 5; 55 |] in
  let b = Bld.create () in
  Lc.build_op ?strategy b cfg op;
  let cs, assignment = Bld.finalize b in
  Cs.check_satisfied cs assignment;
  let public_inputs = Cs.public_inputs cs assignment in
  let keys = Api.keygen ~rng backend cs in
  let proof, t_prove = time (fun () -> Api.prove_with ~rng keys assignment) in
  let ok, t_verify = time (fun () -> Api.verify_with keys ~public_inputs proof) in
  if not ok then failwith ("prove_op: " ^ Api.backend_name backend ^ " verification failed");
  (Cs.num_constraints cs, t_prove, t_verify, Api.proof_size proof)

type table3_row =
  { dataset : string;
    variant : Models.variant;
    paper_top1 : float option;
    constraints : int;
    est_prove_g : float;
    est_prove_s : float;
    paper_prove_g : float option;
    paper_prove_s : float option }

let paper_row table dataset variant_name =
  List.find_map
    (fun (ds, v, _, pg, ps) -> if ds = dataset && v = variant_name then Some (pg, ps) else None)
    table

(** One Table-III-style row: exact counts + both backends' estimates +
    the paper's reported numbers for shape comparison. *)
let table3_row ?strategy ~calib_g ~calib_s cfg ~dataset arch variant =
  let layers = Compiler.compile arch variant in
  let counts = Compiler.total_counts ?strategy cfg layers in
  let vname = Models.variant_name variant in
  let paper = paper_row Cost_model.paper_table3 dataset vname in
  { dataset;
    variant;
    paper_top1 = Cost_model.paper_accuracy ~dataset ~variant:vname;
    constraints = counts.Ops.constraints;
    est_prove_g = Cost_model.estimate calib_g counts.Ops.constraints;
    est_prove_s = Cost_model.estimate calib_s counts.Ops.constraints;
    paper_prove_g = Option.map fst paper;
    paper_prove_s = Option.map snd paper }

(** A real, fully proven linear layer (matmul + per-element rescale) with
    witness values from the quantized model semantics; used by tests and
    the examples to demonstrate the complete flow. *)
let linear_layer_circuit ?(strategy = Zkvc.Matmul_circuit.Crpc_psq) cfg ~x ~w d =
  let b = Bld.create () in
  let xf = Array.map (Array.map Fr.of_int) x in
  let wf = Array.map (Array.map Fr.of_int) w in
  let yf = Lc.Spec.multiply xf wf in
  let challenge =
    if Zkvc.Matmul_circuit.uses_challenge strategy then
      Some (Lc.Mc.derive_challenge ~x:xf ~w:wf ~y:yf)
    else None
  in
  let wires = Lc.Mc.build b strategy ?challenge ~y_public:false ~x:xf ~w:wf ~y:yf d in
  let outputs =
    Array.map (Array.map (fun yw -> Lc.rescale b cfg (Lin.of_var yw))) wires.Lc.Mc.y
  in
  let out_values = Array.map (Array.map (fun o -> Bld.eval b o)) outputs in
  let cs, assignment = Bld.finalize b in
  (cs, assignment, out_values)
