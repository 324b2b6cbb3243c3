(** End-to-end verifiable-inference measurements: real per-layer proofs at
    tractable sizes, and calibrated extrapolation to the paper's model
    scales through exact constraint counts (DESIGN.md, "Reproduction
    scaling"). *)

module Fr = Zkvc_field.Fr
module Models = Zkvc_nn.Models

(** Prove one op-circuit for real; returns
    (constraints, prove s, verify s, proof bytes). Raises [Failure] if
    the produced proof does not verify. *)
val prove_op :
  ?strategy:Zkvc.Matmul_circuit.strategy ->
  Cost_model.backend ->
  Zkvc.Nonlinear.config ->
  Ops.t ->
  int * float * float * int

type table3_row =
  { dataset : string;
    variant : Models.variant;
    paper_top1 : float option;
    constraints : int;
    est_prove_g : float;
    est_prove_s : float;
    paper_prove_g : float option;
    paper_prove_s : float option }

(** One Table-III-style row: exact counts, both backends' estimates, and
    the paper's reported values for shape comparison. *)
val table3_row :
  ?strategy:Zkvc.Matmul_circuit.strategy ->
  calib_g:Cost_model.calibration ->
  calib_s:Cost_model.calibration ->
  Zkvc.Nonlinear.config ->
  dataset:string ->
  Models.arch ->
  Models.variant ->
  table3_row

(** A real, fully provable linear layer (matmul with the chosen strategy +
    per-element rescale) over integer inputs; returns the compiled system,
    the full assignment and the rescaled output values (which match
    {!Zkvc_nn.Quantize.matmul_rescale} bit for bit). *)
val linear_layer_circuit :
  ?strategy:Zkvc.Matmul_circuit.strategy ->
  Zkvc.Nonlinear.config ->
  x:int array array ->
  w:int array array ->
  Zkvc.Matmul_spec.dims ->
  Zkvc_r1cs.Constraint_system.Make(Fr).t * Fr.t array * Fr.t array array
