(** High-level zkVC API over the BN254 scalar field: build a matmul
    statement with any encoding strategy, prove it with either backend
    (zkVC-G = Groth16, zkVC-S = Spartan), verify, and collect the
    timing/size measurements the paper's tables report. *)

module Fr = Zkvc_field.Fr
module Cs : module type of Zkvc_r1cs.Constraint_system.Make (Fr)

type backend = Backend_groth16 | Backend_spartan

val backend_name : backend -> string

type timings = { setup_s : float; prove_s : float; verify_s : float }

(** One proved statement's circuit shape, proof size, verdict and
    phase timings: what the bench tables print. [nonzero_a/b/c] are
    nonzero entries per QAP column family (= R1CS matrix); [nonzero_a] is
    the paper's "left wires". [witness] is the private witness length
    ([num_aux]). [verified] is the outcome of the verification pass —
    honest runs always produce [true]; the adversary harness proves from
    corrupted witnesses and reads rejection here. *)
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
  | Groth16_proof of Zkvc_groth16.Groth16.proof
  | Spartan_proof of Zkvc_spartan.Spartan.proof

(** Compile the statement: for CRPC strategies the challenge is derived by
    Fiat–Shamir from X, W and Y. Returns (system, full assignment, Y). *)
val build_circuit :
  Matmul_circuit.strategy ->
  x:Fr.t array array ->
  w:Fr.t array array ->
  Matmul_spec.dims ->
  Cs.t * Fr.t array * Fr.t array array

(** Everything {!build_circuit} computes, plus the Fiat–Shamir challenge
    the CRPC strategies bound into the constraint coefficients ([None]
    for the vanilla strategies). *)
type prepared =
  { cs : Cs.t;
    assignment : Fr.t array;
    y : Fr.t array array;
    challenge : Fr.t option;
    regions : Zkvc_obs.Attrib.t
        (** constraint-provenance tree of the build (witness time filled,
            prove share zero — no proving has happened yet) *) }

(** The CRPC challenge is derived from X, W and Y {e before} synthesis. *)
val prepare :
  Matmul_circuit.strategy ->
  x:Fr.t array array ->
  w:Fr.t array array ->
  Matmul_spec.dims ->
  prepared

(** Rebuild only the constraint system of a statement shape, without
    knowing X or W: circuit structure depends solely on (strategy, dims)
    plus — for CRPC — the challenge. Used by verifiers that receive keys
    and proofs from elsewhere (key files, the proof service disk cache).
    Raises [Invalid_argument] if a CRPC strategy is given no challenge. *)
val circuit_shape :
  Matmul_circuit.strategy -> ?challenge:Fr.t -> Matmul_spec.dims -> Cs.t

(** Per-circuit proving/verifying material for one backend — the unit the
    proof service caches so setup runs once per circuit shape. *)
type keys =
  | Groth16_keys of
      { qap : Zkvc_groth16.Groth16.Qap.t;
        pk : Zkvc_groth16.Groth16.proving_key;
        vk : Zkvc_groth16.Groth16.verifying_key }
  | Spartan_keys of
      { inst : Zkvc_spartan.Spartan.instance; key : Zkvc_spartan.Spartan.key }

(** Run the backend's setup for one compiled circuit. Consumes [rng]
    exactly as {!run} does (Groth16 toxic-waste draws; Spartan setup is
    deterministic), so [keygen] followed by {!prove_with} on the same
    [rng] yields a proof byte-identical to {!run}'s. *)
val keygen : ?rng:Random.State.t -> backend -> Cs.t -> keys

val prove_with : ?rng:Random.State.t -> keys -> Fr.t array -> proof

(** Raises [Invalid_argument] when the proof and keys disagree on the
    backend. *)
val verify_with : keys -> public_inputs:Fr.t list -> proof -> bool

val proof_size : proof -> int

(** Prove and verify once; setup time is reported separately and — like
    the paper — excluded from proving time. Does not raise on a failed
    verification: the outcome is returned in [measurement.verified] so
    callers (bench, adversary harness) observe rejection as data. The
    CLI turns [verified = false] into a non-zero exit code. Synthesis
    runs under a [zkvc.build_circuit] span. *)
val run :
  ?rng:Random.State.t ->
  backend ->
  Matmul_circuit.strategy ->
  x:Fr.t array array ->
  w:Fr.t array array ->
  Matmul_spec.dims ->
  proof * measurement

(** {!run} on a statement already {!prepare}d for [strategy] at [dims]:
    keygen, prove and verify, with the same measurement row. *)
val run_prepared :
  ?rng:Random.State.t ->
  backend ->
  Matmul_circuit.strategy ->
  Matmul_spec.dims ->
  prepared ->
  proof * measurement

val pp_measurement : Format.formatter -> measurement -> unit
