(** Deterministic fault-injection harness: forge, tamper and corrupt in
    every way the codebase knows how, and assert the verifier rejects
    each one.

    A {!target} fixes (backend, strategy, dims, seed); everything the
    harness does — instance sampling, mutation choices, bit-flip
    positions, splice randomness — is derived from the seed, so any
    verdict reproduces from the printed {!repro_hint} line.

    Mutation families:
    - [groth16.point] — each proof point replaced, negated or set to the
      identity, and the two G1 points swapped
      ({!Zkvc_groth16.Groth16.Mutate});
    - [groth16.splice] / [spartan.splice] — proof parts mixed across
      re-randomised proofs of the same statement, and whole/partial
      proofs transplanted across different statements;
    - [spartan.proof] / [spartan.ipa] — every sumcheck-round polynomial,
      row commitment, claimed evaluation and opening element perturbed,
      in both the Hyrax-fold and IPA opening modes
      ({!Zkvc_spartan.Spartan.Mutate});
    - [witness] — proofs honestly re-proved from a corrupted assignment
      (one wrong [y_ij]; one corrupted internal wire — the prefix-sum
      link [s_k] for the PSQ strategies);
    - [statement] — an honest proof replayed against forged public
      inputs;
    - [crpc] — proving under a chosen (non-Fiat–Shamir) challenge with a
      [Y' ≠ X·W] that satisfies the polynomial identity at that
      challenge, and reusing a challenge derived from a different
      statement. The SNARK accepts both (the circuit {e is} satisfied) —
      the harness asserts the Fiat–Shamir challenge {e authentication}
      ([derive_challenge] recomputation) catches them, which is exactly
      the reduction step CRPC soundness stands on;
    - [batch] — attacks on batched verification
      ({!Zkvc_serve.Batch.verify_each}): one corrupted member must sink
      the combined check while the per-item fallback isolates it,
      statements swapped between well-formed members must reject,
      wrong-arity members must be flagged as attributable malformed
      faults, and the empty batch must refuse to produce a verdict;
    - [wire] — bit-flipped proof files, key files and request/response
      frames (including trace/timing blocks, the [Status_detail]
      operation and [Batch_verify] requests) pushed
      through the {!Zkvc_serve.Wire} codecs: every flip must end in a
      typed decode error, a descriptor/key-id mismatch, a refused batch,
      a [false] verdict or an unchanged statement — never [true] on a
      changed statement, never an exception. *)

module Api = Zkvc.Api

type target =
  { backend : Api.backend;
    strategy : Zkvc.Matmul_circuit.strategy;
    dims : Zkvc.Matmul_spec.dims;
    seed : int }

(** What the verifier said about one mutation. [Rejected_error] is a
    typed decode/validation failure (still a sound rejection);
    [Accepted] is an accepted forgery; [Crashed] is an unexpected
    exception escaping a verification path. *)
type outcome =
  | Rejected
  | Rejected_error of string
  | Accepted
  | Crashed of string

(** [true] for [Rejected] and [Rejected_error]. *)
val outcome_is_sound : outcome -> bool

type case =
  { family : string;  (** mutation family, e.g. ["groth16.point"] *)
    mutation : string;  (** specific site/strategy, e.g. ["a.neg"] *)
    outcome : outcome;
    detail : string  (** free-form context, e.g. flip statistics *) }

(** ["family.mutation"] — the name {!run_target}'s [only] filters on. *)
val case_name : case -> string

type report =
  { target : target;
    honest_verified : bool;
        (** the unmutated proof(s) verified — if [false] the fixture
            itself is broken and the rejections prove nothing *)
    cases : case list }

(** Run every applicable mutation against one target. [only] keeps just
    the cases whose {!case_name} contains it as a substring. *)
val run_target : ?only:string -> target -> report

(** Cases whose outcome is [Accepted] or [Crashed]. *)
val failures : report -> case list

(** Honest proofs verified and no mutation was accepted or crashed. *)
val is_clean : report -> bool

(** One [zkvc_cli adversary ...] command line reproducing the case. *)
val repro_hint : target -> case -> string

(** Re-run a failing case at strictly smaller dimensions and return the
    smallest target (by [a·n·b], then lexicographically) where the same
    mutation still fails, with that failing case. [None] if it only
    fails at the original size. *)
val shrink : target -> case -> (target * case) option

val pp_target : Format.formatter -> target -> unit
val pp_case : Format.formatter -> case -> unit

(** Full report: one line per case, failures flagged, shrunk repro lines
    printed by {!sweep}. *)
val pp_report : Format.formatter -> report -> unit

(** The two dimension scales the CI sweep covers. *)
val default_dims : Zkvc.Matmul_spec.dims list

val default_strategies : Zkvc.Matmul_circuit.strategy list

(** Run the full grid (backends × strategies × dims), printing each
    report to [out] (default std_formatter) plus a shrunk repro line for
    every failure. Returns the reports and whether everything was
    clean. *)
val sweep :
  ?out:Format.formatter ->
  ?only:string ->
  ?backends:Api.backend list ->
  ?strategies:Zkvc.Matmul_circuit.strategy list ->
  ?dims:Zkvc.Matmul_spec.dims list ->
  seed:int ->
  unit ->
  report list * bool
