(** Server-side batch verification. The members of one [Batch_verify]
    request take the backend's batched fast path — [Groth16.verify_batch]
    (one multi-pairing for the whole group) or [Spartan.verify_batch]
    (one shared opening MSM) — and if the batched check fails, each item
    is re-verified alone so honest proofs in a batch with one corrupted
    member still pass. *)

module Fr = Zkvc_field.Fr
module Api = Zkvc.Api

(** How the verdicts were decided. [Batched]: the fast path accepted the
    whole group in one combined check. [Fallback]: the fast path ran and
    rejected (or flagged malformed members), so every item was
    re-verified individually. [Per_item]: the fast path never applied
    (singleton group, or proofs not homogeneous with the key's
    backend). *)
type path = Batched | Fallback | Per_item

type outcome =
  { verdicts : bool list;  (** one per item, in order *)
    path : path;
    malformed : int list
        (** 0-based indices the batch verifier flagged as structurally
            invalid (wrong arity/shape for the key) — attributable
            faults, distinct from honest cryptographic rejection *) }

(** [verify_each keys items]: batches of two or more homogeneous proofs
    take the fast path; mixed or singleton groups verify per item.
    Raises [Invalid_argument] on an empty list — zero instances have no
    sound verdict, and callers must not let a dropped-to-empty batch
    "verify". *)
val verify_each : Api.keys -> (Fr.t list * Api.proof) list -> outcome
