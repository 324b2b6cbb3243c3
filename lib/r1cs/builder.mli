(** Mutable circuit builder: gadgets allocate wires together with their
    witness values (single-pass synthesis); [finalize] permutes wires into
    the canonical input-first layout of {!Constraint_system} and returns
    the compiled system plus the full assignment.

    The circuit {e shape} produced by all gadgets in this repository
    depends only on structural parameters (matrix sizes, bit widths),
    never on witness values, so a builder run with dummy values yields the
    same compiled system — which is what the Groth16 trusted setup uses.

    Provenance: wrap synthesis in nestable {!Make.in_region} scopes and
    every constraint and wire emitted inside is attributed to the
    innermost region; {!Make.region_tree} folds the ledger into a
    {!Zkvc_obs.Attrib.t}. Attribution happens at emission time, so the
    canonical wire permutation of [finalize] cannot disturb it. *)

module Make (F : Zkvc_field.Field_intf.S) : sig
  module L : module type of Lc.Make (F)
  module Cs : module type of Constraint_system.Make (F)

  type t

  val create : unit -> t

  (** Allocate a private witness wire holding [value]. *)
  val alloc : t -> F.t -> L.var

  (** Allocate a public input wire holding [value]. *)
  val alloc_input : t -> F.t -> L.var

  (** Current value of a wire. *)
  val value : t -> L.var -> F.t

  (** Evaluate a linear combination against the current assignment. *)
  val eval : t -> L.t -> F.t

  (** Enforce [a * b = c]. *)
  val enforce : t -> ?label:string -> L.t -> L.t -> L.t -> unit

  val num_constraints : t -> int

  (** [in_region b "attn/qk_matmul" f] runs [f ()] with a (slash-nested)
      provenance region pushed: constraints and wires emitted inside are
      attributed to the innermost segment and its synthesis wall time
      accumulates there. Re-entering an existing path accumulates into
      the same node. Exception-safe. *)
  val in_region : t -> string -> (unit -> 'a) -> 'a

  (** Fold the provenance ledger into a region tree. The root (named
      ["all"]) holds unattributed cost — anything emitted outside every
      [in_region] scope. Counts are exact and independent of the wire
      permutation; may be called before or after [finalize]. *)
  val region_tree : t -> Zkvc_obs.Attrib.t

  (** Compile: wires permuted to [one; inputs...; aux...], preserving the
      relative allocation order within each class. *)
  val finalize : t -> Cs.t * F.t array

  (** [finalize] plus {!region_tree}: the compiled system, the full
      assignment, and the provenance tree in one step. *)
  val finalize_attributed : t -> Cs.t * F.t array * Zkvc_obs.Attrib.t

  (** Public-input values in canonical order (excluding the one wire). *)
  val public_inputs : t -> F.t list
end
