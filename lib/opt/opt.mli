(** A keelung-style R1CS optimiser: a fixed-point pass pipeline over
    {!Zkvc_r1cs.Constraint_system} that runs between circuit synthesis and
    the QAP / Spartan preprocessing.

    Passes, in pipeline order:

    - {b const_fold} — wires pinned to constants by [c·w + k = 0]-shaped
      constraints are substituted everywhere and the pinning constraint
      dropped.
    - {b unify} — union-find unification of affinely related wires:
      a linear constraint with exactly two wire terms
      [c1·v + c2·w + k = 0] merges [v] and [w] into one class
      ([v = (−c2/c1)·w − k/c1]), keeping one representative.
    - {b dce} — dead-constraint elimination (rows that are trivially
      satisfied after substitution, e.g. [0 = 0]) and, during the final
      compaction, dead-wire elimination (aux wires no surviving row
      references).
    - {b cse} — common linear-subexpression sharing: canonical [Lc.t]s
      (hash-consed up to a scalar multiple) that appear in several A/B/C
      slots are computed once on a fresh intermediate wire, when and only
      when the nonzero saving is positive.

    [const_fold]/[unify]/[dce] iterate to a fixed point (bounded by
    [max_rounds]); [cse] then runs once, followed by aux-wire compaction.

    {b Canonical-layout invariants.} Wire 0 and the public-input wires
    [1..num_inputs] are never substituted, merged away, or renumbered:
    a public wire is always its class representative and an equality
    between two public wires is left in place. [num_inputs] is preserved
    exactly, so the input-first permutation and the Groth16
    input-consistency column survive optimisation. Only aux wires are
    eliminated and compacted. A constraint that folds to a {e false}
    constant equation is kept (as an unsatisfiable marker), never
    dropped — the optimiser must not widen the acceptance set.

    {b Witness remap contract.} [optimize] returns a {!witness_map}:
    {!expand_witness} turns a full assignment for the original system
    into one for the optimised system (every optimised wire is a linear
    combination of original wires), and {!restore_witness} maps back
    (every original wire is a linear combination of optimised wires —
    eliminated wires are forced to the value their elimination implied).
    For every original assignment [z]:
    [is_satisfied optimised (expand z) ⇔ is_satisfied original
    (restore (expand z))], and both are implied by
    [is_satisfied original z]. For every assignment [z'] satisfying the
    optimised system, [restore z'] satisfies the original system with
    the same public inputs. *)

module Make (F : Zkvc_field.Field_intf.S) : sig
  module L : module type of Zkvc_r1cs.Lc.Make (F)
  module Cs : module type of Zkvc_r1cs.Constraint_system.Make (F)

  (** Which passes run; [max_rounds] bounds the fixed-point iteration of
      the [const_fold]/[unify]/[dce] loop. *)
  type config =
    { const_fold : bool;
      unify : bool;
      dce : bool;
      cse : bool;
      max_rounds : int }

  (** Everything on, [max_rounds = 8]. *)
  val default : config

  (** Short deterministic tag naming the configuration, e.g.
      ["cf1-uf1-dce1-cse1-r8"] — absorbed into service cache keys so
      optimised and unoptimised keys never collide. *)
  val config_tag : config -> string

  (** Per-constraint / per-wire owning region (paths as produced by
      {!Zkvc_r1cs.Builder.Make.finalize_with_provenance}) plus the
      original attribution tree. When supplied, eliminations are debited
      from their owning region and {!result.regions} carries the rebuilt
      (post-optimisation) tree. *)
  type provenance =
    { constraint_region : string array;
      wire_region : string array;
      tree : Zkvc_obs.Attrib.t }

  type witness_map

  (** Map a full original assignment (slot 0 = 1) to a full optimised
      assignment. *)
  val expand_witness : witness_map -> F.t array -> F.t array

  (** Map a full optimised assignment back to an original-layout
      assignment; eliminated wires take the value their elimination
      implied (constants, affine images of their representative; dead
      wires restore to zero). *)
  val restore_witness : witness_map -> F.t array -> F.t array

  (** Net removal attributed to one pass (positive = removed; CSE may go
      negative on constraints/wires since sharing {e adds} a defining row
      and a fresh wire while removing nonzeros). *)
  type delta =
    { d_constraints : int;
      d_wires : int;
      d_nnz : int }

  val zero_delta : delta
  val add_delta : delta -> delta -> delta

  type pass_delta =
    { pass : string;
      actions : int;  (** pins / merges / dropped rows / shared LCs *)
      delta : delta;
      by_region : (string * delta) list
          (** owning-region paths ([""] = unattributed), sorted by
              descending nonzero saving; empty without provenance *) }

  type report =
    { passes : pass_delta list;  (** fixed order: const_fold, unify, dce, cse *)
      rounds : int;  (** fixed-point rounds the loop ran *)
      before : Cs.stats;
      after : Cs.stats }

  val total_delta : report -> delta

  (** Multi-line human-readable report (one line per pass plus a total). *)
  val pp_report : Format.formatter -> report -> unit

  type result =
    { cs : Cs.t;
      map : witness_map;
      report : report;
      regions : Zkvc_obs.Attrib.t option
          (** post-optimisation attribution tree (structure and synthesis
              times of the original, counts of the optimised system);
              [None] without provenance *) }

  (** Run the pipeline. Pass-level spans are emitted as [opt.<pass>] and
      the totals published on [opt.*] gauges. *)
  val optimize : ?config:config -> ?provenance:provenance -> Cs.t -> result
end
