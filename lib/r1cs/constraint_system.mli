(** Compiled Rank-1 Constraint Systems.

    Canonical wire layout: wire 0 = constant one, wires
    [1..num_inputs] = public inputs, the remaining [num_aux] wires are
    private witness. A satisfying full assignment [z] fulfils
    [⟨A_i, z⟩ · ⟨B_i, z⟩ = ⟨C_i, z⟩] for every constraint [i]. *)

module Make (F : Zkvc_field.Field_intf.S) : sig
  module L : module type of Lc.Make (F)

  type constr = { a : L.t; b : L.t; c : L.t; label : string }

  type t =
    { num_inputs : int; (** public inputs, excluding the constant wire *)
      num_aux : int;
      constraints : constr array }

  (** Total wires including the constant-one wire. *)
  val num_vars : t -> int

  val num_constraints : t -> int
  val num_inputs : t -> int
  val num_aux : t -> int

  exception Unsatisfied of int * string

  (** Checks every constraint; raises {!Unsatisfied} with the index and
      label of the first violated one. *)
  val check_satisfied : t -> F.t array -> unit

  val is_satisfied : t -> F.t array -> bool

  (** Density statistics; [nonzero_a] is the paper's "left wires". *)
  type stats =
    { constraints : int;
      variables : int;
      nonzero_a : int;
      nonzero_b : int;
      nonzero_c : int }

  val stats : t -> stats
end
