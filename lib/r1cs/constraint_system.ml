(** Compiled Rank-1 Constraint Systems. Canonical wire layout:
    wire 0 = constant one, wires 1..num_inputs = public inputs,
    the remaining [num_aux] wires are private witness. A satisfying full
    assignment [z] fulfils [⟨A_i, z⟩ · ⟨B_i, z⟩ = ⟨C_i, z⟩] for every
    constraint [i]. *)

module Make (F : Zkvc_field.Field_intf.S) = struct
  module L = Lc.Make (F)

  type constr = { a : L.t; b : L.t; c : L.t; label : string }

  type t =
    { num_inputs : int; (* public inputs, excluding the constant wire *)
      num_aux : int;
      constraints : constr array }

  (** Total wires including the constant-one wire. *)
  let num_vars t = 1 + t.num_inputs + t.num_aux

  let num_constraints t = Array.length t.constraints

  let num_inputs t = t.num_inputs
  let num_aux t = t.num_aux

  exception Unsatisfied of int * string

  (** Checks every constraint; raises {!Unsatisfied} with the index and
      label of the first violated one. *)
  let check_satisfied t assignment =
    if Array.length assignment <> num_vars t then
      invalid_arg "Constraint_system.check_satisfied: assignment length";
    if not (F.is_one assignment.(0)) then
      invalid_arg "Constraint_system.check_satisfied: wire 0 must be 1";
    Array.iteri
      (fun i { a; b; c; label } ->
        let av = L.eval a assignment
        and bv = L.eval b assignment
        and cv = L.eval c assignment in
        if not (F.equal (F.mul av bv) cv) then raise (Unsatisfied (i, label)))
      t.constraints

  let is_satisfied t assignment =
    match check_satisfied t assignment with
    | () -> true
    | exception Unsatisfied _ -> false

  (** Statistics that the zkVC paper's PSQ section reasons about: total
      non-zero entries per matrix, and "left wires" = non-zero terms on the
      A side. Fewer left wires means sparser QAP A-polynomials and a
      cheaper prover. *)
  type stats =
    { constraints : int;
      variables : int;
      nonzero_a : int;
      nonzero_b : int;
      nonzero_c : int }

  let stats (t : t) =
    let count f = Array.fold_left (fun acc c -> acc + L.num_terms (f c)) 0 t.constraints in
    let s =
      { constraints = num_constraints t;
        variables = num_vars t;
        nonzero_a = count (fun c -> c.a);
        nonzero_b = count (fun c -> c.b);
        nonzero_c = count (fun c -> c.c) }
    in
    let module M = Zkvc_obs.Metrics in
    M.set (M.gauge "r1cs.constraints") (float_of_int s.constraints);
    M.set (M.gauge "r1cs.variables") (float_of_int s.variables);
    M.set (M.gauge "r1cs.nonzero_a") (float_of_int s.nonzero_a);
    M.set (M.gauge "r1cs.nonzero_b") (float_of_int s.nonzero_b);
    M.set (M.gauge "r1cs.nonzero_c") (float_of_int s.nonzero_c);
    s
end
