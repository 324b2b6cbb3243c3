(** Quadratic Arithmetic Program reduction of an R1CS (Gennaro–Gentry–
    Parno–Raykova as used by Groth16 / libsnark).

    Each R1CS matrix column becomes a polynomial interpolating that
    column's entries over a radix-2 domain; a satisfying assignment [z]
    makes [A(x)·B(x) − C(x)] divisible by the domain's vanishing
    polynomial, and the quotient [h(x)] is what the prover commits to.

    As in libsnark, [num_inputs + 1] extra rows [(z_j)·0 = 0] are appended
    so the input columns of A are linearly independent — required for
    Groth16's input-consistency argument. *)

module Bigint = Zkvc_num.Bigint
module Parallel = Zkvc_parallel

module Make (F : Zkvc_field.Field_intf.S) = struct
  module Cs = Zkvc_r1cs.Constraint_system.Make (F)
  module L = Zkvc_r1cs.Lc.Make (F)
  module D = Zkvc_poly.Domain.Make (F)
  module Batch = Zkvc_field.Batch.Make (F)

  type t =
    { cs : Cs.t;
      padded_rows : int; (* constraints + inputs + 1 *)
      domain : D.t;
      coset_shift : F.t }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (2 * p) in
    go 1

  let create cs =
    let padded_rows = Cs.num_constraints cs + Cs.num_inputs cs + 1 in
    let n = next_pow2 padded_rows in
    let domain = D.create n in
    (* any point with g^n ≠ 1 generates a disjoint coset *)
    let rec find_shift c =
      let g = F.of_int c in
      if F.is_zero (D.vanishing_eval domain g) then find_shift (c + 1) else g
    in
    { cs; padded_rows; domain; coset_shift = find_shift 5 }

  let domain_size t = D.size t.domain
  let num_vars t = Cs.num_vars t.cs
  let num_inputs t = Cs.num_inputs t.cs

  (** Degree bound of the quotient [h]: [domain_size - 1] coefficients. *)
  let h_length t = domain_size t - 1

  (** Sparsity of the QAP column families over the padded row set: R1CS
      matrix nonzeros plus the [num_inputs + 1] input-consistency rows on
      the A side. [Api.keygen] publishes these as the [qap.*] gauges;
      [zkvc_cli profile] reconciles its per-region nnz ledger with them. *)
  type density =
    { rows : int;
      domain : int;
      nnz_a : int;
      nnz_b : int;
      nnz_c : int }

  (* A-side nonzeros the reduction itself appends: one per input-
     consistency row [(z_j)·0 = 0]. The profiler reports these as a
     synthetic "(qap-padding)" region so the per-region nnz ledger sums
     exactly to [density.nnz_a]. *)
  let input_consistency_nnz ~num_inputs = num_inputs + 1

  let density t =
    let count f =
      Array.fold_left (fun acc c -> acc + L.num_terms (f c)) 0 t.cs.Cs.constraints
    in
    let d =
      { rows = t.padded_rows;
        domain = domain_size t;
        nnz_a = count (fun c -> c.Cs.a) + input_consistency_nnz ~num_inputs:(Cs.num_inputs t.cs);
        nnz_b = count (fun c -> c.Cs.b);
        nnz_c = count (fun c -> c.Cs.c) }
    in
    let module M = Zkvc_obs.Metrics in
    M.set (M.gauge "qap.domain_size") (float_of_int d.domain);
    M.set (M.gauge "qap.nnz_a") (float_of_int d.nnz_a);
    M.set (M.gauge "qap.nnz_b") (float_of_int d.nnz_b);
    M.set (M.gauge "qap.nnz_c") (float_of_int d.nnz_c);
    d

  (* Row evaluations ⟨M_i, z⟩ for every (padded) row. The input-consistency
     row for input j contributes z_j to A and zero to B, C. *)
  let row_evals t assignment =
    let n = domain_size t in
    let a = Array.make n F.zero
    and b = Array.make n F.zero
    and c = Array.make n F.zero in
    (* rows are independent dot products against the shared (read-only)
       assignment — the QAP column-evaluation parallel axis *)
    let rows = t.cs.Cs.constraints in
    let eval_row i =
      let { Cs.a = la; b = lb; c = lc; label = _ } = rows.(i) in
      a.(i) <- L.eval la assignment;
      b.(i) <- L.eval lb assignment;
      c.(i) <- L.eval lc assignment
    in
    if Parallel.jobs () > 1 && Array.length rows >= 256 then
      Parallel.parallel_for (Array.length rows) eval_row
    else Array.iteri (fun i _ -> eval_row i) rows;
    let base = Cs.num_constraints t.cs in
    for j = 0 to Cs.num_inputs t.cs do
      a.(base + j) <- assignment.(j)
    done;
    (a, b, c)

  (** Quotient polynomial coefficients (length [h_length]) for a satisfying
      assignment. Computed with three inverse NTTs and three coset NTTs;
      on the coset the vanishing polynomial is the constant [shift^n − 1]. *)
  let h_coeffs t assignment =
    let n = domain_size t in
    let a, b, c = row_evals t assignment in
    D.intt t.domain a;
    D.intt t.domain b;
    D.intt t.domain c;
    D.eval_on_coset t.domain t.coset_shift a;
    D.eval_on_coset t.domain t.coset_shift b;
    D.eval_on_coset t.domain t.coset_shift c;
    let zinv = F.inv (D.vanishing_eval t.domain t.coset_shift) in
    let h = Array.make n F.zero in
    let quotient i = h.(i) <- F.mul zinv (F.sub (F.mul a.(i) b.(i)) c.(i)) in
    if Parallel.jobs () > 1 && n >= 1024 then Parallel.parallel_for n quotient
    else
      for i = 0 to n - 1 do
        quotient i
      done;
    D.interp_from_coset t.domain t.coset_shift h;
    (* deg h ≤ n - 2 for a satisfying assignment *)
    Array.sub h 0 (n - 1)

  type evaluation =
    { a_at : F.t array; (* per wire: A_j(tau) *)
      b_at : F.t array;
      c_at : F.t array;
      z_at : F.t; (* vanishing polynomial at tau *)
      tau_powers : F.t array (* tau^0 .. tau^(h_length-1) *) }

  (** Evaluate all wire polynomials at a point (the setup's secret [tau])
      in O(rows + nnz) using the barycentric Lagrange kernels. Raises
      [Invalid_argument] if [tau] lies in the domain. *)
  let evaluate_at t tau =
    let n = domain_size t in
    let z_at = D.vanishing_eval t.domain tau in
    if F.is_zero z_at then invalid_arg "Qap.evaluate_at: tau in evaluation domain";
    (* lagrange.(i) = Z(tau) * w^i / (n * (tau - w^i)) *)
    let diffs = Array.init n (fun i -> F.sub tau (D.element t.domain i)) in
    Batch.invert_all diffs;
    let zn = F.mul z_at (F.inv (F.of_int n)) in
    let lagrange =
      Array.init n (fun i -> F.mul zn (F.mul (D.element t.domain i) diffs.(i)))
    in
    let nv = num_vars t in
    let a_at = Array.make nv F.zero
    and b_at = Array.make nv F.zero
    and c_at = Array.make nv F.zero in
    let accumulate dst row lc =
      List.iter (fun (v, k) -> dst.(v) <- F.add dst.(v) (F.mul k lagrange.(row))) (L.terms lc)
    in
    Array.iteri
      (fun i { Cs.a = la; b = lb; c = lc; label = _ } ->
        accumulate a_at i la;
        accumulate b_at i lb;
        accumulate c_at i lc)
      t.cs.Cs.constraints;
    let base = Cs.num_constraints t.cs in
    for j = 0 to Cs.num_inputs t.cs do
      a_at.(j) <- F.add a_at.(j) lagrange.(base + j)
    done;
    let tau_powers = Array.make (h_length t) F.one in
    for i = 1 to h_length t - 1 do
      tau_powers.(i) <- F.mul tau_powers.(i - 1) tau
    done;
    { a_at; b_at; c_at; z_at; tau_powers }

  (** Sanity identity used by tests:
      (Σ z_j A_j(τ))(Σ z_j B_j(τ)) − Σ z_j C_j(τ) = h(τ)·Z(τ). *)
  let divisibility_holds t assignment tau =
    let ev = evaluate_at t tau in
    let dot m =
      let acc = ref F.zero in
      Array.iteri (fun j v -> acc := F.add !acc (F.mul v m.(j))) assignment;
      !acc
    in
    let lhs = F.sub (F.mul (dot ev.a_at) (dot ev.b_at)) (dot ev.c_at) in
    let h = h_coeffs t assignment in
    let htau = ref F.zero in
    for i = Array.length h - 1 downto 0 do
      htau := F.add (F.mul !htau tau) h.(i)
    done;
    F.equal lhs (F.mul !htau ev.z_at)
end
