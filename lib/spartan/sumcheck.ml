(** Sumcheck protocol (Lund–Fortnow–Karloff–Nisan), made non-interactive
    with the Fiat–Shamir transcript, with one prover kernel per statement
    shape the stack proves: Spartan's eq̃-weighted R1CS sum and a plain
    product of two tables. *)

module Parallel = Zkvc_parallel

module Make (F : Zkvc_field.Field_intf.S) = struct
  module T = Zkvc_transcript.Transcript
  module Ch = T.Challenge (F)
  module Ml = Zkvc_poly.Multilinear.Make (F)
  module Span = Zkvc_obs.Span
  module Batch = Zkvc_field.Batch.Make (F)

  let rounds_metric = Zkvc_obs.Metrics.counter "sumcheck.rounds"

  (* rounds with fewer table entries than this run sequentially *)
  let parallel_min_half = 1 lsl 10

  (** One round message: evaluations of the round polynomial at
      0, 1, ..., degree. *)
  type round = F.t array

  type proof = round list

  (* Barycentric form of Lagrange interpolation on the nodes 0..d:
     p(r) = Σ_i evals_i · w_i · Π_{j≠i} (r − j), with the weights
     w_i = 1 / Π_{j≠i} (i − j) = (−1)^(d−i) / (i! (d−i)!) fixed per
     degree, so a call costs O(d) multiplications and no inversion. *)
  let nodes_and_weights d =
    let fact n = List.fold_left ( * ) 1 (List.init n (fun i -> i + 1)) in
    let nodes = Array.init (d + 1) F.of_int in
    let weights =
      Array.init (d + 1) (fun i ->
          let w = F.inv (F.of_int (fact i * fact (d - i))) in
          if (d - i) land 1 = 1 then F.neg w else w)
    in
    (nodes, weights)

  (* the degrees the protocols use, tabulated once *)
  let tabulated = Array.init 4 nodes_and_weights

  let interpolate_at evals r =
    let d = Array.length evals - 1 in
    let nodes, weights =
      if d < Array.length tabulated then tabulated.(d) else nodes_and_weights d
    in
    (* suffix.(i) = Π_{j>i} (r − j); the prefix product runs alongside *)
    let suffix = Array.make (d + 1) F.one in
    for i = d - 1 downto 0 do
      suffix.(i) <- F.mul suffix.(i + 1) (F.sub r nodes.(i + 1))
    done;
    let acc = ref F.zero and prefix = ref F.one in
    for i = 0 to d do
      acc := F.add !acc (F.mul (F.mul evals.(i) weights.(i)) (F.mul !prefix suffix.(i)));
      prefix := F.mul !prefix (F.sub r nodes.(i))
    done;
    !acc

  let log2_exact what len =
    let rec go k p = if p = len then k else if p > len then invalid_arg what else go (k + 1) (2 * p) in
    go 0 1

  (* The Fiat–Shamir round loop shared by the kernels: [message ()] is the
     round polynomial's evaluations for the current tables, [fold evals r]
     binds the round's variable to the challenge. *)
  let run_rounds transcript ~label mu ~message ~fold =
    let rounds = ref [] and challenges = ref [] in
    for round_ix = 1 to mu do
      let round_body () =
        Zkvc_obs.Metrics.incr rounds_metric;
        let evals = message () in
        Ch.absorb_array transcript ~label:(label ^ "/round") evals;
        let r = Ch.challenge transcript ~label:(label ^ "/chal") in
        fold evals r;
        rounds := evals :: !rounds;
        challenges := r :: !challenges
      in
      (* the span name is only materialised while recording, so the
         disabled path does not allocate round labels *)
      if Span.recording () then
        Span.with_span (Printf.sprintf "%s.round%d" label round_ix) round_body
      else round_body ()
    done;
    (List.rev !rounds, List.rev !challenges)

  (* Σ_i of a per-index contribution over [0, half): chunks of the range
     run on the pool when it is large, and since the sum is an exact
     modular reduction the partial sums recombine to the same field
     elements however the range is split. [range 0 0] is the empty
     range's sums, zeros. *)
  let sum_range half range =
    if Parallel.jobs () > 1 && half >= parallel_min_half then
      Parallel.parallel_reduce half
        ~init:(range 0 0)
        ~range
        ~combine:(fun x y -> Array.map2 F.add x y)
    else range 0 half

  (* first variable := r in every table: index i touches only slots i and
     i + half, disjoint across the parallel range *)
  let fold_tables tables half r =
    let fold t i =
      let lo = t.(i) in
      t.(i) <- F.add lo (F.mul r (F.sub t.(i + half) lo))
    in
    List.iter
      (fun t ->
        if Parallel.jobs () > 1 && half >= parallel_min_half then
          Parallel.parallel_for half (fold t)
        else
          for i = 0 to half - 1 do
            fold t i
          done)
      tables

  (* Both kernels carry the running claim: the previous round polynomial
     at its challenge, which is exactly s(0) + s(1) of the next round
     polynomial. So s(1) is claim − s(0) from round two on — the same
     field element a direct sum gives, for any tables, satisfying or not —
     and only round one sums the upper half's values. *)

  (** Σ_x a(x)·b(x). With slopes Δ = hi − lo, the round polynomial is
      s(X) = Σ_i (a_lo + X·Δa)(b_lo + X·Δb) = s(0) + X(s(1) − s(0) − s∞) + X²·s∞,
      so a pass sums s(0) = Σ a_lo·b_lo and the leading coefficient
      s∞ = Σ Δa·Δb, s(1) comes from the claim and
      s(2) = 2s(1) − s(0) + 2s∞: two multiplications per index, and two
      more to fold. *)
  let prove_product transcript ~label a b =
    let len = Array.length a in
    if Array.length b <> len then invalid_arg "Sumcheck.prove_product: ragged tables";
    let mu = log2_exact "Sumcheck.prove_product: length not a power of two" len in
    let a = Array.copy a and b = Array.copy b in
    let half = ref (len / 2) and claim = ref None in
    let message () =
      let h = !half in
      let direct = Option.is_none !claim in
      let sums =
        sum_range h (fun lo_i hi_i ->
            let s0 = ref F.zero and s1 = ref F.zero and s_inf = ref F.zero in
            for i = lo_i to hi_i - 1 do
              let a0 = a.(i) and a1 = a.(i + h) and b0 = b.(i) and b1 = b.(i + h) in
              s0 := F.add !s0 (F.mul a0 b0);
              if direct then s1 := F.add !s1 (F.mul a1 b1);
              s_inf := F.add !s_inf (F.mul (F.sub a1 a0) (F.sub b1 b0))
            done;
            [| !s0; !s1; !s_inf |])
      in
      let s0 = sums.(0) in
      let s1 = match !claim with None -> sums.(1) | Some c -> F.sub c s0 in
      [| s0; s1; F.add (F.sub (F.double s1) s0) (F.double sums.(2)) |]
    in
    let fold evals r =
      fold_tables [ a; b ] !half r;
      half := !half / 2;
      claim := Some (interpolate_at evals r)
    in
    let rounds, challenges = run_rounds transcript ~label mu ~message ~fold in
    (rounds, challenges, [| a.(0); b.(0) |])

  (** Σ_x eq̃(τ, x)·(a(x)·b(x) − c(x)), with eq̃ factored out (Gruen,
      ePrint 2024/108). In round j, with r_k bound for k < j,

        eq̃(τ, (r_{<j}, X, x')) = acc · l_j(X) · eq̃(τ_{>j}, x'),

      where acc = Π_{k<j} eq̃(τ_k, r_k) and l_j(X) = (1 − τ_j) + X(2τ_j − 1).
      So the round polynomial is s(X) = l_j(X)·Q(X) with
      Q(X) = acc·Σ_{x'} eq̃(τ_{>j}, x')·(a·b − c)(X, x') of degree 2. A pass
      sums Q(0) and the leading coefficient Q∞ = acc·Σ e·Δa·Δb: four
      multiplications per index, and three more to fold a, b, c. Then
      Q(1) = (claim − s(0))/τ_j, with the τ_j inverted together up front,
      Q(2) = 2Q(1) − Q(0) + 2Q∞ and Q(3) = 3Q(1) − 2Q(0) + 6Q∞. Round one,
      and a round with τ_j = 0, sum Q(1) directly instead. The eq̃ table
      is never folded: the next round's eq̃(τ_{>j+1}, ·) is the sum of the
      current table's two halves. *)
  let prove_eq_r1cs transcript ~label ~tau a b c =
    let len = Array.length a in
    if Array.length b <> len || Array.length c <> len then
      invalid_arg "Sumcheck.prove_eq_r1cs: ragged tables";
    let mu = log2_exact "Sumcheck.prove_eq_r1cs: length not a power of two" len in
    if List.length tau <> mu then invalid_arg "Sumcheck.prove_eq_r1cs: tau arity mismatch";
    let a = Array.copy a and b = Array.copy b and c = Array.copy c in
    let taus = Array.of_list tau in
    let tau_invs = Array.copy taus in
    Batch.invert_all tau_invs;
    (* e = eq̃(τ_{>j}, ·), of length half *)
    let e = match tau with [] -> [| F.one |] | _ :: rest -> Ml.evals (Ml.eq_table rest) in
    let half = ref (len / 2) and j = ref 0 and acc = ref F.one and claim = ref None in
    let message () =
      let h = !half and tj = taus.(!j) in
      let direct = Option.is_none !claim || F.is_zero tj in
      let sums =
        sum_range h (fun lo_i hi_i ->
            let q0 = ref F.zero and q1 = ref F.zero and q_inf = ref F.zero in
            for i = lo_i to hi_i - 1 do
              let ei = e.(i) in
              let a0 = a.(i) and a1 = a.(i + h) and b0 = b.(i) and b1 = b.(i + h) in
              let c0 = c.(i) in
              q0 := F.add !q0 (F.mul ei (F.sub (F.mul a0 b0) c0));
              if direct then q1 := F.add !q1 (F.mul ei (F.sub (F.mul a1 b1) c.(i + h)));
              q_inf := F.add !q_inf (F.mul ei (F.mul (F.sub a1 a0) (F.sub b1 b0)))
            done;
            [| !q0; !q1; !q_inf |])
      in
      let q0 = F.mul !acc sums.(0) and q_inf = F.mul !acc sums.(2) in
      let l0 = F.sub F.one tj in
      let s0 = F.mul l0 q0 in
      let q1 =
        match !claim with
        | Some c when not direct -> F.mul (F.sub c s0) tau_invs.(!j)
        | _ -> F.mul !acc sums.(1)
      in
      let q2 = F.add (F.sub (F.double q1) q0) (F.double q_inf) in
      let triple x = F.add x (F.double x) in
      let q3 = F.add (F.sub (triple q1) (F.double q0)) (F.double (triple q_inf)) in
      let step = F.sub (F.double tj) F.one in
      let l2 = F.add tj step in
      [| s0; F.mul tj q1; F.mul l2 q2; F.mul (F.add l2 step) q3 |]
    in
    let fold evals r =
      let h = !half in
      let tj = taus.(!j) in
      acc := F.mul !acc (F.add (F.sub F.one tj) (F.mul r (F.sub (F.double tj) F.one)));
      fold_tables [ a; b; c ] h r;
      (* eq̃(τ_{>j}, (x_{j+1}, x'')) = eq̃(τ_{j+1}, x_{j+1})·eq̃(τ_{>j+1}, x''),
         and the two values of eq̃(τ_{j+1}, ·) sum to one *)
      let quarter = h / 2 in
      let merge i = e.(i) <- F.add e.(i) e.(i + quarter) in
      if Parallel.jobs () > 1 && quarter >= parallel_min_half then
        Parallel.parallel_for quarter merge
      else
        for i = 0 to quarter - 1 do
          merge i
        done;
      half := quarter;
      incr j;
      claim := Some (interpolate_at evals r)
    in
    let rounds, challenges = run_rounds transcript ~label mu ~message ~fold in
    (rounds, challenges, [| !acc; a.(0); b.(0); c.(0) |])

  (** Verifier: replays the transcript, checks
      [s_j(0) + s_j(1) = claim_j] each round and reduces the claim to
      [s_j(r_j)]. Returns [Some (final_claim, challenges)] or [None] on a
      consistency failure. *)
  let verify transcript ~label ~degree ~claim proof =
    let ok = ref true in
    let current = ref claim in
    let challenges = ref [] in
    List.iter
      (fun evals ->
        if Array.length evals <> degree + 1 then ok := false
        else begin
          if not (F.equal (F.add evals.(0) evals.(1)) !current) then ok := false;
          Ch.absorb_array transcript ~label:(label ^ "/round") evals;
          let r = Ch.challenge transcript ~label:(label ^ "/chal") in
          current := interpolate_at evals r;
          challenges := r :: !challenges
        end)
      proof;
    if !ok then Some (!current, List.rev !challenges) else None
end
