(* Reference sumcheck prover for the tests: the generic prover the
   specialised kernels of Zkvc_spartan.Sumcheck replaced, kept verbatim.
   It proves [Σ_x combine(t_1(x), ..., t_k(x))] by evaluating every table
   at every point 0..degree through the [combine] closure and folding
   every table, eq̃ included, so it shares nothing with the kernels but
   the transcript. [interpolate_at] is the per-call Lagrange evaluation
   the barycentric one replaced. *)

module Parallel = Zkvc_parallel

module Make (F : Zkvc_field.Field_intf.S) = struct
  module T = Zkvc_transcript.Transcript
  module Ch = T.Challenge (F)
  module Span = Zkvc_obs.Span

  let rounds_metric = Zkvc_obs.Metrics.counter "sumcheck.rounds"

  (* rounds with fewer table entries than this run sequentially *)
  let parallel_min_half = 1 lsl 10

  (** One round message: evaluations of the round polynomial at
      0, 1, ..., degree. *)
  type round = F.t array

  type proof = round list

  (* Lagrange interpolation of a degree-d polynomial given values at
     0..d, evaluated at r. *)
  let interpolate_at evals r =
    let d = Array.length evals - 1 in
    let acc = ref F.zero in
    for i = 0 to d do
      let num = ref F.one and den = ref F.one in
      for j = 0 to d do
        if j <> i then begin
          num := F.mul !num (F.sub r (F.of_int j));
          den := F.mul !den (F.of_int (i - j))
        end
      done;
      acc := F.add !acc (F.mul evals.(i) (F.div !num !den))
    done;
    !acc

  (** Prover. [tables] are equal-length power-of-two evaluation tables,
      folded in place conceptually (copies are taken, inputs untouched).
      Returns the round messages, the challenge vector and the final values
      of each table at the challenge point. *)
  let prove transcript ~label ~degree tables ~combine =
    let tables = Array.map Array.copy tables in
    let len = Array.length tables.(0) in
    Array.iter
      (fun t -> if Array.length t <> len then invalid_arg "Sumcheck.prove: ragged tables")
      tables;
    let mu =
      let rec go k p = if p = len then k else go (k + 1) (2 * p) in
      go 0 1
    in
    let xs = Array.init (degree + 1) F.of_int in
    let current_len = ref len in
    let rounds = ref [] and challenges = ref [] in
    let point_values = Array.make (Array.length tables) F.zero in
    for round_ix = 1 to mu do
      let round_body () =
        Zkvc_obs.Metrics.incr rounds_metric;
        let half = !current_len / 2 in
        let parallel = Parallel.jobs () > 1 && half >= parallel_min_half in
        (* per-index contributions to the round polynomial; the sum over
           i is a modular (exact, associative) reduction, so partial sums
           per chunk recombine to the same field elements regardless of
           how the range is split *)
        let eval_range lo_i hi_i =
          let local = Array.make (degree + 1) F.zero in
          let pv = Array.make (Array.length tables) F.zero in
          for i = lo_i to hi_i - 1 do
            for xi = 0 to degree do
              let x = xs.(xi) in
              Array.iteri
                (fun t_idx t ->
                  let lo = t.(i) and hi = t.(i + half) in
                  (* value of the table's MLE with first var := x *)
                  pv.(t_idx) <- F.add lo (F.mul x (F.sub hi lo)))
                tables;
              local.(xi) <- F.add local.(xi) (combine pv)
            done
          done;
          local
        in
        let evals =
          if parallel then
            Parallel.parallel_reduce half
              ~init:(Array.make (degree + 1) F.zero)
              ~range:eval_range
              ~combine:(fun x y -> Array.map2 F.add x y)
          else begin
            (* sequential path reuses the hoisted point_values scratch *)
            let evals = Array.make (degree + 1) F.zero in
            for i = 0 to half - 1 do
              for xi = 0 to degree do
                let x = xs.(xi) in
                Array.iteri
                  (fun t_idx t ->
                    let lo = t.(i) and hi = t.(i + half) in
                    point_values.(t_idx) <- F.add lo (F.mul x (F.sub hi lo)))
                  tables;
                evals.(xi) <- F.add evals.(xi) (combine point_values)
              done
            done;
            evals
          end
        in
        Ch.absorb_array transcript ~label:(label ^ "/round") evals;
        let r = Ch.challenge transcript ~label:(label ^ "/chal") in
        (* fold every table: first variable := r; index i touches only
           slots i and i + half, disjoint across the parallel range *)
        Array.iter
          (fun t ->
            if parallel then
              Parallel.parallel_for half (fun i ->
                  let lo = t.(i) and hi = t.(i + half) in
                  t.(i) <- F.add lo (F.mul r (F.sub hi lo)))
            else
              for i = 0 to half - 1 do
                let lo = t.(i) and hi = t.(i + half) in
                t.(i) <- F.add lo (F.mul r (F.sub hi lo))
              done)
          tables;
        current_len := half;
        rounds := evals :: !rounds;
        challenges := r :: !challenges
      in
      (* the span name is only materialised while recording, so the
         disabled path does not allocate round labels *)
      if Span.recording () then
        Span.with_span (Printf.sprintf "%s.round%d" label round_ix) round_body
      else round_body ()
    done;
    let finals = Array.map (fun t -> t.(0)) tables in
    (List.rev !rounds, List.rev !challenges, finals)
end
